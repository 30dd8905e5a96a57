/**
 * @file
 * Tests for the parallel campaign engine: ParallelExecutor coverage
 * and exception semantics, the determinism contract (a campaign's
 * digest is bit-identical at every thread count), and the
 * thread-safety of the shared logging sink.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/compound.hh"
#include "fault/ras_campaign.hh"
#include "net/service_plane.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using sim::ParallelExecutor;

// --- executor ------------------------------------------------------

TEST(ParallelExecutor, ResolvesThreadKnob)
{
    EXPECT_GE(sim::hardwareThreads(), 1u);
    EXPECT_EQ(sim::resolveThreads(0), sim::hardwareThreads());
    EXPECT_EQ(sim::resolveThreads(3), 3u);
    EXPECT_EQ(ParallelExecutor(0).threads(), sim::hardwareThreads());
    EXPECT_EQ(ParallelExecutor(5).threads(), 5u);
}

TEST(ParallelExecutor, EveryIndexRunsExactlyOnce)
{
    constexpr std::uint64_t n = 1000;
    std::vector<std::atomic<std::uint32_t>> hits(n);
    ParallelExecutor pool(4);
    pool.forEach(n, [&hits](std::uint64_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelExecutor, HandlesDegenerateCounts)
{
    ParallelExecutor pool(4);
    std::atomic<std::uint64_t> ran{0};
    pool.forEach(0, [&ran](std::uint64_t) { ++ran; });
    EXPECT_EQ(ran.load(), 0u);

    // Fewer trials than workers: every index still runs once.
    pool.forEach(2, [&ran](std::uint64_t) { ++ran; });
    EXPECT_EQ(ran.load(), 2u);
}

TEST(ParallelExecutor, MapLandsResultsInCanonicalSlots)
{
    ParallelExecutor pool(4);
    const std::vector<std::uint64_t> out = pool.map<std::uint64_t>(
        257, [](std::uint64_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::uint64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutor, FirstTrialExceptionPropagates)
{
    ParallelExecutor pool(4);
    EXPECT_THROW(
        pool.forEach(100,
                     [](std::uint64_t i) {
                         if (i == 37)
                             throw std::runtime_error("trial 37");
                     }),
        std::runtime_error);

    // The pool is reusable after a failed run.
    std::atomic<std::uint64_t> ran{0};
    pool.forEach(10, [&ran](std::uint64_t) { ++ran; });
    EXPECT_EQ(ran.load(), 10u);
}

// --- determinism: parallel == sequential ---------------------------

TEST(ParallelDeterminism, FaultCampaignDigestIsThreadInvariant)
{
    fault::CampaignConfig cfg;
    cfg.cuts = 24;
    cfg.seed = 7;

    cfg.threads = 1;
    const fault::CampaignResult seq = runSngCampaign(cfg);
    cfg.threads = 4;
    const fault::CampaignResult par = runSngCampaign(cfg);

    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(par.digest, seq.digest);
    EXPECT_EQ(par.cuts, seq.cuts);
    EXPECT_EQ(par.phaseCuts, seq.phaseCuts);
    EXPECT_EQ(par.resumes, seq.resumes);
    EXPECT_EQ(par.coldBoots, seq.coldBoots);
    EXPECT_EQ(par.droppedWrites, seq.droppedWrites);
    EXPECT_EQ(par.tornWrites, seq.tornWrites);
    EXPECT_EQ(par.violationNotes, seq.violationNotes);
}

TEST(ParallelDeterminism, ImageCampaignDigestIsThreadInvariant)
{
    fault::CampaignConfig cfg;
    cfg.cuts = 16;
    cfg.seed = 9;

    cfg.threads = 1;
    const fault::CampaignResult seq = runSysPcCampaign(cfg);
    cfg.threads = 3;  // deliberately not a divisor of cuts
    const fault::CampaignResult par = runSysPcCampaign(cfg);

    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(par.digest, seq.digest);
    EXPECT_EQ(par.phaseCuts, seq.phaseCuts);
    EXPECT_EQ(par.resumes, seq.resumes);
}

TEST(ParallelDeterminism, CompoundCampaignDigestIsThreadInvariant)
{
    fault::CompoundConfig cfg;
    cfg.trials = 24;
    cfg.seed = 2026;

    cfg.threads = 1;
    const fault::CompoundResult seq = runCompoundCampaign(cfg);
    cfg.threads = 4;
    const fault::CompoundResult par = runCompoundCampaign(cfg);

    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(par.digest, seq.digest);
    EXPECT_EQ(par.trials, seq.trials);
    EXPECT_EQ(par.stopPhaseCuts, seq.stopPhaseCuts);
    EXPECT_EQ(par.goPhaseCuts, seq.goPhaseCuts);
    EXPECT_EQ(par.maxCutEpochs, seq.maxCutEpochs);
    EXPECT_EQ(par.violationNotes, seq.violationNotes);
}

TEST(ParallelDeterminism, RasCampaignDigestIsThreadInvariant)
{
    fault::RasCampaignConfig cfg;
    cfg.bers = {0.0, 1e-4};
    cfg.wearLevels = {0.0};
    cfg.seedsPerCell = 4;
    cfg.opsPerTrial = 300;
    cfg.seed = 3;

    cfg.threads = 1;
    const fault::RasCampaignResult seq = runRasCampaign(cfg);
    cfg.threads = 4;
    const fault::RasCampaignResult par = runRasCampaign(cfg);

    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(seq.sdcEvents, 0u);
    EXPECT_EQ(par.digest, seq.digest);
    EXPECT_EQ(par.trials, seq.trials);
    ASSERT_EQ(par.cells.size(), seq.cells.size());
    for (std::size_t c = 0; c < seq.cells.size(); ++c) {
        EXPECT_EQ(par.cells[c].policy, seq.cells[c].policy);
        EXPECT_EQ(par.cells[c].trials, seq.cells[c].trials);
        EXPECT_EQ(par.cells[c].checkedReads,
                  seq.cells[c].checkedReads);
        EXPECT_EQ(par.cells[c].correctedReads,
                  seq.cells[c].correctedReads);
        EXPECT_EQ(par.cells[c].linesRetired, seq.cells[c].linesRetired);
    }
}

TEST(ParallelDeterminism, ServiceSuiteMatchesSequentialRuns)
{
    std::vector<net::ServiceConfig> configs;
    for (const net::PersistMode mode :
         {net::PersistMode::SnG, net::PersistMode::SysPc}) {
        net::ServiceConfig cfg;
        cfg.mode = mode;
        cfg.runFor = 400 * tickMs;
        cfg.drainGrace = 2000 * tickMs;
        cfg.cuts = 1;
        cfg.offDwell = 50 * tickMs;
        cfg.fleet.clients = 200;
        cfg.fleet.arrivalsPerSec = 1000.0;
        cfg.seed = 17;
        configs.push_back(cfg);
    }

    const std::vector<net::ServiceResult> par =
        net::runServiceSuite(configs, 2);
    ASSERT_EQ(par.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const net::ServiceResult seq = net::runService(configs[i]);
        EXPECT_EQ(par[i].mode, configs[i].mode);
        EXPECT_EQ(par[i].digest, seq.digest)
            << net::persistModeName(configs[i].mode);
        EXPECT_EQ(par[i].completed, seq.completed);
        EXPECT_TRUE(par[i].violations.empty());
    }
}

// --- logging under concurrency -------------------------------------

TEST(ParallelLogging, ConcurrentWarnLinesNeverInterleave)
{
    // Redirect the sink, hammer it from 4 workers, and require every
    // captured line to be one intact message.
    std::ostringstream captured;
    std::streambuf *old = std::cerr.rdbuf(captured.rdbuf());

    constexpr std::uint64_t n = 400;
    ParallelExecutor pool(4);
    pool.forEach(n, [](std::uint64_t i) {
        warn("line-", i, "-interleave-probe");
    });

    std::cerr.rdbuf(old);

    std::istringstream in(captured.str());
    std::string line;
    std::vector<bool> seen(n, false);
    std::uint64_t lines = 0;
    const std::string prefix = "warn: line-";
    const std::string suffix = "-interleave-probe";
    while (std::getline(in, line)) {
        ++lines;
        ASSERT_GT(line.size(), prefix.size() + suffix.size())
            << "torn log line: '" << line << "'";
        ASSERT_EQ(line.substr(0, prefix.size()), prefix)
            << "torn log line: '" << line << "'";
        ASSERT_EQ(line.substr(line.size() - suffix.size()), suffix)
            << "torn log line: '" << line << "'";
        const std::string mid = line.substr(
            prefix.size(),
            line.size() - prefix.size() - suffix.size());
        ASSERT_FALSE(mid.empty());
        ASSERT_EQ(mid.find_first_not_of("0123456789"),
                  std::string::npos)
            << "torn log line: '" << line << "'";
        const std::uint64_t idx = std::stoull(mid);
        ASSERT_LT(idx, n);
        EXPECT_FALSE(seen[idx]) << "duplicated line " << idx;
        seen[idx] = true;
    }
    EXPECT_EQ(lines, n);
}

} // namespace
