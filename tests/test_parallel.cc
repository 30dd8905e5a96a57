/**
 * @file
 * Tests for the parallel campaign engine: ParallelExecutor coverage
 * and exception semantics, the grid runner every campaign folds
 * through (its index decoder and its fold), the determinism contract
 * (a campaign's digest is bit-identical at every thread count), and
 * the thread-safety of the shared logging sink.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/cluster_campaign.hh"
#include "fault/compound.hh"
#include "fault/ras_campaign.hh"
#include "net/service_plane.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "stats/counter_set.hh"
#include "stats/trial_grid.hh"

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
    EXPECT_EQ(seq.violations, 0u);

    for (const unsigned threads : {2u, 4u}) {
        SCOPED_TRACE(threads);
        cfg.threads = threads;
        const fault::CampaignResult par = runSngCampaign(cfg);
        EXPECT_EQ(par.digest, seq.digest);
        EXPECT_EQ(par.cuts, seq.cuts);
        EXPECT_EQ(par.phaseCuts, seq.phaseCuts);
        EXPECT_EQ(par.resumes, seq.resumes);
        EXPECT_EQ(par.coldBoots, seq.coldBoots);
        EXPECT_EQ(par.droppedWrites, seq.droppedWrites);
        EXPECT_EQ(par.tornWrites, seq.tornWrites);
        EXPECT_EQ(par.violationNotes, seq.violationNotes);
    }
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

    // The service bench's map: one run per mode on the trial pool.
    const std::vector<net::ServiceResult> par = stats::mapGrid(
        2, stats::TrialGrid<2>{{configs.size(), 1}},
        [&configs](std::uint64_t i) { return net::runService(configs[i]); });
    ASSERT_EQ(par.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const net::ServiceResult seq = net::runService(configs[i]);
        EXPECT_EQ(par[i].mode, configs[i].mode);
        EXPECT_EQ(par[i].digest, seq.digest)
            << net::persistModeName(configs[i].mode);
        EXPECT_EQ(par[i].fleet.completed, seq.fleet.completed);
        EXPECT_TRUE(par[i].violations.empty());
    }
}

// --- the grid runner -----------------------------------------------

/**
 * Every trial index of a @p a x @p b x @p c x @p seeds grid, counted
 * by nested loops (outermost axis first, seeds innermost), checked
 * against the shared decoder.
 */
void
expectNestOrder(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                std::uint64_t seeds)
{
    const stats::TrialGrid<4> grid{{a, b, c, seeds}};
    EXPECT_EQ(grid.cells(), a * b * c);
    EXPECT_EQ(grid.trials(), a * b * c * seeds);
    std::uint64_t i = 0;
    for (std::uint64_t x = 0; x < a; ++x)
        for (std::uint64_t y = 0; y < b; ++y)
            for (std::uint64_t z = 0; z < c; ++z)
                for (std::uint64_t s = 0; s < seeds; ++s, ++i) {
                    const std::array<std::uint64_t, 4> at{x, y, z, s};
                    EXPECT_EQ(grid.decode(i), at) << "trial " << i;
                    EXPECT_EQ(grid.cellOf(i), (x * b + y) * c + z);
                    const std::array<std::uint64_t, 4> cell{x, y, z, 0};
                    EXPECT_EQ(grid.cellAt(grid.cellOf(i)), cell);
                }
}

TEST(ParallelGrid, DecoderReproducesTheCampaignIndexOrders)
{
    // Cluster: replicas, intensity, mode, seed.
    expectNestOrder(2, 3, 5, 2);
    // Energy: scale, intensity, mode, seed.
    expectNestOrder(3, 2, 4, 3);
    // RAS: ber, wear, policy, seed.
    expectNestOrder(4, 3, 2, 5);

    // The cluster campaign's trial configs follow that order.
    fault::ClusterCampaignConfig cfg;
    cfg.replicaCounts = {3, 5};
    cfg.intensities = {1, 2, 3};
    cfg.modes = {net::PersistMode::SnG, net::PersistMode::SysPc};
    cfg.seedsPerCell = 2;
    std::uint64_t i = 0;
    for (const std::uint32_t replicas : cfg.replicaCounts)
        for (std::size_t k = 0; k < cfg.intensities.size(); ++k)
            for (const net::PersistMode mode : cfg.modes)
                for (std::uint64_t s = 0; s < cfg.seedsPerCell; ++s, ++i) {
                    const cluster::ClusterConfig cc =
                        fault::clusterTrialConfig(cfg, i);
                    EXPECT_EQ(cc.replicas, replicas) << "trial " << i;
                    EXPECT_EQ(cc.mode, mode) << "trial " << i;
                }
    EXPECT_EQ(i, fault::clusterCampaignTrials(cfg));
}

/** A synthetic trial result with one row per fold kind. */
struct GridTrial
{
    std::uint64_t trials = 0;
    std::uint64_t weight = 0;
    std::uint64_t peak = 0;
    double share = 0.0;
    std::uint64_t violations = 0;
    std::vector<std::string> violationNotes;
};

const stats::CounterSet<GridTrial> &
gridTrialCounters()
{
    using stats::counter;
    static const stats::CounterSet<GridTrial> set(
        counter<&GridTrial::trials>("trials"),
        counter<&GridTrial::weight>("weight"),
        counter<&GridTrial::peak>("peak", stats::Fold::Max),
        counter<&GridTrial::share>("share", stats::Fold::Mean,
                                   stats::Unit::Ratio),
        counter<&GridTrial::violations>("violations"));
    return set;
}

/** Trial @p i: every value a function of i; every fifth one flags. */
GridTrial
gridTrial(std::uint64_t i)
{
    GridTrial t;
    t.trials = 1;
    t.weight = i * i + 1;
    t.peak = (i * 7) % 11;
    t.share = 1.0 / static_cast<double>(i + 2);
    if (i % 5 == 2)
        stats::flagViolation(t, "flagged ", i);
    return t;
}

/** A 3 x 2 grid of 4 seeds run on @p threads workers. */
struct GridRun
{
    explicit GridRun(unsigned threads)
    {
        const stats::TrialGrid<3> grid{{3, 2, 4}};
        cells.resize(grid.cells());
        slots = stats::mapGrid(threads, grid, gridTrial);
        stats::foldGrid(gridTrialCounters(), grid, slots,
                        stats::GridFold{total, notes, &cells},
                        [&grid](std::uint64_t i) {
                            const auto [a, b, s] = grid.decode(i);
                            return stats::streamed("a", a, " b", b);
                        });
        total.finish();
    }

    std::vector<GridTrial> cells;
    stats::Folded<GridTrial> total{gridTrialCounters()};
    std::vector<std::string> notes;
    std::vector<GridTrial> slots;
};

TEST(ParallelGrid, FoldIsThreadInvariant)
{
    const GridRun one(1);
    const GridRun three(3);

    ASSERT_EQ(one.slots.size(), 24u);
    ASSERT_EQ(one.cells.size(), 6u);
    for (std::uint64_t i = 0; i < one.slots.size(); ++i)
        EXPECT_EQ(three.slots[i].weight, one.slots[i].weight);

    // Each cell folds its own four seeds: trials 4c .. 4c + 3.
    for (std::size_t c = 0; c < one.cells.size(); ++c) {
        std::uint64_t weight = 0;
        std::uint64_t peak = 0;
        for (std::uint64_t i = 4 * c; i < 4 * c + 4; ++i) {
            weight += i * i + 1;
            peak = std::max<std::uint64_t>(peak, (i * 7) % 11);
        }
        EXPECT_EQ(one.cells[c].trials, 4u) << "cell " << c;
        EXPECT_EQ(one.cells[c].weight, weight) << "cell " << c;
        EXPECT_EQ(one.cells[c].peak, peak) << "cell " << c;
        EXPECT_EQ(three.cells[c].trials, one.cells[c].trials);
        EXPECT_EQ(three.cells[c].weight, one.cells[c].weight);
        EXPECT_EQ(three.cells[c].peak, one.cells[c].peak);
        EXPECT_EQ(three.cells[c].share, one.cells[c].share);
        EXPECT_EQ(three.cells[c].violations, one.cells[c].violations);
        // A merged cell keeps no notes; the runner keeps them.
        EXPECT_TRUE(one.cells[c].violationNotes.empty());
    }

    // The total folds every trial; its mean is over all 24.
    EXPECT_EQ(one.total.trials, 24u);
    EXPECT_EQ(one.total["violations"], 5.0);
    EXPECT_EQ(three.total.values, one.total.values);

    const std::vector<std::string> notes = {
        "trial 2 [a0 b0]: flagged 2",   "trial 7 [a0 b1]: flagged 7",
        "trial 12 [a1 b1]: flagged 12", "trial 17 [a2 b0]: flagged 17",
        "trial 22 [a2 b1]: flagged 22",
    };
    EXPECT_EQ(one.notes, notes);
    EXPECT_EQ(three.notes, notes);
}

TEST(ParallelGrid, NotesAreCappedAcrossCells)
{
    // Three notes per trial, 30 trials over 5 cells: 90 notes, of
    // which the first maxViolationNotes are kept in index order.
    const stats::TrialGrid<2> grid{{5, 6}};
    std::vector<GridTrial> cells(grid.cells());
    GridTrial total;
    std::vector<std::string> notes;
    std::uint64_t labels = 0;
    stats::runGrid(
        gridTrialCounters(), 3, grid,
        [](std::uint64_t) {
            GridTrial t;
            for (const char *note : {"x", "y", "z"})
                stats::flagViolation(t, note);
            return t;
        },
        stats::GridFold{total, notes, &cells},
        [&grid, &labels](std::uint64_t i) {
            ++labels;
            return stats::streamed("cell ", grid.cellOf(i));
        });

    EXPECT_EQ(total.violations, 90u);
    for (const GridTrial &cell : cells)
        EXPECT_EQ(cell.violations, 18u);
    ASSERT_EQ(notes.size(), stats::maxViolationNotes);
    EXPECT_EQ(notes.front(), "trial 0 [cell 0]: x");
    EXPECT_EQ(notes[18], "trial 6 [cell 1]: x");
    EXPECT_EQ(notes.back(), "trial 21 [cell 3]: x");
    // Only kept notes are labelled.
    EXPECT_EQ(labels, stats::maxViolationNotes);
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
