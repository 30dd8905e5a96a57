/**
 * @file
 * Unit, integration, and property tests for Stop-and-Go.
 */

#include <gtest/gtest.h>

#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "pecos/scaling.hh"
#include "pecos/sng.hh"
#include "power/psu.hh"
#include "psm/psm.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::pecos;
using kernel::Kernel;
using kernel::KernelParams;
using kernel::TaskState;

struct SngRig
{
    explicit SngRig(bool busy = true, std::uint32_t cores = 8,
                    std::uint64_t seed = 11)
    {
        KernelParams params;
        params.busy = busy;
        params.cores = cores;
        params.seed = seed;
        kern = std::make_unique<Kernel>(params);
        psm = std::make_unique<psm::Psm>();
        sng = std::make_unique<Sng>(*kern, *psm, pmem,
                                    std::vector<cache::L1Cache *>{});
    }

    std::unique_ptr<Kernel> kern;
    std::unique_ptr<psm::Psm> psm;
    mem::BackingStore pmem;
    std::unique_ptr<Sng> sng;
};

TEST(Sng, StopParksEveryTask)
{
    SngRig rig;
    const auto report = rig.sng->stop(0);
    EXPECT_EQ(report.tasksParked, rig.kern->processCount());
    EXPECT_EQ(rig.kern->runnableCount(), 0u);
    for (const auto &proc : rig.kern->processes())
        EXPECT_EQ(proc->state(), TaskState::Uninterruptible);
}

TEST(Sng, StopSuspendsEveryDevice)
{
    SngRig rig;
    const auto report = rig.sng->stop(0);
    EXPECT_EQ(report.devicesSuspended, rig.kern->devices().count());
    EXPECT_TRUE(rig.kern->devices().allSuspended());
}

TEST(Sng, StopCommitsTheEpCut)
{
    SngRig rig;
    EXPECT_FALSE(rig.sng->hasCommit());
    rig.sng->stop(0);
    EXPECT_TRUE(rig.sng->hasCommit());
    // The persistent flag is cleared at the final stage.
    EXPECT_FALSE(rig.kern->persistentFlag());
}

TEST(Sng, BusyStopFitsAtxSpecHoldup)
{
    // Fig. 8: even fully utilized, Stop finishes inside the 16 ms
    // the ATX specification documents.
    SngRig rig(true);
    const auto report = rig.sng->stop(0);
    EXPECT_LE(report.totalTicks(),
              power::PsuModel::atx().spec().specHoldup);
    EXPECT_GE(report.totalTicks(), 6 * tickMs);  // not trivially fast
}

TEST(Sng, IdleStopIsFasterThanBusy)
{
    SngRig busy(true), idle(false);
    const auto busy_report = busy.sng->stop(0);
    const auto idle_report = idle.sng->stop(0);
    EXPECT_LT(idle_report.totalTicks(), busy_report.totalTicks());
}

TEST(Sng, DecompositionMatchesPaperShape)
{
    // Fig. 8b: process stop ~12%, device stop ~38%, offline ~50%.
    SngRig rig(true);
    const auto report = rig.sng->stop(0);
    const double total = static_cast<double>(report.totalTicks());
    const double process =
        static_cast<double>(report.processStopTicks()) / total;
    const double device =
        static_cast<double>(report.deviceStopTicks()) / total;
    const double offline =
        static_cast<double>(report.offlineTicks()) / total;
    EXPECT_NEAR(process, 0.12, 0.08);
    EXPECT_NEAR(device, 0.38, 0.12);
    EXPECT_NEAR(offline, 0.50, 0.12);
}

TEST(Sng, GoWithoutCommitIsColdBoot)
{
    SngRig rig;
    const auto report = rig.sng->resume(0);
    EXPECT_TRUE(report.coldBoot);
    EXPECT_EQ(report.devicesRevived, 0u);
}

TEST(Sng, GoRevivesDevicesAndTasks)
{
    SngRig rig;
    rig.sng->stop(0);
    const auto go = rig.sng->resume(100 * tickMs);
    EXPECT_FALSE(go.coldBoot);
    EXPECT_EQ(go.devicesRevived, rig.kern->devices().count());
    EXPECT_EQ(go.tasksScheduled, rig.kern->processCount());
    EXPECT_FALSE(rig.kern->devices().list()[0]->suspended());
    EXPECT_EQ(rig.kern->runnableCount(), rig.kern->processCount());
}

TEST(Sng, GoClearsCommit)
{
    SngRig rig;
    rig.sng->stop(0);
    rig.sng->resume(100 * tickMs);
    EXPECT_FALSE(rig.sng->hasCommit());
    // A second resume without a new Stop is a cold boot.
    EXPECT_TRUE(rig.sng->resume(200 * tickMs).coldBoot);
}

TEST(Sng, ArchitecturalStateSurvivesPowerCycle)
{
    SngRig rig;
    Rng rng(77);
    rig.kern->scramble(rng);
    const auto before = rig.kern->snapshot();

    rig.sng->stop(0);

    // Power loss: volatile copies rot; only OC-PMEM survives.
    Rng corrupt(1234);
    for (std::size_t i = 0; i < rig.kern->processCount(); ++i)
        rig.kern->process(i).regs().randomize(corrupt);

    rig.sng->resume(200 * tickMs);
    const auto after = rig.kern->snapshot();
    ASSERT_EQ(before.entries.size(), after.entries.size());
    for (std::size_t i = 0; i < before.entries.size(); ++i) {
        EXPECT_EQ(before.entries[i].pid, after.entries[i].pid);
        EXPECT_EQ(before.entries[i].regs, after.entries[i].regs)
            << "pid " << before.entries[i].pid;
    }
    EXPECT_EQ(before.deviceCookies, after.deviceCookies);
}

TEST(Sng, WearLevelerStateSurvivesPowerCycle)
{
    SngRig rig;
    // Churn the wear leveler, then power-cycle.
    mem::MemRequest req;
    req.op = mem::MemOp::Write;
    Tick t = 0;
    for (int i = 0; i < 1000; ++i) {
        req.addr = std::uint64_t(i) * 64;
        t = rig.psm->access(req, t).completeAt;
    }
    // SnG's own control-block writes advance the wear leveler, so
    // the authoritative state is the one captured at the EP-cut.
    rig.sng->stop(t);
    const auto before = rig.psm->saveWearState();
    EXPECT_GT(before.totalMoves, 0u);
    // Fresh PSM object: volatile registers gone.
    rig.psm = std::make_unique<psm::Psm>();
    rig.sng = std::make_unique<Sng>(*rig.kern, *rig.psm, rig.pmem,
                                    std::vector<cache::L1Cache *>{});
    rig.sng->resume(t + 100 * tickMs);
    const auto after = rig.psm->saveWearState();
    EXPECT_EQ(before.start, after.start);
    EXPECT_EQ(before.gap, after.gap);
    EXPECT_EQ(before.totalMoves, after.totalMoves);
}

TEST(Sng, RepeatedPowerCyclesStayConsistent)
{
    SngRig rig;
    Rng rng(5);
    Tick t = 0;
    for (int cycle = 0; cycle < 5; ++cycle) {
        rig.kern->scramble(rng);
        const auto before = rig.kern->snapshot();
        const auto stop = rig.sng->stop(t);
        const auto go = rig.sng->resume(stop.offlineDone + tickMs);
        EXPECT_FALSE(go.coldBoot);
        const auto after = rig.kern->snapshot();
        for (std::size_t i = 0; i < before.entries.size(); ++i)
            ASSERT_EQ(before.entries[i].regs, after.entries[i].regs);
        t = go.done + tickMs;
    }
}

TEST(Sng, MoreDirtyLinesLengthenOffline)
{
    SngRig small, large;
    small.sng->setFallbackDirtyLines(100);
    large.sng->setFallbackDirtyLines(100'000);
    EXPECT_GT(large.sng->stop(0).offlineTicks(),
              small.sng->stop(0).offlineTicks());
}

/**
 * Property sweep: random seeds and core counts always round-trip.
 *
 * gtest_discover_tests names each case by its raw bytes, so the case
 * has no implicit padding (whose contents are unspecified and would
 * change the names from build to build). `nameTag` fills that slot
 * and keeps every case under its established ctest name; the test
 * never reads it.
 */
struct SngCase
{
    std::uint32_t cores;
    bool busy;
    std::uint8_t nameTag;
    std::uint16_t reserved;
    std::uint64_t seed;
};
static_assert(sizeof(SngCase) == 16, "SngCase must have no padding");

class SngProperty : public ::testing::TestWithParam<SngCase>
{
};

TEST_P(SngProperty, PowerCycleRoundTrip)
{
    const SngCase c = GetParam();
    SngRig rig(c.busy, c.cores, c.seed);
    Rng rng(c.seed * 13 + 1);
    rig.kern->scramble(rng);
    const auto before = rig.kern->snapshot();

    const auto stop = rig.sng->stop(0);
    EXPECT_EQ(stop.tasksParked, rig.kern->processCount());

    Rng corrupt(c.seed * 31 + 7);
    for (std::size_t i = 0; i < rig.kern->processCount(); ++i)
        rig.kern->process(i).regs().randomize(corrupt);

    const auto go = rig.sng->resume(stop.offlineDone + tickMs);
    EXPECT_FALSE(go.coldBoot);
    const auto after = rig.kern->snapshot();
    for (std::size_t i = 0; i < before.entries.size(); ++i)
        ASSERT_EQ(before.entries[i].regs, after.entries[i].regs);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SngProperty,
    ::testing::Values(SngCase{1, true, 0x56, 0, 1},
                      SngCase{2, false, 0x56, 0, 2},
                      SngCase{4, true, 0x7F, 0, 3},
                      SngCase{8, false, 0x00, 0, 4},
                      SngCase{16, true, 0x00, 0, 5},
                      SngCase{32, true, 0x56, 0, 6},
                      SngCase{8, true, 0x00, 0, 7},
                      SngCase{64, true, 0x7F, 0, 8}));

TEST(SngScaling, WorstCaseGrowsWithCoresAndCache)
{
    const auto small = simulateWorstCaseStop(8, 16 * 1024 * 8);
    const auto more_cores = simulateWorstCaseStop(32, 16 * 1024 * 32);
    const auto more_cache =
        simulateWorstCaseStop(8, std::uint64_t(40) << 20);
    EXPECT_GT(more_cores.report.totalTicks(),
              small.report.totalTicks());
    EXPECT_GT(more_cache.report.totalTicks(),
              small.report.totalTicks());
}

TEST(SngScaling, PaperAnchorsHold)
{
    // Fig. 22: 64 cores + 40 MB fit the server budget (55 ms) but
    // not ATX (16 ms); 32 cores + 16 KB caches fit ATX.
    const Tick atx = power::PsuModel::atx().spec().specHoldup;
    const Tick server = 55 * tickMs;

    const auto big =
        simulateWorstCaseStop(64, std::uint64_t(40) << 20);
    EXPECT_TRUE(big.withinBudget(server));
    EXPECT_FALSE(big.withinBudget(atx));

    const auto mid = simulateWorstCaseStop(32, 16 * 1024 * 32 * 2);
    EXPECT_TRUE(mid.withinBudget(server));
}

} // namespace

namespace
{

TEST(Sng, MissedHoldupLeavesNoCommit)
{
    SngRig rig;
    const auto report = rig.sng->stop(0, /*holdup=*/1 * tickMs);
    EXPECT_TRUE(report.commitFailed);
    EXPECT_FALSE(rig.sng->hasCommit());
    // Recovery after the botched Stop is a cold boot.
    EXPECT_TRUE(rig.sng->resume(report.offlineDone + tickMs)
                    .coldBoot);
}

TEST(Sng, GenerousHoldupCommits)
{
    SngRig rig;
    const auto report = rig.sng->stop(0, 55 * tickMs);
    EXPECT_FALSE(report.commitFailed);
    EXPECT_TRUE(rig.sng->hasCommit());
}

TEST(Sng, AtxSpecHoldupIsSufficientForPrototype)
{
    // The paper's engineering target: the 8-core busy prototype
    // commits within the documented 16 ms even though the measured
    // ATX gives 22 ms.
    SngRig rig(true);
    const auto report =
        rig.sng->stop(0, power::PsuModel::atx().spec().specHoldup);
    EXPECT_FALSE(report.commitFailed);
    EXPECT_TRUE(rig.sng->hasCommit());
}

} // namespace
