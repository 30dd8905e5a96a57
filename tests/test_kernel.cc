/**
 * @file
 * Tests for the PecOS kernel substrate (processes, devices, kernel).
 */

#include <gtest/gtest.h>

#include "kernel/kernel.hh"

#include "mem/backing_store.hh"
#include "pecos/sng.hh"
#include "psm/psm.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::kernel;

TEST(Process, FootprintSumsVmAreas)
{
    Process proc(5, "test", false);
    proc.vmAreas().push_back({VmArea::Kind::Code, 0, 1000});
    proc.vmAreas().push_back({VmArea::Kind::Heap, 0, 2000});
    proc.vmAreas().push_back({VmArea::Kind::Stack, 0, 500});
    EXPECT_EQ(proc.footprintBytes(), 3500u);
    EXPECT_EQ(proc.stackHeapBytes(), 2500u);
}

TEST(Process, RegisterFileEquality)
{
    Rng rng(1);
    RegisterFile a;
    a.randomize(rng);
    RegisterFile b = a;
    EXPECT_EQ(a, b);
    b.pc ^= 1;
    EXPECT_FALSE(a == b);
}

TEST(DeviceManager, DefaultPopulationSize)
{
    const auto mgr = DeviceManager::makeDefault(300);
    EXPECT_EQ(mgr.count(), 300u);
    EXPECT_GT(mgr.totalContextBytes(), 0u);
    EXPECT_GT(mgr.totalMmioBytes(), 0u);
}

TEST(DeviceManager, WorstCaseIsSevenThirty)
{
    // Fig. 22: the maximum dpm_list population.
    EXPECT_EQ(DeviceManager::makeWorstCase().count(), 730u);
}

TEST(DeviceManager, CostsAreJitteredButBounded)
{
    const auto mgr = DeviceManager::makeDefault(200);
    for (const auto &dev : mgr.list()) {
        EXPECT_LE(dev->costs().totalSuspend(), 60 * tickUs);
        EXPECT_LE(dev->costs().totalResume(), 60 * tickUs);
    }
}

TEST(DeviceManager, SuspendTracking)
{
    auto mgr = DeviceManager::makeDefault(10);
    EXPECT_FALSE(mgr.allSuspended());
    for (const auto &dev : mgr.list())
        dev->setSuspended(true);
    EXPECT_TRUE(mgr.allSuspended());
}

TEST(Kernel, PopulationMatchesParams)
{
    KernelParams params;
    params.userProcesses = 72;
    params.kernelThreads = 48;
    Kernel kern(params);
    // init + 48 + 72 = 121 (the paper's ~120-process busy system).
    EXPECT_EQ(kern.processCount(), 121u);
}

TEST(Kernel, BusySystemHasWorkOnEveryCore)
{
    KernelParams params;
    params.busy = true;
    Kernel kern(params);
    for (std::uint32_t c = 0; c < kern.cores(); ++c)
        EXPECT_FALSE(kern.runQueue(c).empty());
    EXPECT_GT(kern.runnableCount(), kern.cores());
}

TEST(Kernel, IdleSystemMostlySleeps)
{
    KernelParams busy_params, idle_params;
    idle_params.busy = false;
    Kernel busy(busy_params), idle(idle_params);
    EXPECT_GT(idle.sleepingProcesses().size(),
              busy.sleepingProcesses().size());
    EXPECT_LT(idle.runnableCount(), busy.runnableCount());
}

TEST(Kernel, SystemImageIsGigabytesScale)
{
    Kernel kern;
    // SysPC's payload: all footprints + kernel, order 1-4 GB.
    EXPECT_GT(kern.systemImageBytes(), std::uint64_t(1) << 30);
    EXPECT_LT(kern.systemImageBytes(), std::uint64_t(8) << 30);
}

TEST(Kernel, SnapshotDetectsChanges)
{
    Kernel kern;
    const SystemSnapshot before = kern.snapshot();
    EXPECT_EQ(before, kern.snapshot());
    Rng rng(3);
    kern.scramble(rng);
    EXPECT_FALSE(before == kern.snapshot());
}

TEST(Kernel, ScrambleIsDeterministic)
{
    Kernel a, b;
    Rng ra(5), rb(5);
    a.scramble(ra);
    b.scramble(rb);
    EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(Kernel, PersistentFlagToggles)
{
    Kernel kern;
    EXPECT_FALSE(kern.persistentFlag());
    kern.setPersistentFlag(true);
    EXPECT_TRUE(kern.persistentFlag());
}

TEST(Kernel, KernelThreadsHaveNoUserSpace)
{
    Kernel kern;
    for (const auto &proc : kern.processes()) {
        if (proc->isKernelThread()) {
            EXPECT_LE(proc->footprintBytes(), 16u * 1024);
        }
    }
}

} // namespace

namespace
{

TEST(KernelLifecycle, SpawnAssignsFreshPidAndQueues)
{
    Kernel kern;
    const std::size_t before = kern.processCount();
    const std::size_t queued = kern.runnableCount();
    auto &proc = kern.spawnProcess("newtenant", false,
                                   TaskState::Runnable);
    EXPECT_EQ(kern.processCount(), before + 1);
    EXPECT_EQ(kern.runnableCount(), queued + 1);
    EXPECT_GT(proc.pid(), 1u);
    EXPECT_EQ(kern.findProcess(proc.pid()), &proc);
    EXPECT_GT(proc.footprintBytes(), 0u);
}

TEST(KernelLifecycle, SpawnSleepingStaysOffQueues)
{
    Kernel kern;
    const std::size_t queued = kern.runnableCount();
    kern.spawnProcess("sleeper", false, TaskState::Sleeping);
    EXPECT_EQ(kern.runnableCount(), queued);
}

TEST(KernelLifecycle, SpawnBalancesAcrossCores)
{
    KernelParams params;
    params.userProcesses = 0;
    params.kernelThreads = 0;
    Kernel kern(params);
    for (int i = 0; i < 16; ++i) {
        std::string name = "w";
        name += std::to_string(i);
        kern.spawnProcess(name, false, TaskState::Runnable);
    }
    for (std::uint32_t c = 0; c < kern.cores(); ++c)
        EXPECT_EQ(kern.runQueue(c).size(), 2u);
}

TEST(KernelLifecycle, ExitRemovesAndDequeues)
{
    Kernel kern;
    auto &proc = kern.spawnProcess("ephemeral", false,
                                   TaskState::Runnable);
    const std::uint32_t pid = proc.pid();
    const std::size_t queued = kern.runnableCount();
    EXPECT_TRUE(kern.exitProcess(pid));
    EXPECT_EQ(kern.runnableCount(), queued - 1);
    EXPECT_EQ(kern.findProcess(pid), nullptr);
    EXPECT_FALSE(kern.exitProcess(pid));  // already gone
}

TEST(KernelLifecycle, InitCannotExit)
{
    Kernel kern;
    EXPECT_THROW(kern.exitProcess(1), FatalError);
}

// --- DCB context round-trip ----------------------------------------

namespace
{

/**
 * A context provider that records when Auto-Stop and Go touch it, so
 * dpm ordering and image fidelity are both observable.
 */
struct RecordingContext : DeviceContext
{
    RecordingContext(std::vector<std::string> *journal_in,
                     std::string tag_in,
                     std::vector<std::uint8_t> bytes)
        : journal(journal_in), tag(std::move(tag_in)),
          state(std::move(bytes))
    {
    }

    void
    saveContext(std::vector<std::uint8_t> &out) override
    {
        journal->push_back("save:" + tag);
        out.insert(out.end(), state.begin(), state.end());
    }

    void
    restoreContext(const std::uint8_t *data, std::size_t len) override
    {
        journal->push_back("restore:" + tag);
        state.assign(data, data + len);
    }

    std::vector<std::string> *journal;
    std::string tag;
    std::vector<std::uint8_t> state;
};

} // namespace

TEST(DeviceContextDcb, NetworkRingImageRoundTripsThroughStopAndGo)
{
    Kernel kern;
    std::vector<std::string> journal;

    // Two Network-class drivers with real (distinct) ring images,
    // registered in dpm order: eth0 first, eth1 second.
    std::vector<std::uint8_t> ring0(96), ring1(64);
    for (std::size_t i = 0; i < ring0.size(); ++i)
        ring0[i] = static_cast<std::uint8_t>(0xa0 + i);
    for (std::size_t i = 0; i < ring1.size(); ++i)
        ring1[i] = static_cast<std::uint8_t>(0x30 + i * 3);
    RecordingContext ctx0(&journal, "eth0", ring0);
    RecordingContext ctx1(&journal, "eth1", ring1);

    DpmCosts costs{tickUs, tickUs, tickUs, tickUs, tickUs, tickUs};
    Device &dev0 = kern.devices().add(std::make_unique<Device>(
        "eth0", DeviceClass::Network, costs, ring0.size(), 4096));
    Device &dev1 = kern.devices().add(std::make_unique<Device>(
        "eth1", DeviceClass::Network, costs, ring1.size(), 4096));
    dev0.bindContext(&ctx0, ring0.size());
    dev1.bindContext(&ctx1, ring1.size());

    psm::Psm psm;
    mem::BackingStore pmem;
    pecos::Sng sng(kern, psm, pmem, {});

    const auto stop = sng.stop(0);
    ASSERT_FALSE(stop.commitFailed);
    EXPECT_EQ(stop.contextImagesSaved, 2u);
    EXPECT_TRUE(dev0.suspended());
    EXPECT_TRUE(dev1.suspended());

    // The DRAM copies die with the rails; only the DCB images in
    // OC-PMEM may come back.
    ctx0.state.assign(ring0.size(), 0xff);
    ctx1.state.assign(ring1.size(), 0xff);

    const auto go = sng.resume(stop.offlineDone + tickMs);
    EXPECT_FALSE(go.coldBoot);
    EXPECT_EQ(go.contextImagesRestored, 2u);
    EXPECT_FALSE(dev0.suspended());
    EXPECT_FALSE(dev1.suspended());

    // Byte-exact resurrection of both ring images.
    EXPECT_EQ(ctx0.state, ring0);
    EXPECT_EQ(ctx1.state, ring1);

    // dpm ordering: suspend in registration order, resume inverse.
    const std::vector<std::string> expected{
        "save:eth0", "save:eth1", "restore:eth1", "restore:eth0"};
    EXPECT_EQ(journal, expected);
}

TEST(KernelLifecycle, SngHandlesDynamicPopulation)
{
    // Spawn and exit around the default population, then verify a
    // full power cycle still round-trips every surviving PCB.
    Kernel kern;
    kern.spawnProcess("burst/0", false, TaskState::Runnable);
    auto &doomed =
        kern.spawnProcess("burst/1", false, TaskState::Sleeping);
    kern.spawnProcess("burst/2", true, TaskState::Runnable);
    kern.exitProcess(doomed.pid());

    psm::Psm psm;
    mem::BackingStore pmem;
    pecos::Sng sng(kern, psm, pmem, {});
    Rng rng(31);
    kern.scramble(rng);
    const auto before = kern.snapshot();
    const auto stop = sng.stop(0);
    EXPECT_EQ(stop.tasksParked, kern.processCount());
    const auto go = sng.resume(stop.offlineDone + tickMs);
    EXPECT_FALSE(go.coldBoot);
    const auto after = kern.snapshot();
    ASSERT_EQ(before.entries.size(), after.entries.size());
    for (std::size_t i = 0; i < before.entries.size(); ++i)
        EXPECT_EQ(before.entries[i].regs, after.entries[i].regs);
}

} // namespace
