/**
 * @file
 * Tests for the persistence baselines (SysPC, A-CheckPC, S-CheckPC).
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/persist_probe.hh"
#include "mem/backing_store.hh"
#include "mem/memory_port.hh"
#include "mem/timed_mem.hh"
#include "persist/checkpoint.hh"
#include "power/psu.hh"
#include "psm/psm.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::persist;

class FixedPort : public mem::MemoryPort
{
  public:
    explicit FixedPort(Tick latency) : latency(latency) {}

    mem::AccessResult
    access(const mem::MemRequest &, Tick when) override
    {
        mem::AccessResult result;
        result.completeAt = when + latency;
        return result;
    }

    Tick latency;
};

/** OC-PMEM behind the PSM, with a backing store that can be cut. */
struct PsmFabric
{
    mem::BackingStore store;
    psm::Psm psm;
    psm::PsmPort port{psm};
    mem::TimedMem pmem{port, &store};
};

TEST(SysPc, DumpTakesSecondsForGigabyteImages)
{
    FixedPort port(200 * tickNs);
    mem::TimedMem mem(port);
    ImageCheckpoint syspc(mem, sysPcKind);
    const std::uint64_t image = std::uint64_t(2) << 30;
    const Tick done = syspc.dump(0, image);
    // Fig. 20: orders of magnitude past any PSU hold-up time.
    EXPECT_GT(done, 100 * power::PsuModel::atx().spec().specHoldup);
    EXPECT_GT(ticksToSec(done), 1.0);
}

TEST(SysPc, LoadIsFasterThanDump)
{
    FixedPort port(100 * tickNs);
    mem::TimedMem mem(port);
    ImageCheckpoint syspc(mem, sysPcKind);
    const std::uint64_t image = std::uint64_t(1) << 30;
    EXPECT_LT(syspc.load(0, image), syspc.dump(0, image));
}

TEST(SCheckPc, PeriodicDumpsAccumulate)
{
    PsmFabric rig;
    ImageCheckpoint blcr(rig.pmem, sCheckPcKind);
    blcr.dumpCommitted(0, 1 << 20, 1);
    blcr.dumpCommitted(tickSec, 1 << 20, 2);
    EXPECT_EQ(blcr.latestCommit().seq, 2u);
}

TEST(SCheckPc, DumpScalesWithVmSize)
{
    FixedPort port(100 * tickNs);
    mem::TimedMem mem(port);
    ImageCheckpoint blcr(mem, sCheckPcKind);
    const Tick small = blcr.dump(0, 1 << 20);
    const Tick large = blcr.dump(0, 64 << 20);
    EXPECT_GT(large, 20 * small);
}

// --- Golden ticks on a real PSM fabric --------------------------------
//
// The fig19/20/21 benches and the power-cut and energy campaigns all
// ride on these paths; the values below pin every tick, address and
// per-page cost of the image baselines.

/** LegacyPC's system image in the fig20 and fig21 benches. */
constexpr std::uint64_t benchImageBytes = 3067940228ULL;

/** What one power-up recovery found. */
struct Recovered
{
    std::uint64_t seq = 0;  ///< 0 = cold boot from scratch
    Tick upAt = 0;          ///< power returns
    Tick doneAt = 0;        ///< recovery completes
};

/** Halfway through @p w's racing body. */
Tick
midBody(const fault::DumpWindows &w)
{
    return w.ac + (w.bodyDone - w.ac) / 2;
}

TEST(ImageGolden, TimingOnlyDumpAndLoadTicks)
{
    {
        PsmFabric rig;
        ImageCheckpoint syspc(rig.pmem, sysPcKind);
        const Tick dumped = syspc.dump(0, benchImageBytes);
        EXPECT_EQ(dumped, 4464093505000u);
        EXPECT_EQ(syspc.load(dumped, benchImageBytes),
                  8254078544375u);
    }
    {
        PsmFabric rig;
        ImageCheckpoint blcr(rig.pmem, sCheckPcKind);
        const Tick dumped = blcr.dump(0, benchImageBytes);
        EXPECT_EQ(dumped, 1655309755000u);
        EXPECT_EQ(blcr.load(dumped, benchImageBytes),
                  5445294794375u);
    }
}

/**
 * SysPC: a 4 MiB base image, AC loss 1 ms later, then a 48 MiB
 * hibernate dump racing a cut at @p cut (0 = no cut).
 */
Recovered
sysPcRecovery(Tick cut)
{
    PsmFabric rig;
    ImageCheckpoint syspc(rig.pmem, sysPcKind);
    const Tick ac = syspc.dumpCommitted(0, 4 << 20, 11) + tickMs;
    if (cut)
        rig.store.armPowerCut(cut, 5);
    const Tick done = syspc.dumpCommitted(ac, 48 << 20, 12);
    rig.store.disarmPowerCut();
    Recovered out;
    out.upAt = (cut ? cut : done) + 100 * tickMs;
    out.doneAt = syspc.recover(out.upAt);
    out.seq = syspc.recoveredSeq();
    return out;
}

TEST(ImageGolden, SysPcRecoverySkipsRebootWhenIntact)
{
    const Tick reboot = ImageCosts().coldReboot;
    const Recovered intact = sysPcRecovery(0);
    EXPECT_EQ(intact.seq, 2u);
    EXPECT_EQ(intact.doneAt, 249942430000u);
    EXPECT_LT(intact.doneAt - intact.upAt, reboot);

    const Recovered cut = sysPcRecovery(
        midBody(fault::imageWindows(fault::sysPcRun(true, 48 << 20))));
    EXPECT_EQ(cut.seq, 1u);
    EXPECT_EQ(cut.doneAt, 149556335000u);
    EXPECT_LT(cut.doneAt - cut.upAt, reboot);
}

/**
 * S-CheckPC: two committed 6 MiB dumps 50 ms apart, then a third
 * racing a cut at @p cut (0 = no cut).
 */
Recovered
sCheckPcRecovery(Tick cut)
{
    PsmFabric rig;
    ImageCheckpoint blcr(rig.pmem, sCheckPcKind);
    Tick ac = 0;
    for (std::uint64_t k = 0; k < 2; ++k)
        ac = blcr.dumpCommitted(ac, 6 << 20, 21 + k) + 50 * tickMs;
    if (cut)
        rig.store.armPowerCut(cut, 5);
    const Tick done = blcr.dumpCommitted(ac, 6 << 20, 23);
    rig.store.disarmPowerCut();
    Recovered out;
    out.upAt = (cut ? cut : done) + 100 * tickMs;
    out.doneAt = blcr.recover(out.upAt);
    out.seq = blcr.recoveredSeq();
    return out;
}

TEST(ImageGolden, SCheckPcRecoveryAlwaysPaysTheReboot)
{
    const Tick reboot = ImageCosts().coldReboot;
    const Recovered intact = sCheckPcRecovery(0);
    EXPECT_EQ(intact.seq, 3u);
    EXPECT_EQ(intact.doneAt, 1718956685000u);
    EXPECT_GT(intact.doneAt - intact.upAt, reboot);

    const Recovered cut = sCheckPcRecovery(midBody(fault::imageWindows(
        fault::sCheckPcRun(2, 6 << 20, 50 * tickMs))));
    EXPECT_EQ(cut.seq, 2u);
    EXPECT_EQ(cut.doneAt, 1717245790000u);
    EXPECT_GT(cut.doneAt - cut.upAt, reboot);
}

/** A-CheckPC capture @p k's body bytes (4-32 KB). */
std::uint64_t
aCheckBodyBytes(std::uint64_t k)
{
    return 4096 + (k * 2654435761ULL) % (28 << 10);
}

/**
 * A-CheckPC: 96 captures 20 us apart, racing a cut at @p cut (0 = no
 * cut). @p body_done and @p commit_at receive each capture's ticks.
 */
Recovered
aCheckPcRecovery(Tick cut, std::vector<Tick> &body_done,
                 std::vector<Tick> &commit_at)
{
    PsmFabric rig;
    ImageCheckpoint acheck(rig.pmem, aCheckPcKind);
    if (cut)
        rig.store.armPowerCut(cut, 5);
    body_done.assign(97, 0);
    commit_at.assign(97, 0);
    Tick t = 0;
    for (std::uint64_t k = 1; k <= 96; ++k) {
        t = acheck.dumpCommitted(t + 20 * tickUs, aCheckBodyBytes(k),
                                 30 + k);
        body_done[k] = acheck.lastBodyDoneAt();
        commit_at[k] = acheck.lastCommitAt();
    }
    rig.store.disarmPowerCut();
    Recovered out;
    out.upAt = (cut ? cut : t) + 100 * tickMs;
    out.doneAt = acheck.recover(out.upAt);
    out.seq = acheck.recoveredSeq();
    return out;
}

TEST(ImageGolden, ACheckPcRecoversTheNewestLandedCapture)
{
    const Tick reboot = ImageCosts().coldReboot;
    std::vector<Tick> body_done, commit_at;
    const Recovered intact = aCheckPcRecovery(0, body_done, commit_at);
    EXPECT_EQ(intact.seq, 96u);
    EXPECT_GT(intact.doneAt - intact.upAt, reboot);
    EXPECT_EQ(body_done[96], 6589025000u);
    EXPECT_EQ(commit_at[96], 6589040000u);
    EXPECT_EQ(commit_at[96],
              fault::aCheckPcLastCommit(96, 20 * tickUs));

    // Cut just before the last body is fenced.
    const Tick cut = body_done[96] - 1;
    EXPECT_EQ(aCheckPcRecovery(cut, body_done, commit_at).seq, 95u);
}

TEST(ImageGolden, DryRunWindows)
{
    const fault::DumpWindows syspc =
        fault::imageWindows(fault::sysPcRun(true, 48 << 20));
    EXPECT_EQ(syspc.ac, 7129455000u);
    EXPECT_EQ(syspc.bodyDone, 80391535000u);
    EXPECT_EQ(syspc.commitAt, 80391550000u);

    const fault::DumpWindows scheck =
        fault::imageWindows(fault::sCheckPcRun(2, 6 << 20, 50 * tickMs));
    EXPECT_EQ(scheck.ac, 106841950000u);
    EXPECT_EQ(scheck.bodyDone, 110262110000u);
    EXPECT_EQ(scheck.commitAt, 110262125000u);

    EXPECT_EQ(fault::aCheckPcLastCommit(96, 20 * tickUs), 6589040000u);
}

/** Pass-through stream of N ALU instructions. */
class AluStream : public cpu::InstrStream
{
  public:
    explicit AluStream(std::uint64_t n) : remaining(n) {}

    bool
    next(cpu::Instr &out) override
    {
        if (remaining == 0)
            return false;
        --remaining;
        out = {cpu::InstrKind::Alu, 0};
        return true;
    }

  private:
    std::uint64_t remaining;
};

TEST(ACheckPc, InsertsCheckpointCopies)
{
    AluStream inner(100000);
    ACheckPcParams params;
    params.meanFunctionInstr = 500;
    ACheckPcStream wrapped(inner, params);

    cpu::Instr instr;
    std::uint64_t total = 0, loads = 0, stores = 0;
    while (wrapped.next(instr)) {
        ++total;
        loads += instr.kind == cpu::InstrKind::Load;
        stores += instr.kind == cpu::InstrKind::Store;
    }
    // ~200 checkpoints of ~32 lines each: load+store pairs.
    EXPECT_GT(wrapped.checkpoints(), 100u);
    EXPECT_EQ(loads, stores);
    EXPECT_GT(loads, 1000u);
    EXPECT_GT(total, 100000u);
    EXPECT_EQ(wrapped.copiedBytes() / 64, loads);
}

TEST(ACheckPc, CopiesTargetDramAndPmemRegions)
{
    AluStream inner(50000);
    ACheckPcParams params;
    params.meanFunctionInstr = 200;
    ACheckPcStream wrapped(inner, params);
    cpu::Instr instr;
    while (wrapped.next(instr)) {
        if (instr.kind == cpu::InstrKind::Load) {
            EXPECT_GE(instr.addr, persist::ACheckPcParams::dramBase);
        }
        if (instr.kind == cpu::InstrKind::Store) {
            EXPECT_GE(instr.addr, persist::ACheckPcParams::pmemBase);
        }
    }
}

TEST(ACheckPc, PreservesInnerInstructionCount)
{
    AluStream inner(10000);
    ACheckPcParams params;
    ACheckPcStream wrapped(inner, params);
    cpu::Instr instr;
    std::uint64_t alu = 0;
    while (wrapped.next(instr))
        alu += instr.kind == cpu::InstrKind::Alu;
    EXPECT_EQ(alu, 10000u);
}

TEST(ACheckPc, CheckpointFrequencyFollowsMean)
{
    AluStream inner(200000);
    ACheckPcParams params;
    params.meanFunctionInstr = 1000;
    ACheckPcStream wrapped(inner, params);
    cpu::Instr instr;
    while (wrapped.next(instr)) {
    }
    EXPECT_NEAR(static_cast<double>(wrapped.checkpoints()), 200.0,
                60.0);
}

} // namespace
