/**
 * @file
 * Compound-failure engine: Stop/Go sub-phase cut classification, the
 * aborted-stop (brownout resume-in-place) path, resume idempotence
 * under torn Go, the recovery supervisor's convergence and livelock
 * escalation, and the campaign invariant check.
 */

#include <gtest/gtest.h>

#include "fault/compound.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "pecos/sng.hh"
#include "psm/psm.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using fault::RecoverySupervisor;
using fault::SupervisorConfig;
using fault::SupervisorOutcome;
using pecos::GoSubPhase;
using pecos::StopSubPhase;

struct Rig
{
    kernel::Kernel kern;
    psm::Psm psm;
    mem::BackingStore store;
    pecos::Sng sng{kern, psm, store, {}};
};

/** Deterministic dry-run Stop timeline (fresh rig, no cut). */
pecos::StopReport
dryStop()
{
    Rig rig;
    return rig.sng.stop(0);
}

// --- sub-phase classification --------------------------------------

TEST(StopSubPhases, BoundariesAreOrdered)
{
    const pecos::StopReport r = dryStop();
    EXPECT_LT(r.start, r.processStopDone);
    EXPECT_LT(r.processStopDone, r.ctxSaveDone);
    EXPECT_LT(r.ctxSaveDone, r.deviceStopDone);
    EXPECT_LT(r.deviceStopDone, r.workerOfflineDone);
    EXPECT_LE(r.workerOfflineDone, r.commitStart);
    EXPECT_LT(r.commitStart, r.commitAt);
    EXPECT_EQ(r.cutSubPhase, StopSubPhase::None);
}

TEST(StopSubPhases, CutIsClassifiedByDrainWindow)
{
    const pecos::StopReport dry = dryStop();
    const struct { Tick at; StopSubPhase want; } cases[] = {
        {dry.processStopDone / 2, StopSubPhase::DriveToIdle},
        {(dry.processStopDone + dry.ctxSaveDone) / 2,
         StopSubPhase::DeviceContextSave},
        {(dry.ctxSaveDone + dry.deviceStopDone) / 2,
         StopSubPhase::MasterCacheFlush},
        {(dry.deviceStopDone + dry.workerOfflineDone) / 2,
         StopSubPhase::WorkerOffline},
        {(dry.workerOfflineDone + dry.commitStart) / 2,
         StopSubPhase::BootloaderDump},
        {(dry.commitStart + dry.commitAt) / 2,
         StopSubPhase::CommitWindow},
        {dry.commitAt + 1000, StopSubPhase::PostCommit},
    };
    for (const auto &c : cases) {
        Rig rig;
        rig.store.armPowerCut(c.at, 1);
        const pecos::StopReport r = rig.sng.stop(0);
        EXPECT_EQ(r.cutSubPhase, c.want)
            << "cut at " << c.at << ": got "
            << pecos::stopSubPhaseName(r.cutSubPhase);
        // Durability matches the window: only cuts at or past the
        // commit completion leave the EP-cut durable.
        rig.store.disarmPowerCut();
        EXPECT_EQ(rig.sng.hasCommit(), r.commitAt < c.at);
    }
}

TEST(GoSubPhases, InterruptedMatchesCommitClearVsCut)
{
    // A cut one tick before the commit-clear completes tears the
    // resume; one tick after, the resume converged.
    Rig dry;
    dry.sng.stop(0);
    const pecos::GoReport clean = dry.sng.resume(1 * tickSec);
    ASSERT_FALSE(clean.coldBoot);
    EXPECT_EQ(clean.cutSubPhase, GoSubPhase::None);

    for (const Tick off : {Tick(0), Tick(1)}) {
        Rig rig;
        rig.sng.stop(0);
        rig.store.armPowerCut(clean.commitClearAt + off, 2);
        const pecos::GoReport r = rig.sng.resume(1 * tickSec);
        rig.store.disarmPowerCut();
        if (off == 0) {
            EXPECT_TRUE(r.interrupted);
            EXPECT_EQ(r.cutSubPhase, GoSubPhase::CommitClear);
            EXPECT_TRUE(rig.sng.hasCommit())
                << "a torn resume must leave the EP-cut valid";
        } else {
            EXPECT_FALSE(r.interrupted);
            EXPECT_EQ(r.cutSubPhase, GoSubPhase::Complete);
            EXPECT_FALSE(rig.sng.hasCommit());
        }
    }
}

// --- resume idempotence --------------------------------------------

TEST(GoIdempotence, TornResumeReplaysByteIdentical)
{
    // Reference: stop, scramble, resume once, uninterrupted.
    Rig ref;
    ref.sng.stop(0);
    Rng refScramble(77);
    ref.kern.scramble(refScramble);
    const pecos::GoReport clean = ref.sng.resume(1 * tickSec);
    const std::uint64_t want =
        fault::machineStateDigest(ref.kern, ref.store);

    // Trial: identical machine, resume torn mid device-restore, the
    // volatile side lost again, then the resume replayed.
    Rig rig;
    rig.sng.stop(0);
    Rng scramble(78);
    rig.kern.scramble(scramble);
    const Tick cut = (clean.coresUp + clean.devicesResumed) / 2;
    rig.store.armPowerCut(cut, 3);
    const pecos::GoReport torn = rig.sng.resume(1 * tickSec);
    rig.store.disarmPowerCut();
    ASSERT_TRUE(torn.interrupted);
    EXPECT_EQ(torn.cutSubPhase, GoSubPhase::DeviceRestore);
    ASSERT_TRUE(rig.sng.hasCommit());

    rig.kern.scramble(scramble);
    const pecos::GoReport redo = rig.sng.resume(2 * tickSec);
    EXPECT_FALSE(redo.coldBoot);
    EXPECT_FALSE(redo.interrupted);
    EXPECT_EQ(fault::machineStateDigest(rig.kern, rig.store), want);
}

TEST(GoIdempotence, DigestSeesVolatileCorruption)
{
    Rig rig;
    const std::uint64_t before =
        fault::machineStateDigest(rig.kern, rig.store);
    Rng rng(5);
    rig.kern.scramble(rng);
    EXPECT_NE(fault::machineStateDigest(rig.kern, rig.store), before);
}

// --- aborted stop (brownout recovered in place) --------------------

TEST(AbortStop, RevivesTheMachineWithoutReboot)
{
    Rig rig;
    const kernel::SystemSnapshot before = rig.kern.snapshot();
    const pecos::StopReport stop = rig.sng.stop(0);
    ASSERT_TRUE(rig.sng.hasCommit());
    ASSERT_EQ(rig.kern.devices().suspendedCount(),
              rig.kern.devices().count());

    const pecos::AbortReport abort =
        rig.sng.abortStop(stop.offlineDone + 1000);

    EXPECT_TRUE(abort.commitCleared);
    EXPECT_FALSE(rig.sng.hasCommit())
        << "a stale EP-cut would describe a state the continuing"
           " execution immediately diverges from";
    EXPECT_EQ(rig.kern.devices().suspendedCount(), 0u);
    EXPECT_EQ(abort.devicesRevived, stop.devicesSuspended);
    EXPECT_EQ(abort.tasksUnparked, stop.tasksParked);
    EXPECT_GT(abort.done, abort.start);

    // Registers and device cookies are untouched by the round trip.
    const kernel::SystemSnapshot after = rig.kern.snapshot();
    ASSERT_EQ(after.entries.size(), before.entries.size());
    for (std::size_t p = 0; p < after.entries.size(); ++p) {
        EXPECT_EQ(after.entries[p].pid, before.entries[p].pid);
        EXPECT_TRUE(after.entries[p].regs == before.entries[p].regs);
    }
    EXPECT_EQ(after.deviceCookies, before.deviceCookies);
}

TEST(AbortStop, MachineStillPersistsAfterwards)
{
    Rig rig;
    const pecos::StopReport s1 = rig.sng.stop(0);
    rig.sng.abortStop(s1.offlineDone + 1000);

    const kernel::SystemSnapshot mid = rig.kern.snapshot();
    const pecos::StopReport s2 = rig.sng.stop(1 * tickSec);
    Rng rng(9);
    rig.kern.scramble(rng);
    const pecos::GoReport go =
        rig.sng.resume(s2.offlineDone + 100 * tickMs);
    ASSERT_FALSE(go.coldBoot);

    const kernel::SystemSnapshot after = rig.kern.snapshot();
    ASSERT_EQ(after.entries.size(), mid.entries.size());
    for (std::size_t p = 0; p < after.entries.size(); ++p)
        EXPECT_TRUE(after.entries[p].regs == mid.entries[p].regs);
}

// --- recovery supervisor -------------------------------------------

TEST(Supervisor, ConvergesFirstTryWithoutCuts)
{
    Rig rig;
    rig.sng.stop(0);
    Rng rng(1);
    rig.kern.scramble(rng);
    RecoverySupervisor sup(rig.sng, rig.kern, rig.store);
    const SupervisorOutcome out =
        sup.supervise(100 * tickMs, {}, rng);
    EXPECT_FALSE(out.coldBoot);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.livelocks, 0u);
    EXPECT_FALSE(rig.store.powerCutArmed());
    // The never-fired watchdog must not poison the epoch floor.
    EXPECT_LT(rig.store.epochFloor(), 100 * tickMs);
}

TEST(Supervisor, RetriesThroughExternalCutsThenConverges)
{
    Rig rig;
    const kernel::SystemSnapshot before = rig.kern.snapshot();
    rig.sng.stop(0);
    Rng rng(2);
    rig.kern.scramble(rng);

    // Two cuts landing inside the first two resume attempts (a Go
    // takes a few ms; the capped backoff re-spaces each retry).
    const Tick start = 100 * tickMs;
    SupervisorConfig cfg;
    const std::vector<Tick> cuts = {
        start + tickMs,
        start + tickMs + SupervisorConfig::retryBackoff + tickMs,
    };
    RecoverySupervisor sup(rig.sng, rig.kern, rig.store, cfg);
    const SupervisorOutcome out = sup.supervise(start, cuts, rng);

    EXPECT_FALSE(out.coldBoot);
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(out.cutsConsumed, 2u);
    EXPECT_EQ(out.livelocks, 0u);

    const kernel::SystemSnapshot after = rig.kern.snapshot();
    for (std::size_t p = 0; p < after.entries.size(); ++p)
        EXPECT_TRUE(after.entries[p].regs == before.entries[p].regs);
}

TEST(Supervisor, ColdBootsWhenNothingIsDurable)
{
    Rig rig;  // never stopped: no commit
    Rng rng(3);
    RecoverySupervisor sup(rig.sng, rig.kern, rig.store);
    const SupervisorOutcome out =
        sup.supervise(100 * tickMs, {}, rng);
    EXPECT_TRUE(out.coldBoot);
    EXPECT_FALSE(out.degradedColdBoot);
    EXPECT_EQ(out.attempts, 1u);
}

TEST(Supervisor, EscalatesToDegradedColdBootAfterKLivelocks)
{
    Rig rig;
    rig.sng.stop(0);
    Rng rng(4);
    rig.kern.scramble(rng);

    // A deadline far below the real Go latency: every attempt hangs
    // past its watchdog and is reset. After K attempts the image is
    // invalidated and the machine boots cold — degraded but
    // converged.
    SupervisorConfig cfg;
    cfg.resumeDeadline = 10 * tickUs;
    cfg.maxAttempts = 3;
    RecoverySupervisor sup(rig.sng, rig.kern, rig.store, cfg);
    const SupervisorOutcome out =
        sup.supervise(100 * tickMs, {}, rng);

    EXPECT_TRUE(out.coldBoot);
    EXPECT_TRUE(out.degradedColdBoot);
    EXPECT_EQ(out.attempts, cfg.maxAttempts);
    EXPECT_EQ(out.livelocks, cfg.maxAttempts);
    EXPECT_EQ(out.cutsConsumed, 0u);
    EXPECT_FALSE(rig.sng.hasCommit())
        << "escalation must invalidate the livelocked image";
    EXPECT_FALSE(rig.store.powerCutArmed());
}

// --- campaign ------------------------------------------------------

TEST(CompoundCampaign, SmallRunHoldsEveryInvariant)
{
    fault::CompoundConfig cfg;
    cfg.trials = 48;
    cfg.seed = 7;
    const fault::CompoundResult r = fault::runCompoundCampaign(cfg);

    for (const std::string &note : r.violationNotes)
        ADD_FAILURE() << note;
    EXPECT_EQ(r.violations, 0u);
    EXPECT_EQ(r.trials, cfg.trials);
    EXPECT_EQ(r.stopCutTrials + r.goCutTrials + r.brownoutTrials
                  + r.stormTrials + r.oplogTrials,
              cfg.trials);
    EXPECT_GT(r.tornResumes, 0u);
    EXPECT_EQ(r.idempotenceChecks, r.goCutTrials);
    EXPECT_GE(r.maxCutEpochs, 3u);

    // The fifth rotation ran: every op-log trial proved both copies
    // replay byte-identical, and at least one scan hit a torn tail.
    EXPECT_GT(r.oplogTrials, 0u);
    EXPECT_EQ(r.oplogReplayChecks, r.oplogTrials);
    EXPECT_GT(r.oplogRecordsReplayed, 0u);
    EXPECT_GT(r.oplogTornTails, 0u);

    // Determinism: the same seed reproduces the same digest.
    const fault::CompoundResult again = fault::runCompoundCampaign(cfg);
    EXPECT_EQ(again.digest, r.digest);

    // A different seed moves it.
    cfg.seed = 8;
    const fault::CompoundResult moved = fault::runCompoundCampaign(cfg);
    EXPECT_NE(moved.digest, r.digest);
}

} // namespace
