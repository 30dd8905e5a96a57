/**
 * @file
 * Compound-failure engine: nested cuts, brownouts, cut storms, and a
 * recovery supervisor that converges.
 *
 * PR 2's campaigns inject exactly one clean cut per trial into steady
 * state. Real outages are messier — brownouts that sag and recover,
 * back-to-back cut storms spaced closer than one PSU hold-up, and
 * (worst of all) cuts that land *inside* the Stop drain or the Go
 * resume path, exactly where the recovery code itself is running.
 * This module provides:
 *
 *  - CutStorm: seeded schedule generator for Poisson cut storms with
 *    sub-hold-up spacing, plus per-sub-phase targeted cuts derived
 *    from a dry-run Stop/Go timeline.
 *  - RecoverySupervisor: a watchdog that replays boot -> resume until
 *    the Go converges (its commit-clear store lands), treats a
 *    resume overrunning its deadline as a livelock (the watchdog
 *    reset *is* a power cut at the deadline tick), retries torn
 *    resumes with capped exponential backoff, and escalates to a
 *    degraded cold boot after K failed attempts.
 *  - runCompoundCampaign(): seeded trials across five scenario
 *    classes — cut-during-Stop at every drain sub-phase,
 *    cut-during-Go with a double-resume idempotence proof,
 *    brownout-abort-and-continue (plus baseline capped-backoff
 *    retries), >= 3-cut Poisson storms against a single backing
 *    store (multi-cut-epoch durability), and op-log torn-tail
 *    recovery: a KvService on the op-log write path takes a cut
 *    mid-stream on a deliberately tiny (wrapping) log, and two
 *    independent recoveries of the same durable image must replay to
 *    byte-identical stores.
 *
 * The invariant is PR 2's, extended through recovery: at every cut
 * instant — including cuts into Stop's drain and Go's replay — the
 * machine either converges onto the durable EP-cut or cold-boots,
 * never a third outcome; and re-running a torn resume (or an op-log
 * replay) from the same durable image is byte-identical to running
 * it once.
 */

#ifndef LIGHTPC_FAULT_COMPOUND_HH
#define LIGHTPC_FAULT_COMPOUND_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "pecos/sng.hh"
#include "power/psu.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"
#include "stats/counter_set.hh"

namespace lightpc::fault
{

/** One replica's cut instant inside a correlated storm. */
struct ReplicaCut
{
    std::uint32_t replica = 0;
    Tick at = 0;
};

/**
 * One rack-correlated storm: every replica in the struck racks takes
 * a cut inside one window (shorter than a PSU hold-up, so the fleet
 * sees them as a single correlated event, not independent faults).
 */
struct CorrelatedStorm
{
    Tick startAt = 0;                  ///< window start
    std::vector<ReplicaCut> cuts;      ///< ascending by (at, replica)
    std::vector<std::uint32_t> racks;  ///< racks struck (ascending)
};

/**
 * Seeded cut-schedule generator.
 */
class CutStorm
{
  public:
    explicit CutStorm(std::uint64_t seed) : rng(seed) {}

    /**
     * A Poisson storm: @p count cut instants starting at or after
     * @p start, with exponentially distributed gaps of mean
     * @p mean_gap ticks (every gap at least one tick). With
     * mean_gap under the PSU hold-up, later cuts land inside the
     * recovery from earlier ones.
     */
    std::vector<Tick> poisson(Tick start, Tick mean_gap,
                              std::size_t count);

    /** Uniform tick in [lo, hi); lo itself when the window is empty. */
    Tick uniformIn(Tick lo, Tick hi);

    /**
     * Contiguous rack assignment: replica @p replica of @p replicas
     * lives in rack replica * racks / replicas. With 3 replicas over
     * 2 racks, rack 0 holds {0, 1} — the majority rack, so a
     * one-rack storm against it is already a quorum-threatening
     * event.
     */
    static std::uint32_t rackOf(std::uint32_t replica,
                                std::uint32_t replicas,
                                std::uint32_t racks);

    /**
     * Rack-correlated storm schedule: @p storms storm windows, their
     * starts spread evenly (with jitter) across [@p start, @p end).
     * Each storm strikes @p rack_span racks — the first storm always
     * rack 0 (where the bootstrap leader lives), later storms
     * rng-picked — and every replica in a struck rack takes one cut
     * at an rng instant inside [startAt, startAt + @p window). The
     * schedule is a pure function of the generator seed and the
     * arguments — never of who leads at run time — so the same
     * schedule can be replayed against every persistence mode.
     */
    std::vector<CorrelatedStorm> correlated(
        Tick start, Tick end, std::size_t storms,
        std::uint32_t replicas, std::uint32_t racks,
        std::uint32_t rack_span, Tick window);

    Rng &generator() { return rng; }

  private:
    Rng rng;
};

/** Watchdog policy. */
struct SupervisorConfig
{
    /**
     * Livelock deadline: a Go still running this long after its
     * attempt started is declared hung, and the watchdog resets the
     * machine — modeled as a power cut at exactly this tick, so the
     * convergence store (the commit-clear) cannot land.
     */
    Tick resumeDeadline = 2 * tickSec;

    /** K: failed resume attempts before the degraded cold boot. */
    std::uint32_t maxAttempts = 4;

    /** First retry delay after a torn/hung resume. */
    Tick retryBackoff = 50 * tickMs;

    /** Exponential backoff cap. */
    Tick backoffCap = 400 * tickMs;
};

/** What one supervised recovery did. */
struct SupervisorOutcome
{
    bool converged = false;  ///< a resume (warm or cold) completed
    bool coldBoot = false;   ///< converged via the cold path
    bool degradedColdBoot = false;  ///< escalated after K failures

    std::uint32_t attempts = 0;      ///< resume attempts driven
    std::uint64_t livelocks = 0;     ///< watchdog-reset attempts
    std::size_t cutsConsumed = 0;    ///< external cuts that fired
    std::uint64_t staleWritesSeen = 0;  ///< dead-epoch writes dropped

    Tick convergedAt = 0;
};

/**
 * Replays boot -> resume until convergence.
 *
 * Convergence is defined by the Go path's linearization point: the
 * atomic commit-clear store. An attempt whose clear landed before
 * any cut has converged; an attempt preempted by a cut (external or
 * the watchdog's own deadline reset) left the durable EP-cut intact,
 * so the supervisor scrambles the (lost) volatile state, waits out a
 * capped exponential backoff, and replays the resume from the same
 * image — which is idempotent, because everything before the clear
 * only reads OC-PMEM. After K failed attempts the supervisor
 * invalidates the image and boots cold (degraded, but converged).
 */
class RecoverySupervisor
{
  public:
    RecoverySupervisor(pecos::Sng &sng, kernel::Kernel &kern,
                       mem::BackingStore &pmem,
                       const SupervisorConfig &config = {})
        : sng(sng), kern(kern), pmem(pmem), cfg(config)
    {}

    const SupervisorConfig &config() const { return cfg; }

    /**
     * Supervise recovery starting at @p when. @p cuts are the
     * remaining external cut instants (ascending); whichever of the
     * next external cut and the watchdog deadline comes first is
     * armed against each attempt. @p rng drives volatile-loss
     * scrambles and torn-line seeds. The store must be disarmed at
     * entry; it is disarmed again on return.
     */
    SupervisorOutcome supervise(Tick when,
                                const std::vector<Tick> &cuts,
                                Rng &rng);

  private:
    pecos::Sng &sng;
    kernel::Kernel &kern;
    mem::BackingStore &pmem;
    SupervisorConfig cfg;
};

/**
 * Digest of the full machine state: every PCB (pid, task state,
 * register file), every device cookie, and the OC-PMEM contents.
 * Two machines with equal digests are byte-identical as far as
 * persistence is concerned — the idempotence proof compares these.
 */
std::uint64_t machineStateDigest(const kernel::Kernel &kern,
                                 const mem::BackingStore &pmem);

/** Compound-campaign knobs. */
struct CompoundConfig
{
    std::uint64_t trials = 500;
    std::uint64_t seed = 2026;

    power::PsuModel psu = power::PsuModel::atx();

    SupervisorConfig supervisor;

    /** Poisson storm: cuts per trial is 3 + below(stormExtraCuts+1). */
    std::uint32_t stormExtraCuts = 2;

    /** Storm mean gap as a fraction of the measured hold-up. */
    double stormGapFraction = 0.6;

    /**
     * Host threads fanning the trials out (0 = hardware
     * concurrency). Each trial owns its rigs, Rng stream, and storm
     * generator — all pure functions of (seed, trial index) — and
     * the partials merge in canonical index order, so the campaign
     * aggregate and digest are bit-identical at every thread count.
     */
    unsigned threads = 1;
};

/** Aggregated compound-campaign outcome. */
struct CompoundResult
{
    std::string psu;
    std::uint64_t trials = 0;

    // Scenario-class populations.
    std::uint64_t stopCutTrials = 0;
    std::uint64_t goCutTrials = 0;
    std::uint64_t brownoutTrials = 0;
    std::uint64_t stormTrials = 0;
    std::uint64_t oplogTrials = 0;

    /** Cuts per Stop drain sub-phase (indexed by StopSubPhase). */
    std::array<std::uint64_t, 8> stopPhaseCuts{};

    /** Cuts per Go sub-phase (indexed by GoSubPhase). */
    std::array<std::uint64_t, 7> goPhaseCuts{};

    // Recovery outcomes.
    std::uint64_t resumes = 0;
    std::uint64_t coldBoots = 0;
    std::uint64_t degradedColdBoots = 0;
    std::uint64_t supervisorRetries = 0;
    std::uint64_t livelocks = 0;

    // Brownouts.
    std::uint64_t abortedStops = 0;      ///< sag recovered: in-place
    std::uint64_t abortContinues = 0;    ///< post-abort cycle survived
    std::uint64_t baselineRetries = 0;   ///< capped-backoff dump retries
    std::uint64_t baselineRecoveries = 0;

    // Go-path idempotence.
    std::uint64_t tornResumes = 0;
    std::uint64_t idempotenceChecks = 0;

    // Op-log torn-tail recovery.
    std::uint64_t oplogTornTails = 0;     ///< scans stopped by a tear
    std::uint64_t oplogReplayChecks = 0;  ///< byte-identity proofs run
    std::uint64_t oplogRecordsReplayed = 0;

    // Multi-epoch durability.
    std::uint64_t stormCutsTotal = 0;
    std::uint64_t maxCutEpochs = 0;      ///< most epochs on one store
    std::uint64_t staleWritesRejected = 0;

    // Cursor traffic.
    std::uint64_t droppedWrites = 0;
    std::uint64_t tornWrites = 0;

    /** Invariant violations (must stay zero). */
    std::uint64_t violations = 0;
    std::vector<std::string> violationNotes;

    /** FNV digest over every compoundCounters() row (determinism
     *  anchor). */
    std::uint64_t digest = 0;

    std::uint64_t
    stopPhaseCount(pecos::StopSubPhase phase) const
    {
        return stopPhaseCuts[static_cast<std::size_t>(phase)];
    }

    std::uint64_t
    goPhaseCount(pecos::GoSubPhase phase) const
    {
        return goPhaseCuts[static_cast<std::size_t>(phase)];
    }
};

/** The counter table of CompoundResult, in digest and JSON order. */
const stats::CounterSet<CompoundResult> &compoundCounters();

/** Run one seeded compound campaign. */
CompoundResult runCompoundCampaign(const CompoundConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_COMPOUND_HH
