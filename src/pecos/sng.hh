/**
 * @file
 * Stop-and-Go: PecOS's single execution persistence cut (Sections
 * III-B and IV).
 *
 * Stop runs in two phases when a power-event interrupt fires:
 *
 *  - Drive-to-Idle: the interrupted core becomes master, sets the
 *    system-wide persistent flag, and walks every PCB from init.
 *    User tasks get a fake signal (TIF_SIGPENDING) so they drain
 *    their kernel-mode work; sleepers are woken and spread over the
 *    workers (IPIs) in a load-balanced way, driven through pending
 *    work, then context-switched out TASK_UNINTERRUPTIBLE and
 *    removed from the run queues. No cache flush or fence happens in
 *    this phase.
 *
 *  - Auto-Stop: the master suspends every dpm_list driver in order
 *    (prepare / suspend / suspend_noirq), writes DCBs and MMIO
 *    copies to OC-PMEM, then offlines the cores: kernel task/stack
 *    pointers are cleaned, each worker dumps its caches and reports,
 *    and the master finally traps into the bootloader to dump the
 *    kernel-invisible registers and the wear-leveler state into the
 *    BCB, record the MEPC, clear the persistent flag, and store the
 *    commit — the EP-cut.
 *
 * Go mirrors it on power recovery: check the commit, restore the
 * BCB, power the workers up one by one, resume drivers in inverse
 * dpm order, restore MMIO regions, flush TLBs, and reschedule kernel
 * then user tasks by flipping TASK_UNINTERRUPTIBLE back to normal.
 */

#ifndef LIGHTPC_PECOS_SNG_HH
#define LIGHTPC_PECOS_SNG_HH

#include <cstdint>
#include <vector>

#include "cache/l1_cache.hh"
#include "kernel/kernel.hh"
#include "mem/timed_mem.hh"
#include "pecos/layout.hh"
#include "psm/psm.hh"
#include "sim/ticks.hh"

namespace lightpc::pecos
{

/** Per-operation costs of the SnG implementation paths. */
struct SngCosts
{
    // Drive-to-Idle.
    Tick setPersistentFlag = 500;            ///< atomic flag, 0.5 us
    Tick pcbWalkPerTask = 2 * tickUs;        ///< master PCB traversal
    Tick ipi = 2 * tickUs;                   ///< IPI delivery
    Tick fakeSignal = 14 * tickUs;           ///< signal + entry.S path
    Tick pendingWorkItem = 38 * tickUs;      ///< drain one work item
    Tick contextSwitch = 10 * tickUs;        ///< switch out + PCB store
    Tick parkTask = 5 * tickUs;              ///< dequeue + state change
    Tick idlePlacement = 3 * tickUs;         ///< idle task per core
    Tick barrier = 2 * tickUs;               ///< core synchronization

    // Auto-Stop.
    Tick mmioReadPer64B = 40 * tickNs;       ///< uncached MMIO copy
    Tick cleanPointersPerCore = 2 * tickUs;  ///< cpu_up_task/stack ptr
    Tick perWorkerOffline = 45 * tickUs;     ///< IPI+suspend handshake
    Tick masterBootloaderConst = 4300 * tickUs;  ///< uncached
        ///< bootloader execution: exception, register dump, commit

    // Go.
    Tick commitCheck = 150 * tickUs;         ///< bootloader boot path
    Tick bcbRestore = 400 * tickUs;          ///< registers + wear state
    Tick powerUpWorker = 120 * tickUs;       ///< per-core bring-up
    Tick tlbFlushPerCore = 15 * tickUs;
    Tick scheduleTask = 10 * tickUs;         ///< wait-queue -> run queue

    /**
     * dpm_suspend() quiesce scaling when the system is busy
     * (outstanding I/O to stop) vs idle.
     */
    double busyQuiesceFactor = 1.0;
    double idleQuiesceFactor = 0.78;
};

/**
 * The drain sub-phase a power cut landed in. Campaigns assert
 * per-phase coverage from this enum instead of re-deriving it from
 * report timestamps (which drift whenever a cost changes).
 */
enum class StopSubPhase : std::uint8_t
{
    None,               ///< no cut armed during the Stop
    DriveToIdle,        ///< parking tasks, PCB walk
    DeviceContextSave,  ///< dpm suspend + DCB/MMIO serialization
    MasterCacheFlush,   ///< the master's dirty-line dump
    WorkerOffline,      ///< per-worker IPI + cache dump + offline
    BootloaderDump,     ///< BCB body + register dump + fence
    CommitWindow,       ///< the atomic commit store itself
    PostCommit,         ///< cut landed after the commit completed
};

const char *stopSubPhaseName(StopSubPhase phase);

/** The Go sub-phase a power cut landed in. */
enum class GoSubPhase : std::uint8_t
{
    None,           ///< no cut armed during the Go
    BcbRestore,     ///< commit check + BCB/wear-state reload
    CoreBringup,    ///< per-worker power-up
    DeviceRestore,  ///< inverse-dpm revive + context/MMIO reads
    ProcessThaw,    ///< PCB restore + reschedule + TLB flush
    CommitClear,    ///< the final atomic commit-clear store
    Complete,       ///< cut landed after the resume completed
};

const char *goSubPhaseName(GoSubPhase phase);

class EnergyGuard;

/** Decomposed Stop latency (Fig. 8b). */
struct StopReport
{
    Tick start = 0;
    Tick processStopDone = 0;  ///< Drive-to-Idle complete
    Tick ctxSaveDone = 0;      ///< dpm suspend + DCB/MMIO serialized
    Tick deviceStopDone = 0;   ///< device stop incl. master flush
    Tick workerOfflineDone = 0;  ///< every worker dumped + offline
    Tick commitStart = 0;      ///< issue tick of the commit store
    Tick offlineDone = 0;      ///< EP-cut committed

    /**
     * Completion tick of the final commit store (the atomic BCB
     * magic write, issued after everything else is fenced). The
     * EP-cut is durable iff this precedes the power-cut tick.
     */
    Tick commitAt = 0;

    /** The armed power-cut tick, maxTick when no cut was armed. */
    Tick cutTick = maxTick;

    /** Which drain sub-phase was in flight at cutTick. */
    StopSubPhase cutSubPhase = StopSubPhase::None;

    /**
     * The power rails fell out of specification before the commit
     * landed: no EP-cut exists and the next boot is cold. Set when
     * stop() is given a hold-up deadline it cannot meet, or when an
     * externally-armed power cut preempted the commit.
     */
    bool commitFailed = false;

    /**
     * The bound EnergyGuard deferred this voluntary Stop: the
     * storage plane could not carry the worst-case drain to the
     * commit. Nothing was mutated — retry at retryAt, after the
     * charger has closed the shortfall.
     */
    bool deferred = false;

    /** Earliest sensible retry tick for a deferred Stop. */
    Tick retryAt = 0;

    /** Plane state of charge at admission (1.0 when unguarded). */
    double socAtStop = 1.0;

    /** Durability-cursor outcomes while the cut was armed. */
    std::uint64_t writesDropped = 0;
    std::uint64_t writesTorn = 0;

    std::uint64_t tasksParked = 0;
    std::uint64_t devicesSuspended = 0;
    std::uint64_t dirtyLinesFlushed = 0;
    std::uint64_t controlBlockBytes = 0;

    /** Devices whose bound DeviceContext was serialized for real. */
    std::uint64_t contextImagesSaved = 0;

    Tick processStopTicks() const { return processStopDone - start; }
    Tick
    deviceStopTicks() const
    {
        return deviceStopDone - processStopDone;
    }
    Tick offlineTicks() const { return offlineDone - deviceStopDone; }
    Tick totalTicks() const { return offlineDone - start; }
};

/** Go latency decomposition. */
struct GoReport
{
    Tick start = 0;
    Tick bcbRestored = 0;
    Tick coresUp = 0;
    Tick devicesResumed = 0;
    Tick thawDone = 0;      ///< PCBs restored, queues rebuilt, TLBs
    Tick done = 0;

    /**
     * Completion tick of the final commit-clear store (an atomic
     * 8-byte write, the resume's linearization point). The resume
     * *converged* iff this beat any armed power cut; a torn resume
     * leaves the commit in place, so re-running Go from the same
     * durable image is always legal.
     */
    Tick commitClearAt = 0;

    /** The armed power-cut tick, maxTick when no cut was armed. */
    Tick cutTick = maxTick;

    /** Which Go sub-phase was in flight at cutTick. */
    GoSubPhase cutSubPhase = GoSubPhase::None;

    /**
     * A power cut preempted the commit-clear: the machine died
     * mid-resume and the durable EP-cut is still valid. The next
     * boot must re-run Go from that image (idempotent).
     */
    bool interrupted = false;

    bool coldBoot = false;  ///< no commit found
    std::uint64_t devicesRevived = 0;
    std::uint64_t tasksScheduled = 0;

    /** Devices whose DCB image was handed back to a DeviceContext. */
    std::uint64_t contextImagesRestored = 0;

    /** First byte of the device payload region Go read back. */
    mem::Addr payloadBase = 0;
    /** One past the last payload byte (context + MMIO images). */
    mem::Addr payloadEnd = 0;
    /** Device context + MMIO bytes actually read from OC-PMEM. */
    std::uint64_t payloadBytesRead = 0;

    Tick totalTicks() const { return done - start; }
};

/**
 * What an aborted Stop did (brownout recovered before the hold-up
 * floor, so the machine resumes in place instead of cutting power).
 */
struct AbortReport
{
    Tick start = 0;
    Tick devicesResumed = 0;
    Tick done = 0;

    std::uint64_t devicesRevived = 0;
    std::uint64_t tasksUnparked = 0;

    /** A landed EP-cut was invalidated (it described a state the
     *  resumed execution immediately diverges from). */
    bool commitCleared = false;

    Tick totalTicks() const { return done - start; }
};

/**
 * The Stop-and-Go engine bound to one platform.
 */
class Sng
{
  public:
    /**
     * @param kernel  The PecOS kernel state to stop/resume.
     * @param psm     OC-PMEM controller (flush port, wear state).
     * @param pmem    Functional OC-PMEM contents (control blocks).
     * @param caches  The live per-core caches to dump (may be empty;
     *                then @p fallback_dirty_lines is used per core).
     */
    Sng(kernel::Kernel &kernel, psm::Psm &psm,
        mem::BackingStore &pmem, std::vector<cache::L1Cache *> caches,
        const SngCosts &costs = SngCosts());

    const SngCosts &costs() const { return _costs; }

    /** Dirty lines assumed per core when no cache model is bound. */
    void setFallbackDirtyLines(std::uint64_t lines)
    {
        fallbackDirtyLines = lines;
    }

    /**
     * Stop: produce the EP-cut. Mutates the kernel (all tasks
     * parked, devices suspended) and OC-PMEM (BCB/PCB/DCB written,
     * commit stored).
     *
     * @param when    The power-event interrupt tick.
     * @param holdup  How long the PSU keeps the rails alive after
     *                @p when. If Stop cannot finish in time, the
     *                commit never lands (report.commitFailed) and
     *                the next resume() is a cold boot — exactly the
     *                failure mode Fig. 22 budgets against. The
     *                deadline is enforced through the backing
     *                store's durability cursor, so *nothing* written
     *                after the cut tick persists (not just the
     *                commit magic). When the caller has already
     *                armed a power cut on the store (a fault
     *                campaign's BackingStore::armPowerCut), that
     *                cut is honored instead.
     */
    StopReport stop(Tick when, Tick holdup = maxTick);

    /**
     * Bind the state-of-charge admission guard consulted by
     * stopVoluntary(). Pass nullptr to unbind. The guard holds a
     * reference to the live storage plane; the caller keeps both
     * alive for the binding's lifetime. stop() — the emergency path
     * a real power event takes — never consults it.
     */
    void bindEnergyGuard(const EnergyGuard *guard) { _guard = guard; }

    /**
     * A *voluntary* Stop (planned power-down, fleet persistence
     * point): consult the bound EnergyGuard first. When the plane
     * cannot carry the worst-case drain to the commit, the Stop is
     * deferred — the report comes back with deferred set, retryAt
     * hinting when the charger will have closed the shortfall, and
     * the kernel untouched. With no guard bound this is exactly
     * stop().
     */
    StopReport stopVoluntary(Tick when, Tick holdup = maxTick);

    /**
     * Go: power-recovery path. Restores PCB register state from
     * OC-PMEM (so any volatile-side corruption after the EP-cut is
     * healed), revives devices in inverse dpm order, and reschedules
     * every parked task.
     */
    GoReport resume(Tick when);

    /**
     * Abort an in-flight Stop: the mains sag recovered before the
     * PSU's hold-up floor, so power never actually fails. The
     * machine resumes *in place* from its intact volatile state — no
     * reboot, no OC-PMEM context reads: devices revive in inverse
     * dpm order from their live driver state, parked tasks flip
     * straight back onto their run queues, and any EP-cut commit the
     * Stop already drew is invalidated (execution is about to
     * diverge from the image it describes).
     */
    AbortReport abortStop(Tick when);

    /** True when OC-PMEM holds a committed EP-cut. */
    bool hasCommit() const;

    /**
     * Invalidate the durable EP-cut at @p when (one atomic store):
     * the next boot without a fresh commit is cold. The degraded
     * escalation path of a recovery supervisor, and the tail of an
     * aborted Stop.
     */
    void invalidateCommit(Tick when);

  private:
    Tick driveToIdle(Tick when, StopReport &report);
    Tick autoStopDevices(Tick when, StopReport &report);
    Tick drawEpCut(Tick when, StopReport &report);

    kernel::Kernel &kern;
    psm::Psm &psm;
    mem::BackingStore &pmem;
    std::vector<cache::L1Cache *> caches;
    SngCosts _costs;
    ReservedLayout layout;
    psm::PsmPort port;
    mem::TimedMem timed;
    std::uint64_t fallbackDirtyLines = 200;
    const EnergyGuard *_guard = nullptr;

    /** Scratch buffer for DeviceContext images (reused per device). */
    std::vector<std::uint8_t> ctxScratch;
};

} // namespace lightpc::pecos

#endif // LIGHTPC_PECOS_SNG_HH
