/**
 * @file
 * One LightPC KV server: the machine both serving planes run.
 *
 * A Machine owns a full platform::System (kernel, dpm devices,
 * PSM-backed OC-PMEM), the NIC it registers in the dpm_list, a
 * KvService over a persistent ObjectPool and the checkpoint
 * baselines' image engine; a power event arms a cut on the
 * platform's OC-PMEM store at the end of the hold-up. It runs the
 * serving pump (RX admit -> execute -> TX drain) and the op-log
 * group-commit and drain timers on the caller's event queue, and it
 * carries the per-mode persistence mechanics of a power event:
 *
 *  - SnG        — PecOS Stop inside the PSU hold-up, Go on restore;
 *                 the NIC rings ride the DCB through the outage.
 *  - OpLog      — an emergency group commit, then the same Stop/Go.
 *  - SysPc      — a hibernate image that cannot beat the hold-up,
 *                 then a cold boot.
 *  - SCheckPc   — cold boot from the last periodic dump.
 *  - ACheckPc   — cold boot (per-request checkpoints on the pool).
 *
 * What a plane does *around* the machine — when cuts land, when the
 * S-CheckPC dump runs, what a recovery re-arms, how clients route —
 * stays in the plane (net::runService, cluster::runCluster). A plane
 * joins the serving path at the few seams of MachineHost.
 */

#ifndef LIGHTPC_NET_MACHINE_HH
#define LIGHTPC_NET_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/client_fleet.hh"
#include "net/kv_service.hh"
#include "net/nic.hh"
#include "net/rpc.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace lightpc
{
class EventQueue;
namespace mem { class TimedMem; }
namespace persist { class ImageCheckpoint; }
namespace platform { class System; }
} // namespace lightpc

namespace lightpc::net
{

/** Which persistence mechanism carries the service through outages. */
enum class PersistMode
{
    SnG,       ///< PecOS Stop-and-Go (LightPC)
    SysPc,     ///< full-system image at power-down
    SCheckPc,  ///< periodic system-level checkpoint (BLCR-style)
    ACheckPc,  ///< per-request application-level checkpoint
    OpLog,     ///< SnG + persistent op-log write path (group commit)
};

/** Display name. */
const char *persistModeName(PersistMode mode);

/**
 * The knobs of one server machine; both plane configs inherit them.
 * The static members are constants both planes and the machine read.
 */
struct MachineParams
{
    /** AC-off dwell between the power event and restoration. */
    Tick offDwell = 100 * tickMs;

    /** PSU hold-up: rails stay in spec this long past the event. */
    Tick holdup = 16 * tickMs;

    /** One-way client <-> server propagation. */
    static constexpr Tick wireLatency = 20 * tickUs;

    /** Server-side deadline granted to each attempt. */
    static constexpr Tick requestDeadline = 250 * tickMs;

    /** S-CheckPC: period of the periodic dump. */
    static constexpr Tick scheckPeriod = 100 * tickMs;

    /**
     * OpLog mode: group-commit cadence. A commit fires when either
     * this many records are waiting or the interval elapses since
     * the first deferred ack of the batch — amortizing the tail
     * persist + fence across the batch while bounding ack latency.
     */
    static constexpr Tick oplogCommitInterval = 25 * tickUs;
    static constexpr std::uint32_t oplogCommitRecords = 16;

    /** OpLog mode: records the background drain applies per batch. */
    static constexpr std::uint32_t oplogDrainBatch = 32;

    /** Kernel population behind the service. */
    std::uint32_t userProcesses = 24;
    std::uint32_t kernelThreads = 16;
    std::size_t deviceCount = 60;

    FleetParams fleet;
    KvParams kv;
    NicParams nic;
};

/**
 * Reject degenerate machine knobs (a zero-client fleet, a
 * zero-capacity ring that can never carry a frame, ...) and a zero
 * run length. @p who prefixes the message (the plane's config name).
 */
void validateMachineParams(const MachineParams &params, Tick run_for,
                           const char *who);

/** The client fleet of a run seeded @p seed. */
FleetParams fleetParamsFor(const MachineParams &params,
                           std::uint64_t seed);

class Machine;

/**
 * Where a plane joins a machine's serving path. The machine calls
 * these directly; nothing is allocated per event.
 */
class MachineHost
{
  public:
    /** @p resp reached its client, one wire latency after TX. */
    virtual void deliverResponse(const RpcResponse &resp) = 0;

    /**
     * Serve one dequeued PUT, advancing @p t past its cost. @return
     * true when @p resp leaves at service completion, false when the
     * host acknowledges the PUT later. Default: execute it locally.
     */
    virtual bool servePut(Machine &m, const RpcRequest &req, Tick &t,
                          RpcResponse &resp);

    /**
     * The op log's appended records became durable at @p t; state
     * that must persist only after them persists here.
     */
    virtual void logDurable(Machine &, Tick &) {}

    /** RpcResponse::leaderHint stamped on what @p m produces. */
    virtual std::uint32_t leaderHint(const Machine &) const
    {
        return noLeaderHint;
    }
};

/** Per-machine power-path counters. */
struct MachineStats
{
    std::uint64_t wireDrops = 0;  ///< frames that hit a dark machine
    std::uint64_t resumes = 0;    ///< warm Stop-and-Go recoveries
    std::uint64_t coldBoots = 0;

    /** Frames resurrected from the DCB ring images across outages. */
    std::uint64_t ringPreservedFrames = 0;

    /** Queued frames destroyed by cold boots (baselines pay this). */
    std::uint64_t ringFramesLost = 0;

    std::uint64_t contextImagesSaved = 0;
    std::uint64_t contextImagesRestored = 0;

    /** Accumulated SnG Stop / Go time across outages. */
    Tick stopTicks = 0;
    Tick goTicks = 0;
};

/** Who a machine is inside its plane. */
struct MachineSetup
{
    /** Position in the fleet; stamped as RpcResponse::source. */
    std::uint32_t id = 0;

    std::uint64_t systemSeed = 0;    ///< platform and kernel
    std::uint64_t rngSeed = 0;       ///< torn-write and dump-body seeds
    std::uint64_t scrambleSeed = 0;  ///< volatile-loss corruption

    /** This machine's stored-energy hold-up. */
    Tick holdup = 0;

    /**
     * Dedup retention past the machine's own rule (the fleet's
     * worst-case retry span, the server-side deadline a queued retry
     * can still execute under, wire delays, and one full outage).
     */
    Tick dedupSlack = 0;
};

/**
 * One server machine. Its state is public: the planes read the
 * platform, NIC and service state, and their own policies (cut
 * guards, dump cadence, supervisor escalation) act on it.
 * Machine-side events check `gen` and die across a power event.
 */
class Machine
{
  public:
    /** What recover() did. */
    struct Recovery
    {
        Tick upAt = 0;          ///< the service can run again
        bool coldBoot = false;  ///< rebooted: volatile state is gone
    };

    Machine(const MachineParams &params, PersistMode mode,
            const MachineSetup &setup, EventQueue &eq,
            MachineHost &host);
    ~Machine();

    /** Events capture the machine's address: it never moves. */
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineParams &params;
    const PersistMode mode;
    const std::uint32_t id;
    const Tick holdup;
    EventQueue &eq;
    MachineHost &host;

    std::unique_ptr<platform::System> sys;
    std::unique_ptr<NicDevice> nic;
    std::unique_ptr<mem::TimedMem> timed;
    std::unique_ptr<KvService> kv;
    /** SysPC's or S-CheckPC's image engine, per the mode. */
    std::unique_ptr<persist::ImageCheckpoint> image;
    Rng rng;          ///< torn seeds, dump body seeds
    Rng scrambleRng;  ///< volatile-loss corruption

    bool powerOn = true;
    bool serviceUp = true;
    bool dumpStall = false;  ///< S-CheckPC stop-the-world dump
    bool serverBusy = false;
    bool txDraining = false;

    /** The last power event left no usable commit (or is a baseline). */
    bool coldBootPending = false;

    /**
     * Bumped at every power event; machine-side events scheduled
     * before the cut (service completion, TX drain, log timers) check
     * it and die. Client-side events and frames already on the wire
     * are the plane's: the outage is the machine's, not the world's.
     */
    std::uint64_t gen = 0;

    RpcResponse pendingResp{};
    bool havePendingResp = false;
    bool pendingDeferred = false;

    /** OpLog mode: acks waiting on the next group commit. */
    std::vector<RpcResponse> deferredAcks;
    bool commitScheduled = false;
    bool drainScheduled = false;

    MachineStats stats;

    bool canServe() const { return powerOn && serviceUp && !dumpStall; }

    // --- serving pump ---------------------------------------------

    /** A request frame arrives from the wire. */
    void rxArrive(const RpcRequest &req);

    /** Start draining the TX ring if it holds frames. */
    void kickTx();

    /** Execute @p req on the local KvService, stamped as ours. */
    RpcResponse execute(Tick &t, const RpcRequest &req);

    /** Push @p batch to the TX ring at @p at, stamped at release. */
    void releaseAcksAt(
        Tick at, std::shared_ptr<std::vector<RpcResponse>> batch);

    // --- op log ---------------------------------------------------

    /** Group commit now or arm the commit timer (OpLog mode). */
    void maybeScheduleCommit();

    /** Commit and drain the whole op log (OpLog mode; else no-op). */
    void flushLog(Tick &t);

    // --- S-CheckPC dump -------------------------------------------

    /** Stall the service for a dump. @return the dump's end tick. */
    Tick startDump(Tick now);

    /** The dump finished: serve again. */
    void endDump();

    // --- power ----------------------------------------------------

    /**
     * AC fails at @p now: the rails hold for `holdup`, inside which
     * the mode's persistence mechanism runs. @return whether the
     * restore will have to cold-boot.
     */
    bool powerFail(Tick now);

    /** Power dies again while a recovery runs (no hold-up). */
    void abortRecovery(Tick now);

    /** AC is back: durable writes flow again. */
    void restorePower();

    /** Go or cold-boot, per mode, starting at @p now. */
    Recovery recover(Tick now);

    /** Reboot, re-probe, recover the pool. @return service-up tick. */
    Tick coldBoot(Tick from);

    /** The service is back: restart the pump and the log timers. */
    void resumeService();

  private:
    /** Admit the RX ring and start the next request if idle. */
    void kickService();
    void serviceDone();
    void txDrainFire();
    void commitFire();

    /** Commit the op log's tail; the host then persists after it. */
    void commitLog(Tick &t);

    /** Arm the background drain while a backlog exists (OpLog). */
    void scheduleDrain();
    void drainFire();
};

} // namespace lightpc::net

#endif // LIGHTPC_NET_MACHINE_HH
