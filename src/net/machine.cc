#include "net/machine.hh"

#include "mem/timed_mem.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace lightpc::net
{

const char *
persistModeName(PersistMode mode)
{
    switch (mode) {
    case PersistMode::SnG: return "LightPC-SnG";
    case PersistMode::SysPc: return "SysPC";
    case PersistMode::SCheckPc: return "S-CheckPC";
    case PersistMode::ACheckPc: return "A-CheckPC";
    case PersistMode::OpLog: return "SnG-OpLog";
    }
    return "?";
}

void
validateMachineParams(const MachineParams &params, Tick run_for,
                      const char *who)
{
    if (params.fleet.clients == 0)
        fatal(who, ": fleet.clients must be >= 1 "
              "(a zero-client fleet generates no load)");
    if (params.fleet.arrivalsPerSec <= 0.0)
        fatal(who, ": fleet.arrivalsPerSec must be positive");
    if (params.fleet.maxAttempts == 0)
        fatal(who, ": fleet.maxAttempts must be >= 1");
    if (params.nic.ringEntries == 0)
        fatal(who, ": nic.ringEntries must be >= 1 "
              "(a zero-capacity ring can never carry a frame)");
    if (params.kv.queueCapacity == 0)
        fatal(who, ": kv.queueCapacity must be >= 1");
    if (run_for == 0)
        fatal(who, ": runFor must be nonzero");
}

FleetParams
fleetParamsFor(const MachineParams &params, std::uint64_t seed)
{
    FleetParams fp = params.fleet;
    fp.seed = fp.seed ^ (seed * 0x9e3779b97f4a7c15ULL);
    return fp;
}

bool
MachineHost::servePut(Machine &m, const RpcRequest &req, Tick &t,
                      RpcResponse &resp)
{
    resp = m.execute(t, req);
    return true;
}

namespace
{

/** NIC TX drain interval (one response frame per interval). */
constexpr Tick txDrainInterval = 2 * tickUs;

/** S-CheckPC: VM footprint of the periodic dump. */
constexpr std::uint64_t scheckVmBytes = std::uint64_t(48) << 20;

/** A-CheckPC: synchronous checkpoint bytes per request. */
constexpr std::uint64_t acheckBytesPerOp = 18000;

/** OpLog mode: background drain cadence. */
constexpr Tick oplogDrainInterval = 150 * tickUs;

platform::SystemConfig
sysConfigFor(const MachineParams &params, std::uint64_t seed)
{
    platform::SystemConfig sc;
    sc.kind = platform::PlatformKind::LightPC;
    sc.seed = seed;
    sc.kernel.cores = sc.cores;
    sc.kernel.userProcesses = params.userProcesses;
    sc.kernel.kernelThreads = params.kernelThreads;
    sc.kernel.deviceCount = params.deviceCount;
    sc.kernel.busy = true;
    sc.kernel.seed = seed ^ 0x6b65726eULL;  // "kern"
    return sc;
}

/**
 * The KvService of a @p mode machine. A request ID may only be
 * compacted out of the dedup set once no conforming client can still
 * retry it.
 */
KvParams
kvParamsFor(const MachineParams &params, PersistMode mode,
            Tick dedup_slack)
{
    KvParams kp = params.kv;
    if (mode == PersistMode::ACheckPc)
        kp.checkpointBytesPerOp = acheckBytesPerOp;
    if (mode == PersistMode::OpLog)
        kp.writePath = WritePath::OpLog;
    kp.dedupRetention = params.fleet.maxRetrySpan()
        + params.requestDeadline + 2 * params.wireLatency
        + params.offDwell + params.holdup + dedup_slack;
    return kp;
}

} // namespace

Machine::Machine(const MachineParams &params, PersistMode mode,
                 const MachineSetup &setup, EventQueue &eq,
                 MachineHost &host)
    : params(params), mode(mode), id(setup.id), holdup(setup.holdup),
      eq(eq), host(host),
      sys(std::make_unique<platform::System>(
          sysConfigFor(params, setup.systemSeed))),
      nic(std::make_unique<NicDevice>(sys->kernel().devices(), "eth0",
                                      params.nic)),
      timed(std::make_unique<mem::TimedMem>(sys->memoryPort(),
                                            &sys->pmemStore())),
      kv(std::make_unique<KvService>(
          sys->pmemStore(), *timed,
          kvParamsFor(params, mode, setup.dedupSlack))),
      image(std::make_unique<persist::ImageCheckpoint>(
          *timed, mode == PersistMode::SCheckPc ? persist::sCheckPcKind
                                                : persist::sysPcKind)),
      rng(setup.rngSeed), scrambleRng(setup.scrambleSeed)
{
}

Machine::~Machine() = default;

// --- serving pump ---------------------------------------------------

void
Machine::rxArrive(const RpcRequest &req)
{
    if (!powerOn) {
        ++stats.wireDrops;
        return;
    }
    nic->rxPush(req);  // counts its own full/link-down drops
    kickService();
}

RpcResponse
Machine::execute(Tick &t, const RpcRequest &req)
{
    RpcResponse resp = kv->execute(t, req, &pendingDeferred);
    resp.source = id;
    resp.leaderHint = host.leaderHint(*this);
    return resp;
}

void
Machine::kickService()
{
    if (!canServe() || serverBusy)
        return;
    const Tick now = eq.now();
    RpcRequest r;
    // Admission from the RX ring; backpressure answers at once.
    while (nic->rxPop(r)) {
        if (!kv->admit(r)) {
            RpcResponse rej;
            rej.reqId = r.reqId;
            rej.client = r.client;
            rej.status = RpcStatus::Rejected;
            rej.servedAt = now;
            rej.attempt = r.attempt;
            rej.source = id;
            rej.leaderHint = host.leaderHint(*this);
            nic->txPush(rej);
        }
    }
    RpcRequest head;
    if (!kv->queuePop(head)) {
        kickTx();
        return;
    }
    serverBusy = true;
    Tick t = now;
    pendingDeferred = false;
    if (head.op == workload::KvOp::Put)
        havePendingResp = host.servePut(*this, head, t, pendingResp);
    else {
        pendingResp = execute(t, head);
        havePendingResp = true;
    }
    const std::uint64_t g = gen;
    eq.schedule(t, [this, g] {
        if (g == gen)
            serviceDone();
    });
    kickTx();
}

void
Machine::serviceDone()
{
    serverBusy = false;
    if (havePendingResp) {
        if (pendingDeferred) {
            // The ack waits for the group commit that makes its
            // record durable; commitFire() releases it.
            deferredAcks.push_back(pendingResp);
            maybeScheduleCommit();
        } else {
            nic->txPush(pendingResp);
        }
        havePendingResp = false;
        pendingDeferred = false;
    }
    kickTx();
    kickService();
}

void
Machine::kickTx()
{
    if (!powerOn || txDraining || nic->txOccupancy() == 0)
        return;
    txDraining = true;
    const std::uint64_t g = gen;
    eq.scheduleIn(txDrainInterval, [this, g] {
        if (g == gen)
            txDrainFire();
    });
}

void
Machine::txDrainFire()
{
    txDraining = false;
    RpcResponse resp;
    if (!nic->txPop(resp))
        return;
    // On the wire: delivery happens even if the machine dies now.
    eq.scheduleIn(params.wireLatency,
                  [h = &host, resp] { h->deliverResponse(resp); });
    kickTx();
}

void
Machine::releaseAcksAt(Tick at,
                       std::shared_ptr<std::vector<RpcResponse>> batch)
{
    // servedAt is the release tick — strictly after the durability
    // point, so the outage close predicate stays sound. (shared_ptr
    // keeps the closure inside the queue's inline-storage bound.)
    const std::uint64_t g = gen;
    eq.schedule(at, [this, g, batch = std::move(batch)] {
        if (g != gen)
            return;
        const Tick now = eq.now();
        for (RpcResponse resp : *batch) {
            resp.servedAt = now;
            nic->txPush(resp);
        }
        kickTx();
    });
}

// --- op-log group commit / background drain -------------------------

void
Machine::maybeScheduleCommit()
{
    if (mode != PersistMode::OpLog)
        return;
    if (kv->logUncommittedRecords() >= params.oplogCommitRecords) {
        commitFire();
        return;
    }
    if (commitScheduled)
        return;
    commitScheduled = true;
    const std::uint64_t g = gen;
    eq.scheduleIn(params.oplogCommitInterval, [this, g] {
        commitScheduled = false;
        if (g == gen)
            commitFire();
    });
}

void
Machine::commitLog(Tick &t)
{
    kv->logCommit(t);
    host.logDurable(*this, t);
}

void
Machine::flushLog(Tick &t)
{
    if (mode != PersistMode::OpLog)
        return;
    kv->logCommit(t);
    kv->logDrainAll(t);
    host.logDurable(*this, t);
}

void
Machine::commitFire()
{
    if (!canServe())
        return;
    Tick t = eq.now();
    commitLog(t);
    if (!deferredAcks.empty()) {
        // Release the batch's acks once the tail persist completed.
        auto batch = std::make_shared<std::vector<RpcResponse>>(
            std::move(deferredAcks));
        deferredAcks.clear();
        releaseAcksAt(t, std::move(batch));
    }
    scheduleDrain();
}

void
Machine::scheduleDrain()
{
    if (mode != PersistMode::OpLog || drainScheduled
        || kv->logBacklogRecords() == 0)
        return;
    drainScheduled = true;
    const std::uint64_t g = gen;
    eq.scheduleIn(oplogDrainInterval, [this, g] {
        drainScheduled = false;
        if (g == gen)
            drainFire();
    });
}

void
Machine::drainFire()
{
    if (!canServe())
        return;
    // The drain runs on a spare core: it charges the memory system
    // through its own timeline without blocking the serving path.
    Tick t = eq.now();
    kv->logDrain(t, params.oplogDrainBatch);
    scheduleDrain();
}

// --- S-CheckPC dump --------------------------------------------------

Tick
Machine::startDump(Tick now)
{
    dumpStall = true;
    return image->dumpCommitted(now, scheckVmBytes, rng.next());
}

void
Machine::endDump()
{
    dumpStall = false;
    kickService();
}

// --- power -----------------------------------------------------------

bool
Machine::powerFail(Tick now)
{
    powerOn = false;
    serviceUp = false;
    ++gen;
    txDraining = false;
    sys->pmemStore().armPowerCut(now + holdup, rng.next());

    switch (mode) {
    case PersistMode::SnG:
    case PersistMode::OpLog: {
        // OpLog runs an emergency group commit inside the hold-up:
        // the cut is armed a full hold-up out and the tail persist
        // takes microseconds, so every appended record becomes
        // durable.
        if (mode == PersistMode::OpLog) {
            Tick t = now;
            commitLog(t);
        }
        // The in-flight request already committed its writes;
        // Drive-to-Idle drains its handler. Its unsent ack, and the
        // op-log batch's acks stamped at the event tick, ride the TX
        // ring into the DCB — they can narrow the outage but never
        // close it (strictly-after predicate); on a cold boot the
        // ring is lost and clients retry into the dedup set instead.
        if (serverBusy && havePendingResp) {
            if (pendingDeferred)
                deferredAcks.push_back(pendingResp);
            else
                nic->txPush(pendingResp);
            havePendingResp = false;
            pendingDeferred = false;
        }
        for (RpcResponse resp : deferredAcks) {
            resp.servedAt = now;
            nic->txPush(resp);
        }
        deferredAcks.clear();
        serverBusy = false;
        const auto stop = sys->sng().stop(now, holdup);
        stats.stopTicks += stop.totalTicks();
        stats.contextImagesSaved += stop.contextImagesSaved;
        coldBootPending = stop.commitFailed;
        break;
    }
    case PersistMode::SysPc:
        // Hibernate dump against a 16 ms hold-up: the image takes
        // seconds, so the commit record lands past the cut and the
        // durability cursor drops it.
        serverBusy = false;
        havePendingResp = false;
        image->dumpCommitted(now, sys->kernel().systemImageBytes(),
                             rng.next());
        coldBootPending = true;
        break;
    case PersistMode::SCheckPc:
    case PersistMode::ACheckPc:
        serverBusy = false;
        havePendingResp = false;
        coldBootPending = true;
        break;
    }
    return coldBootPending;
}

void
Machine::abortRecovery(Tick now)
{
    ++gen;
    powerOn = false;
    sys->pmemStore().armPowerCut(now, rng.next());
}

void
Machine::restorePower()
{
    sys->pmemStore().disarmPowerCut();
    powerOn = true;
}

Machine::Recovery
Machine::recover(Tick now)
{
    const persist::ImageCosts costs;
    switch (mode) {
    case PersistMode::SnG:
    case PersistMode::OpLog:
        if (!coldBootPending && sys->sng().hasCommit()) {
            // The rails ate the volatile side; Go must rebuild it
            // from the DCB images alone.
            sys->kernel().scramble(scrambleRng);
            nic->scrambleVolatile(scrambleRng);
            const auto go = sys->sng().resume(now);
            stats.goTicks += go.totalTicks();
            stats.contextImagesRestored += go.contextImagesRestored;
            stats.ringPreservedFrames +=
                nic->rxOccupancy() + nic->txOccupancy();
            ++stats.resumes;
            return {go.done, false};
        }
        return {coldBoot(now + costs.coldReboot), true};
    case PersistMode::SysPc:
    case PersistMode::SCheckPc:
        return {coldBoot(image->recover(now)), true};
    case PersistMode::ACheckPc:
        return {coldBoot(now + costs.coldReboot), true};
    }
    panic("Machine::recover: unknown persistence mode");
}

Tick
Machine::coldBoot(Tick from)
{
    ++stats.coldBoots;
    // Reboot re-probes every driver; rings and queue are gone.
    auto &devices = sys->kernel().devices();
    for (std::size_t i = 0; i < devices.count(); ++i)
        devices.device(i).setSuspended(false);
    stats.ringFramesLost += nic->rxOccupancy() + nic->txOccupancy();
    nic->resetVolatile();
    kv->dropQueue();
    deferredAcks.clear();
    Tick t = from;
    kv->recover(t);
    return t;
}

void
Machine::resumeService()
{
    serviceUp = true;
    kickService();
    kickTx();
    // A warm resume can come back with committed-but-undrained
    // records (and uncommitted appends the emergency flush covered);
    // restart the commit/drain cadence.
    maybeScheduleCommit();
    scheduleDrain();
}

} // namespace lightpc::net
