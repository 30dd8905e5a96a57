#include "net/service_plane.hh"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "fault/fault_injector.hh"
#include "mem/timed_mem.hh"
#include "net/availability.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "sim/digest.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

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

namespace
{

platform::SystemConfig
sysConfigFor(const ServiceConfig &cfg)
{
    platform::SystemConfig sc;
    sc.kind = platform::PlatformKind::LightPC;
    sc.seed = cfg.seed;
    sc.kernel.cores = sc.cores;
    sc.kernel.userProcesses = cfg.userProcesses;
    sc.kernel.kernelThreads = cfg.kernelThreads;
    sc.kernel.deviceCount = cfg.deviceCount;
    sc.kernel.busy = true;
    sc.kernel.seed = cfg.seed ^ 0x6b65726eULL;  // "kern"
    return sc;
}

KvParams
kvParamsFor(const ServiceConfig &cfg)
{
    KvParams kp = cfg.kv;
    if (cfg.mode == PersistMode::ACheckPc)
        kp.checkpointBytesPerOp = cfg.acheckBytesPerOp;
    if (cfg.mode == PersistMode::OpLog)
        kp.writePath = WritePath::OpLog;
    // Dedup retention: an ID may only be compacted away once no
    // conforming client can still retry it — the fleet's worst-case
    // retry span, plus the server-side deadline a queued retry can
    // still execute under, wire delays, and one full outage.
    kp.dedupRetention = cfg.fleet.maxRetrySpan() + cfg.requestDeadline
        + 2 * cfg.wireLatency + cfg.offDwell + cfg.holdup;
    return kp;
}

/**
 * Fixed-latency port for the scratch-copy durability audit: the
 * audit replays recovery against a *copy* of the PMEM store, and
 * must not perturb the live PSM pipeline's timing state.
 */
struct OraclePort : mem::MemoryPort
{
    mem::AccessResult
    access(const mem::MemRequest &, Tick when) override
    {
        mem::AccessResult r;
        r.completeAt = when + 50 * tickNs;
        r.mediaFreeAt = r.completeAt;
        return r;
    }
};

FleetParams
fleetParamsFor(const ServiceConfig &cfg)
{
    FleetParams fp = cfg.fleet;
    fp.seed = fp.seed ^ (cfg.seed * 0x9e3779b97f4a7c15ULL);
    return fp;
}

/**
 * One live run: the platform wiring plus the event-driven control
 * state. Event closures capture only `this`.
 */
struct Plane
{
    const ServiceConfig &cfg;
    platform::System sys;
    EventQueue &eq;
    NicDevice nic;
    mem::TimedMem timed;
    KvService kv;
    ClientFleet fleet;
    AvailabilityRecorder recorder;
    fault::FaultInjector injector;
    persist::SysPc sysPc;
    persist::SCheckPc sCheck;
    persist::ImageCosts imageCosts;
    Rng rng;          ///< torn seeds, dump body seeds
    Rng scrambleRng;  ///< volatile-loss corruption

    // Control state.
    bool powerOn = true;
    bool serviceUp = true;
    bool dumpStall = false;  ///< S-CheckPC stop-the-world dump
    bool serverBusy = false;
    bool txDraining = false;

    /**
     * Bumped at every power event; machine-side events scheduled
     * before the cut (service completion, TX drain) check it and die.
     * Client-side events (timeouts, arrivals) and frames already on
     * the wire are unaffected — the outage is the machine's, not the
     * world's.
     */
    std::uint64_t epoch = 0;

    RpcResponse pendingResp{};
    bool havePendingResp = false;
    bool pendingDeferred = false;

    /** OpLog mode: acks waiting on the next group commit. */
    std::vector<RpcResponse> deferredAcks;
    bool commitScheduled = false;
    bool drainScheduled = false;

    ServiceResult res;

    explicit Plane(const ServiceConfig &config)
        : cfg(config),
          sys(sysConfigFor(config)),
          eq(sys.eventQueue()),
          nic(sys.kernel().devices(), "eth0", config.nic),
          timed(sys.memoryPort(), &sys.pmemStore()),
          kv(sys.pmemStore(), timed, kvParamsFor(config)),
          fleet(fleetParamsFor(config)),
          recorder(config.goodputWindow),
          injector(sys.pmemStore()),
          sysPc(timed),
          sCheck(timed, config.scheckPeriod),
          rng(config.seed ^ 0x5eedf00dULL),
          scrambleRng(config.seed ^ 0x7a57eULL)
    {
        res.mode = cfg.mode;
        res.modeName = persistModeName(cfg.mode);
    }

    bool canServe() const { return powerOn && serviceUp && !dumpStall; }

    // --- client side ----------------------------------------------

    void
    arrivalFire()
    {
        const Tick now = eq.now();
        if (now > cfg.runFor)
            return;
        RpcRequest req = fleet.newRequest(now);
        issueAttempt(req, now);
        eq.schedule(now + fleet.nextInterarrival(),
                    [this] { arrivalFire(); });
    }

    void
    issueAttempt(RpcRequest req, Tick now)
    {
        req.deadline = now + cfg.requestDeadline;
        eq.schedule(now + cfg.wireLatency,
                    [this, req] { rxArrive(req); });
        const Tick wait = fleet.timeoutFor(req.client, req.attempt);
        eq.schedule(now + cfg.wireLatency + wait,
                    [this, id = req.reqId] { timeoutFire(id); });
    }

    void
    timeoutFire(std::uint64_t req_id)
    {
        const Tick now = eq.now();
        auto next = fleet.retryAttempt(req_id, now);
        if (next)
            issueAttempt(*next, now);
    }

    void
    deliverResponse(const RpcResponse &resp)
    {
        const Tick now = eq.now();
        const Tick first = fleet.firstIssuedAt(resp.reqId);
        const auto outcome = fleet.onResponse(resp, now);
        if (outcome == ClientFleet::AckOutcome::Completed)
            recorder.onSuccess(now, first, resp.servedAt);
    }

    // --- machine side ---------------------------------------------

    void
    rxArrive(const RpcRequest &req)
    {
        if (!powerOn) {
            ++res.wireDrops;
            return;
        }
        nic.rxPush(req);  // counts its own full/link-down drops
        kickService();
    }

    void
    kickService()
    {
        if (!canServe() || serverBusy)
            return;
        const Tick now = eq.now();
        RpcRequest r;
        // Admission from the RX ring; backpressure answers at once.
        while (nic.rxPop(r)) {
            if (!kv.admit(r)) {
                RpcResponse rej;
                rej.reqId = r.reqId;
                rej.client = r.client;
                rej.status = RpcStatus::Rejected;
                rej.servedAt = now;
                nic.txPush(rej);
            }
        }
        RpcRequest head;
        if (!kv.queuePop(head)) {
            kickTx();
            return;
        }
        serverBusy = true;
        Tick t = now;
        pendingDeferred = false;
        pendingResp = kv.execute(t, head, &pendingDeferred);
        havePendingResp = true;
        const std::uint64_t e = epoch;
        eq.schedule(t, [this, e] {
            if (e == epoch)
                serviceDone();
        });
        kickTx();
    }

    void
    serviceDone()
    {
        serverBusy = false;
        if (havePendingResp) {
            if (pendingDeferred) {
                // The ack waits for the group commit that makes its
                // record durable; commitFire() releases it.
                deferredAcks.push_back(pendingResp);
                maybeScheduleCommit();
            } else {
                nic.txPush(pendingResp);
            }
            havePendingResp = false;
            pendingDeferred = false;
        }
        kickTx();
        kickService();
    }

    // --- op-log group commit / background drain -------------------

    void
    maybeScheduleCommit()
    {
        if (cfg.mode != PersistMode::OpLog)
            return;
        if (kv.logUncommittedRecords() >= cfg.oplogCommitRecords) {
            commitFire();
            return;
        }
        if (commitScheduled)
            return;
        commitScheduled = true;
        const std::uint64_t e = epoch;
        eq.scheduleIn(cfg.oplogCommitInterval, [this, e] {
            commitScheduled = false;
            if (e == epoch)
                commitFire();
        });
    }

    void
    commitFire()
    {
        if (!canServe())
            return;
        Tick t = eq.now();
        kv.logCommit(t);
        if (!deferredAcks.empty()) {
            // Release the batch's acks once the tail persist has
            // completed. servedAt is the release tick — strictly
            // after the records' durability point, so the outage
            // close predicate stays sound. (shared_ptr keeps the
            // closure inside the queue's inline-storage bound.)
            auto batch = std::make_shared<std::vector<RpcResponse>>(
                std::move(deferredAcks));
            deferredAcks.clear();
            const std::uint64_t e = epoch;
            eq.schedule(t, [this, e, batch] {
                if (e != epoch)
                    return;
                const Tick now = eq.now();
                for (RpcResponse resp : *batch) {
                    resp.servedAt = now;
                    nic.txPush(resp);
                }
                kickTx();
            });
        }
        scheduleDrain();
    }

    void
    scheduleDrain()
    {
        if (cfg.mode != PersistMode::OpLog || drainScheduled
            || kv.logBacklogRecords() == 0)
            return;
        drainScheduled = true;
        const std::uint64_t e = epoch;
        eq.scheduleIn(cfg.oplogDrainInterval, [this, e] {
            drainScheduled = false;
            if (e == epoch)
                drainFire();
        });
    }

    void
    drainFire()
    {
        if (!canServe())
            return;
        // The drain runs on a spare core: it charges the memory
        // system through its own timeline without blocking the
        // serving path.
        Tick t = eq.now();
        kv.logDrain(t, cfg.oplogDrainBatch);
        scheduleDrain();
    }

    void
    kickTx()
    {
        if (!powerOn || txDraining || nic.txOccupancy() == 0)
            return;
        txDraining = true;
        const std::uint64_t e = epoch;
        eq.scheduleIn(cfg.txDrainInterval, [this, e] {
            if (e == epoch)
                txDrainFire();
        });
    }

    void
    txDrainFire()
    {
        txDraining = false;
        RpcResponse resp;
        if (!nic.txPop(resp))
            return;
        // On the wire: delivery happens even if the machine dies now.
        eq.scheduleIn(cfg.wireLatency,
                      [this, resp] { deliverResponse(resp); });
        kickTx();
    }

    // --- stats ----------------------------------------------------

    void
    samplerFire()
    {
        recorder.sample(eq.now());
        if (eq.now() + cfg.goodputWindow <= cfg.runFor + cfg.drainGrace)
            eq.scheduleIn(cfg.goodputWindow, [this] { samplerFire(); },
                          EventPriority::Stats);
    }

    // --- S-CheckPC periodic dump ----------------------------------

    void
    scheckDumpFire()
    {
        const Tick now = eq.now();
        if (canServe()) {
            dumpStall = true;
            const Tick done =
                sCheck.dumpCommitted(now, cfg.scheckVmBytes, rng.next());
            eq.schedule(done, [this] {
                dumpStall = false;
                kickService();
            });
        }
        eq.schedule(now + cfg.scheckPeriod,
                    [this] { scheckDumpFire(); });
    }

    // --- power events ---------------------------------------------

    void
    powerFailFire(Tick probe_deadline, std::uint32_t follow_ups_left = 0,
                  bool is_follow_up = false)
    {
        const Tick now = eq.now();
        const bool underLoad = serverBusy || nic.rxOccupancy() > 0
            || nic.txOccupancy() > 0;
        // Never cut into an outage still in progress; and (when
        // configured) hold the cut until the service is mid-flight.
        // Follow-up storm cuts carry an already-expired probe
        // deadline, so they fire the instant the service is back up.
        if (!powerOn || !serviceUp
            || (cfg.cutUnderLoad && !underLoad
                && now < probe_deadline)) {
            eq.scheduleIn(
                cfg.cutProbeInterval,
                [this, probe_deadline, follow_ups_left, is_follow_up] {
                    powerFailFire(probe_deadline, follow_ups_left,
                                  is_follow_up);
                },
                EventPriority::PowerEvent);
            return;
        }
        if (is_follow_up)
            ++res.stormFollowUpCuts;
        recorder.outageBegin(now);
        powerOn = false;
        serviceUp = false;
        ++epoch;
        txDraining = false;
        injector.armCut(now + cfg.holdup, rng.next());

        ServiceOutage o;
        o.eventAt = now;

        switch (cfg.mode) {
        case PersistMode::SnG: {
            // The in-flight request already committed its writes;
            // Drive-to-Idle drains its handler, and the unsent ack
            // rides the TX ring into the DCB.
            if (serverBusy && havePendingResp) {
                nic.txPush(pendingResp);
                havePendingResp = false;
            }
            serverBusy = false;
            const auto stop = sys.sng().stop(now, cfg.holdup);
            res.stopTicksTotal += stop.totalTicks();
            res.contextImagesSaved += stop.contextImagesSaved;
            o.coldBoot = stop.commitFailed;
            break;
        }
        case PersistMode::OpLog: {
            // Emergency group commit inside the hold-up: the cut is
            // armed a full hold-up out and the tail persist takes
            // microseconds, so every appended record becomes durable.
            // The batch's acks flush to the TX ring stamped at the
            // event tick — they ride the DCB and can narrow the
            // outage but never close it (strictly-after predicate);
            // on a cold boot the ring is lost and clients retry into
            // the dedup set instead.
            Tick t = now;
            kv.logCommit(t);
            if (serverBusy && havePendingResp) {
                if (pendingDeferred)
                    deferredAcks.push_back(pendingResp);
                else
                    nic.txPush(pendingResp);
                havePendingResp = false;
                pendingDeferred = false;
            }
            for (RpcResponse resp : deferredAcks) {
                resp.servedAt = now;
                nic.txPush(resp);
            }
            deferredAcks.clear();
            serverBusy = false;
            const auto stop = sys.sng().stop(now, cfg.holdup);
            res.stopTicksTotal += stop.totalTicks();
            res.contextImagesSaved += stop.contextImagesSaved;
            o.coldBoot = stop.commitFailed;
            break;
        }
        case PersistMode::SysPc: {
            // Hibernate dump against a 16 ms hold-up: the image takes
            // seconds, so the commit record lands past the cut and
            // the durability cursor drops it.
            serverBusy = false;
            havePendingResp = false;
            sysPc.dumpImageCommitted(
                now, sys.kernel().systemImageBytes(), rng.next());
            o.coldBoot = true;
            break;
        }
        case PersistMode::SCheckPc:
        case PersistMode::ACheckPc:
            serverBusy = false;
            havePendingResp = false;
            o.coldBoot = true;
            break;
        }
        res.outages.push_back(o);
        eq.schedule(now + cfg.offDwell, [this] { powerRestoreFire(); },
                    EventPriority::PowerEvent);

        if (follow_ups_left > 0) {
            // The next storm cut lands just past this restoration;
            // the up-front guard then holds it until the recovery
            // actually completes.
            const Tick next_at = now + cfg.offDwell + cfg.stormSpacing;
            eq.schedule(
                next_at,
                [this, next_at, follow_ups_left] {
                    powerFailFire(next_at, follow_ups_left - 1, true);
                },
                EventPriority::PowerEvent);
        }
    }

    /** Cold-boot recovery common path. @return service-up tick. */
    Tick
    coldBootRecover(Tick from)
    {
        ++res.coldBoots;
        // Reboot re-probes every driver; rings and queue are gone.
        auto &devices = sys.kernel().devices();
        for (std::size_t i = 0; i < devices.count(); ++i)
            devices.device(i).setSuspended(false);
        res.ringFramesLost += nic.rxOccupancy() + nic.txOccupancy();
        nic.resetVolatile();
        kv.dropQueue();
        deferredAcks.clear();
        Tick t = from;
        kv.recover(t);
        return t;
    }

    void
    powerRestoreFire()
    {
        const Tick now = eq.now();
        injector.powerRestored();
        powerOn = true;
        ServiceOutage &o = res.outages.back();
        Tick upAt = now;

        switch (cfg.mode) {
        case PersistMode::SnG:
        case PersistMode::OpLog:
            if (!o.coldBoot && sys.sng().hasCommit()) {
                // The rails ate the volatile side; Go must rebuild
                // it from the DCB images alone.
                sys.kernel().scramble(scrambleRng);
                nic.scrambleVolatile(scrambleRng);
                const auto go = sys.sng().resume(now);
                res.goTicksTotal += go.totalTicks();
                res.contextImagesRestored += go.contextImagesRestored;
                res.ringPreservedFrames +=
                    nic.rxOccupancy() + nic.txOccupancy();
                upAt = go.done;
            } else {
                o.coldBoot = true;
                upAt = coldBootRecover(now + imageCosts.coldReboot);
            }
            break;
        case PersistMode::SysPc:
            upAt = coldBootRecover(sysPc.recover(now));
            break;
        case PersistMode::SCheckPc:
            upAt = coldBootRecover(sCheck.recoverAfterLoss(now));
            break;
        case PersistMode::ACheckPc:
            upAt = coldBootRecover(now + imageCosts.coldReboot);
            break;
        }

        eq.schedule(upAt, [this] { serviceUpFire(); });
    }

    void
    serviceUpFire()
    {
        serviceUp = true;
        kickService();
        kickTx();
        // A warm resume can come back with committed-but-undrained
        // records (and uncommitted appends the emergency flush
        // covered); restart the commit/drain cadence.
        maybeScheduleCommit();
        scheduleDrain();
        // Audit acked-write durability right after every recovery.
        verifyInvariants();
    }

    // --- verification ---------------------------------------------

    void
    violation(const std::string &msg)
    {
        if (std::find(res.violations.begin(), res.violations.end(),
                      msg)
            == res.violations.end())
            res.violations.push_back(msg);
    }

    void
    verifyInvariants()
    {
        if (cfg.mode == PersistMode::OpLog) {
            // Audit what a crash *right now* would recover to: copy
            // the PMEM store, reopen the pool and replay the op log
            // over the copy, and check the ledger against that. A
            // fixed-latency port keeps the audit off the live PSM
            // pipeline's timing state.
            OraclePort port;
            mem::BackingStore scratch;
            scratch.copyContentsFrom(sys.pmemStore());
            mem::TimedMem stm(port, &scratch);
            KvService audit(scratch, stm, kvParamsFor(cfg));
            Tick t = 0;
            audit.recover(t);
            auditDurable(audit);
        } else {
            auditDurable(kv);
        }
    }

    void
    auditDurable(const KvService &svc)
    {
        const auto ids = svc.appliedIds();
        std::unordered_set<std::uint64_t> applied(ids.begin(),
                                                  ids.end());
        std::uint64_t duplicates = 0;
        if (applied.size() != ids.size()) {
            duplicates += ids.size() - applied.size();
            violation("duplicate request ID in persistent dedup set");
        }
        if (svc.appliedCount() != ids.size() + svc.compactedCount()) {
            ++duplicates;
            violation("applied counter disagrees with dedup set size "
                      "+ compacted count");
        }
        for (const std::uint64_t id : ids) {
            if (fleet.putKeyOf(id) == 0)
                violation("dedup set holds an unknown request ID");
        }

        // An acked PUT's ID may legally be gone only once compaction's
        // retention floor has passed it (no conforming client can
        // still retry); its version must survive regardless.
        const Tick floor = svc.dedupFloor();
        const Tick ackSlack =
            cfg.offDwell + cfg.holdup + cfg.requestDeadline;
        std::uint64_t lost = 0;
        for (const AckedPut &put : fleet.ackedPuts()) {
            if (!applied.count(put.reqId)
                && !(floor != 0 && put.ackedAt < floor + ackSlack))
                ++lost;
            const auto state = svc.lookup(put.key);
            if (!state || state->version < put.version)
                violation("acked PUT's key version regressed");
        }
        if (lost)
            violation("acknowledged PUT missing from dedup set "
                      "(acked-then-lost)");

        std::uint64_t versionSum = 0;
        const std::uint64_t key_space = fleet.params().mix.keySpace;
        for (std::uint64_t key = 1; key <= key_space; ++key) {
            if (const auto state = svc.lookup(key))
                versionSum += state->version;
        }
        if (versionSum != svc.appliedCount()) {
            ++duplicates;
            violation("key version sum != applied PUT count "
                      "(double apply)");
        }

        res.lostAckedPuts = lost;
        res.duplicateApplied = duplicates;
    }

    // --- assembly -------------------------------------------------

    void
    finish()
    {
        const FleetStats &fs = fleet.stats();
        res.arrivals = fs.arrivals;
        res.attempts = fs.attempts;
        res.retries = fs.retries;
        res.completed = fs.completed;
        res.failed = fs.failed;
        res.duplicateAcks = fs.duplicateAcks;
        res.ackedPuts = fs.ackedPuts;

        const KvStats &ks = kv.stats();
        res.executed = ks.executed;
        res.putsApplied = ks.putsApplied;
        res.idempotentHits = ks.idempotentHits;
        res.rejected = ks.rejected;
        res.deadlineExceeded = ks.deadlineExceeded;
        res.queueDropped = ks.queueDropped;
        res.recoveries = ks.recoveries;
        res.logAppends = ks.logAppends;
        res.logCommits = ks.logCommits;
        res.logDrainApplied = ks.logDrainApplied;
        res.logReplayApplied = ks.logReplayApplied;
        res.logStallDrains = ks.logStallDrains;
        res.dedupCompactions = ks.dedupCompactions;
        res.dedupEvicted = ks.dedupEvicted;

        const NicStats &ns = nic.stats();
        res.framesRx = ns.framesRx;
        res.framesTx = ns.framesTx;
        res.rxDropsDown = ns.rxDropsDown;
        res.rxDropsFull = ns.rxDropsFull;
        res.maxQueueDepth = ks.maxQueueDepth;
        res.maxRxOccupancy = ns.maxRxOccupancy;
        res.maxTxOccupancy = ns.maxTxOccupancy;

        auto &lat = recorder.latency();
        res.meanUs = recorder.latencySummaryUs().mean();
        res.p50Us = ticksToUs(lat.percentile(0.50));
        res.p99Us = ticksToUs(lat.percentile(0.99));
        res.p999Us = ticksToUs(lat.percentile(0.999));

        res.goodputMean = static_cast<double>(res.completed)
            / (static_cast<double>(cfg.runFor)
               / static_cast<double>(tickSec));
        for (const auto &s : recorder.goodputSeries().samples())
            res.goodput.emplace_back(s.when, s.value);

        const auto &outs = recorder.outageRecords();
        for (std::size_t i = 0;
             i < outs.size() && i < res.outages.size(); ++i) {
            ServiceOutage &o = res.outages[i];
            o.lastSuccessBefore = outs[i].lastSuccessBefore;
            o.firstSuccessAfter =
                outs[i].closed ? outs[i].firstSuccessAfter : maxTick;
            o.downtime = outs[i].downtime();
            o.attributable = o.downtime == maxTick
                ? maxTick
                : (o.downtime > cfg.offDwell
                       ? o.downtime - cfg.offDwell
                       : 0);
            res.worstDowntime =
                std::max(res.worstDowntime, o.downtime);
            res.worstAttributable =
                std::max(res.worstAttributable, o.attributable);
        }

        sim::Fnv64 d;
        d.mix(res.arrivals);
        d.mix(res.attempts);
        d.mix(res.completed);
        d.mix(res.failed);
        d.mix(res.ackedPuts);
        d.mix(res.executed);
        d.mix(res.putsApplied);
        d.mix(res.idempotentHits);
        d.mix(kv.appliedCount());
        d.mix(res.framesRx);
        d.mix(res.framesTx);
        d.mix(res.ringPreservedFrames);
        d.mix(res.stormFollowUpCuts);
        d.mix(res.logAppends);
        d.mix(res.logCommits);
        d.mix(res.dedupEvicted);
        d.mix(lat.percentile(0.99));
        d.mix(recorder.lastSuccessAt());
        for (const ServiceOutage &o : res.outages)
            d.mix(o.downtime);
        res.digest = d.h;
    }

    ServiceResult
    run()
    {
        eq.schedule(fleet.nextInterarrival(),
                    [this] { arrivalFire(); });
        eq.schedule(cfg.goodputWindow, [this] { samplerFire(); },
                    EventPriority::Stats);
        const Tick spacing = cfg.runFor / (cfg.cuts + 1);
        for (std::uint32_t k = 0; k < cfg.cuts; ++k) {
            const Tick at = spacing * (k + 1);
            const Tick deadline = at + spacing / 2;
            eq.schedule(
                at,
                [this, deadline] {
                    powerFailFire(deadline, cfg.stormFollowUps);
                },
                EventPriority::PowerEvent);
        }
        if (cfg.mode == PersistMode::SCheckPc)
            eq.schedule(cfg.scheckPeriod,
                        [this] { scheckDumpFire(); });

        eq.run(cfg.runFor + cfg.drainGrace);

        verifyInvariants();
        finish();
        return res;
    }
};

} // namespace

void
validateServiceConfig(const ServiceConfig &config)
{
    if (config.fleet.clients == 0)
        fatal("ServiceConfig: fleet.clients must be >= 1 "
              "(a zero-client fleet generates no load)");
    if (config.fleet.arrivalsPerSec <= 0.0)
        fatal("ServiceConfig: fleet.arrivalsPerSec must be positive");
    if (config.fleet.maxAttempts == 0)
        fatal("ServiceConfig: fleet.maxAttempts must be >= 1");
    if (config.nic.ringEntries == 0)
        fatal("ServiceConfig: nic.ringEntries must be >= 1 "
              "(a zero-capacity ring can never carry a frame)");
    if (config.kv.queueCapacity == 0)
        fatal("ServiceConfig: kv.queueCapacity must be >= 1");
    if (config.runFor == 0)
        fatal("ServiceConfig: runFor must be nonzero");
    if (config.goodputWindow == 0)
        fatal("ServiceConfig: goodputWindow must be nonzero");
    if (config.stormFollowUps > 0 && config.cuts == 0)
        fatal("ServiceConfig: stormFollowUps = ",
              config.stormFollowUps,
              " without any cuts never fires; set cuts >= 1 or "
              "stormFollowUps = 0");
    if (config.cuts > 0 && config.runFor / (config.cuts + 1) == 0)
        fatal("ServiceConfig: runFor too short for ", config.cuts,
              " cuts");
}

ServiceResult
runService(const ServiceConfig &config)
{
    validateServiceConfig(config);
    Plane plane(config);
    return plane.run();
}

std::vector<ServiceResult>
runServiceSuite(const std::vector<ServiceConfig> &configs,
                unsigned threads)
{
    sim::ParallelExecutor pool(threads);
    return pool.map<ServiceResult>(
        configs.size(),
        [&configs](std::uint64_t i) { return runService(configs[i]); });
}

} // namespace lightpc::net
