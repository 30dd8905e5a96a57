#include "net/service_plane.hh"

#include <algorithm>
#include <unordered_set>

#include "mem/timed_mem.hh"
#include "net/availability.hh"
#include "platform/system.hh"
#include "sim/digest.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace lightpc::net
{

namespace
{

/**
 * Each cut lands while the service is mid-flight (server busy or
 * frames queued in a NIC ring): from its nominal instant, the power
 * event probes every cutProbeInterval until it catches the service
 * under load, up to half the inter-cut spacing. This is the
 * adversarial case — queued traffic and an unsent ack are at stake —
 * and what makes DCB ring resurrection observable.
 */
constexpr Tick cutProbeInterval = 37 * tickUs;

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

/**
 * One live run: a machine under an open-loop client fleet, plus the
 * plane's cut and dump schedule. Event closures capture only `this`.
 */
struct Plane : MachineHost
{
    const ServiceConfig &cfg;
    EventQueue eq;
    Machine m;
    ClientFleet fleet;
    AvailabilityRecorder recorder;
    ServiceResult res;

    explicit Plane(const ServiceConfig &config)
        : cfg(config),
          m(config, config.mode, setupFor(config), eq, *this),
          fleet(fleetParamsFor(config, config.seed))
    {
        res.mode = cfg.mode;
        res.modeName = persistModeName(cfg.mode);
    }

    static MachineSetup
    setupFor(const ServiceConfig &cfg)
    {
        MachineSetup setup;
        setup.systemSeed = cfg.seed;
        setup.rngSeed = cfg.seed ^ 0x5eedf00dULL;
        setup.scrambleSeed = cfg.seed ^ 0x7a57eULL;
        setup.holdup = cfg.holdup;
        return setup;
    }

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
                    [this, req] { m.rxArrive(req); });
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
    deliverResponse(const RpcResponse &resp) override
    {
        const Tick now = eq.now();
        const Tick first = fleet.firstIssuedAt(resp.reqId);
        const auto outcome = fleet.onResponse(resp, now);
        if (outcome == ClientFleet::AckOutcome::Completed)
            recorder.onSuccess(now, first, resp.servedAt);
    }

    // --- S-CheckPC periodic dump ----------------------------------

    void
    scheckDumpFire()
    {
        const Tick now = eq.now();
        if (m.canServe()) {
            const Tick done = m.startDump(now);
            eq.schedule(done, [this] { m.endDump(); });
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
        const bool underLoad = m.serverBusy || m.nic->rxOccupancy() > 0
            || m.nic->txOccupancy() > 0;
        // Never cut into an outage still in progress; and hold the
        // cut until the service is mid-flight. Follow-up storm cuts
        // carry an already-expired probe deadline, so they fire the
        // instant the service is back up.
        if (!m.powerOn || !m.serviceUp
            || (!underLoad && now < probe_deadline)) {
            eq.scheduleIn(
                cutProbeInterval,
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
        ServiceOutage o;
        o.eventAt = now;
        // The S-CheckPC dump stall is left as it was: its end event
        // clears it.
        o.coldBoot = m.powerFail(now);
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

    void
    powerRestoreFire()
    {
        m.restorePower();
        const Machine::Recovery rec = m.recover(eq.now());
        res.outages.back().coldBoot = rec.coldBoot;
        eq.schedule(rec.upAt, [this] { serviceUpFire(); });
    }

    void
    serviceUpFire()
    {
        m.resumeService();
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
            scratch.copyContentsFrom(m.sys->pmemStore());
            mem::TimedMem stm(port, &scratch);
            KvService audit(scratch, stm, m.kv->params());
            Tick t = 0;
            audit.recover(t);
            auditDurable(audit);
        } else {
            auditDurable(*m.kv);
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
        res.fleet = fleet.stats();
        res.kv = m.kv->stats();
        res.nic = m.nic->stats();
        res.machine = m.stats;

        const stats::Histogram &lat = recorder.latency();
        res.meanUs = lat.mean() / static_cast<double>(tickUs);
        res.p50Us = ticksToUs(lat.percentile(0.50));
        res.p99Us = ticksToUs(lat.percentile(0.99));
        res.p999Us = ticksToUs(lat.percentile(0.999));

        res.goodputMean = static_cast<double>(res.fleet.completed)
                          / ticksToSec(cfg.runFor);

        // powerFailFire opened one record beside each outage.
        const auto &outs = recorder.outageRecords();
        for (std::size_t i = 0; i < res.outages.size(); ++i) {
            ServiceOutage &o = res.outages[i];
            o = serviceOutage(outs[i], cfg.offDwell, o.coldBoot);
            res.worstDowntime =
                std::max(res.worstDowntime, o.downtime);
            res.worstAttributable =
                std::max(res.worstAttributable, o.attributable);
        }

        sim::Fnv64 d;
        d.mix(res.fleet.arrivals);
        d.mix(res.fleet.attempts);
        d.mix(res.fleet.completed);
        d.mix(res.fleet.failed);
        d.mix(res.fleet.ackedPuts);
        d.mix(res.kv.executed);
        d.mix(res.kv.putsApplied);
        d.mix(res.kv.idempotentHits);
        d.mix(m.kv->appliedCount());
        d.mix(res.nic.framesRx);
        d.mix(res.nic.framesTx);
        d.mix(res.machine.ringPreservedFrames);
        d.mix(res.stormFollowUpCuts);
        d.mix(res.kv.logAppends);
        d.mix(res.kv.logCommits);
        d.mix(res.kv.dedupEvicted);
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
    validateMachineParams(config, config.runFor, "ServiceConfig");
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

} // namespace lightpc::net
