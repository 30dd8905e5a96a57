#include "cluster/cluster.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/history_audit.hh"
#include "energy/storage.hh"
#include "fault/compound.hh"
#include "net/availability.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "sim/digest.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace lightpc::cluster
{

namespace
{

constexpr std::uint32_t invalidReplica = ~std::uint32_t(0);

/** Re-propose at most this many records per heartbeat to a laggard. */
constexpr std::uint64_t retransmitWindow = 32;

/** A follower further behind than this is out of the write quorum. */
constexpr std::uint64_t syncedLagRecords = 64;

// --- control plane ------------------------------------------------

/** Leader heartbeat period. */
constexpr Tick heartbeatInterval = 3 * tickMs;

/** Follower election timeout (plus per-replica jitter). */
constexpr Tick electionTimeout = 24 * tickMs;
constexpr Tick electionJitter = 12 * tickMs;

/** Leader marks a silent follower unsynced after this long. */
constexpr Tick replicaTimeout = 30 * tickMs;

/**
 * Retransmission pacing to a laggard follower: the first re-send of
 * the missing pendingOps window comes one heartbeat after the lag is
 * noticed, then the gap doubles per fruitless round up to this cap;
 * any forward progress by the follower resets the rung. Keeps a
 * partitioned or lossy follower from being hammered with the same
 * window on every heartbeat.
 */
constexpr Tick retransmitBackoffCap = 24 * tickMs;

/**
 * Catch-up request pacing: an unanswered SyncRequest is re-issued
 * after replicaTimeout, then the wait doubles per unanswered round up
 * to this cap (reset when any sync payload arrives).
 */
constexpr Tick syncRetryCap = 240 * tickMs;

static_assert(heartbeatInterval > 0);
static_assert(electionTimeout > heartbeatInterval,
              "a healthy leader must be able to refute suspicion");
static_assert(retransmitBackoffCap >= heartbeatInterval,
              "the first retransmit rung is one heartbeat");
static_assert(syncRetryCap >= replicaTimeout,
              "the first sync retry waits one replica timeout");

// --- replication links --------------------------------------------

/** One-way replica <-> replica propagation. */
constexpr Tick linkLatency = 15 * tickUs;

/** Per-destination link bandwidth (serialization model). */
constexpr double linkGbitPerSec = 10.0;

/** Wire size of one replicated record / one control message. */
constexpr std::uint64_t replRecordBytes = 96;
constexpr std::uint64_t controlMsgBytes = 64;

/** Full-resync payload (machine state image over the link). */
constexpr std::uint64_t resyncStateBytes = std::uint64_t(512) << 20;

/**
 * Committed records each node retains in its (volatile, DRAM) journal
 * window for serving delta syncs. A rejoiner whose applied prefix fell
 * behind the window needs a full resync; an empty journal would force
 * one on every rejoin.
 */
constexpr std::uint64_t journalRetain = 512;

static_assert(linkGbitPerSec > 0.0);
static_assert(replRecordBytes > 0 && controlMsgBytes > 0);
static_assert(journalRetain > 0);

// --- client plane -------------------------------------------------

/** Client-side pause before a NOT_LEADER/READ_ONLY re-issue. */
constexpr Tick redirectDelay = 150 * tickUs;

/**
 * Replica @p id's stored-energy hold-up under the fleet's aging
 * spread: a normalized battery-style cell is pre-aged by a seeded
 * uniform [0, agingSpread] fraction of its rated cycle life, and the
 * hold-up scales with the effective capacity it has left. A zero
 * spread short-circuits to exactly the configured hold-up, so legacy
 * campaigns renumber nothing.
 */
Tick
agedHoldup(const ClusterConfig &cfg, std::uint32_t id)
{
    if (cfg.agingSpread <= 0.0)
        return cfg.holdup;
    energy::StorageCell cell(energy::lifepo4Cell(1.0));
    Rng rng(Rng::streamSeed(cfg.seed, 4000 + id));
    const double wear = cfg.agingSpread * rng.uniform();
    cell.applyAgingCycles(
        wear * static_cast<double>(cell.spec().ratedCycles));
    const double factor = cell.effectiveCapacityJoules()
        / cell.spec().capacityJoules;
    return static_cast<Tick>(static_cast<double>(cfg.holdup)
                             * factor);
}

net::FleetParams
fleetParamsFor(const ClusterConfig &cfg)
{
    net::FleetParams fp = net::fleetParamsFor(cfg, cfg.seed);
    // The cluster always audits client histories post-run.
    fp.recordHistory = true;
    return fp;
}

/** One replicated PUT as it travels leader -> followers. */
struct ReplRecord
{
    std::uint64_t seq = 0;    ///< position in the replication log
    std::uint64_t epoch = 0;  ///< epoch of the proposing leader
    std::uint64_t reqId = 0;
    std::uint64_t key = 0;
    std::uint64_t valueSeed = 0;
    std::uint64_t version = 0;  ///< absolute version fixed by the leader
    std::uint32_t client = 0;
};

enum class MsgKind : std::uint8_t
{
    Heartbeat,
    HbAck,
    Propose,
    ProposeAck,
    PreVote,       ///< probe: could epoch+1 win? (no state change)
    PreVoteGrant,
    RequestVote,
    VoteGrant,
    SyncRequest,
    SyncDelta,
    SyncFull,
};

/**
 * One control-plane message. `seq`/`commit`/`lastEpoch` are
 * kind-specific (documented at each send site); the shared_ptr
 * payloads keep the copyable closure small for bulk transfers.
 */
struct Msg
{
    MsgKind kind = MsgKind::Heartbeat;
    std::uint32_t from = 0;
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::uint64_t commit = 0;
    std::uint64_t lastEpoch = 0;
    ReplRecord rec{};
    std::shared_ptr<std::vector<ReplRecord>> recs;
    std::shared_ptr<std::vector<net::KvKeyState>> snap;
};

enum class Role : std::uint8_t
{
    Follower,
    Candidate,
    Leader,
};

/** A client attempt blocked on a proposal's commit. */
struct Waiter
{
    std::uint64_t reqId = 0;
    std::uint32_t client = 0;
    std::uint32_t attempt = 0;
};

/** A leader-side proposal awaiting its write quorum. */
struct PendingOp
{
    ReplRecord rec{};
    std::vector<Waiter> waiters;
};

/** Leader-side view of one follower. */
struct Peer
{
    Tick lastAck = 0;         ///< last HbAck/ProposeAck heard
    std::uint64_t held = 0;   ///< follower's verified-prefix top
    bool synced = false;      ///< counts toward the write quorum

    /**
     * Retransmission pacing: the next tick a fruitless re-send of the
     * missing window may go out, and the current backoff rung
     * (doubling to retransmitBackoffCap; reset when `held` advances).
     */
    Tick nextResendAt = 0;
    Tick resendBackoff = 0;
};

/**
 * One full LightPC machine plus its replication state. The `staged`
 * map is the follower's *durable* log tail: each accepted proposal is
 * persisted (a small undo transaction over the replica's own pool
 * root) before the ack departs, so it survives a cold boot — that is
 * what keeps Raft's quorum-overlap argument sound when a whole rack
 * cold-boots. The `journal` is the volatile DRAM window of committed
 * records used to serve delta syncs: it rides a Stop-and-Go resume
 * but is lost to a cold boot, which is exactly the asymmetry that
 * sends checkpointing baselines through the full resync path.
 */
struct Replica : net::Machine
{
    Replica(const ClusterConfig &cfg, std::uint32_t rid,
            EventQueue &eq, net::MachineHost &host)
        : Machine(cfg, cfg.mode, setupFor(cfg, rid), eq, host),
          ctrlRng(Rng::streamSeed(cfg.seed, 3000 + rid)),
          peers(cfg.replicas), linkBusyTo(cfg.replicas),
          lastArriveTo(cfg.replicas)
    {}

    /**
     * Replica @p rid's machine: every seed folds the id in, and the
     * hold-up is ClusterConfig::holdup derated by the replica's
     * seeded storage aging (== the config value when agingSpread
     * is 0).
     */
    static net::MachineSetup
    setupFor(const ClusterConfig &cfg, std::uint32_t rid)
    {
        net::MachineSetup setup;
        setup.id = rid;
        setup.systemSeed = cfg.seed ^ ((rid + 1) * 0x9e3779b97f4a7c15ULL);
        setup.rngSeed = Rng::streamSeed(cfg.seed, 1000 + rid);
        setup.scrambleSeed = Rng::streamSeed(cfg.seed, 2000 + rid);
        setup.holdup = agedHoldup(cfg, rid);
        // A replica can be dark for offDwell + coldReboot, and a
        // conforming client may still be retrying into it afterwards.
        setup.dedupSlack = persist::ImageCosts{}.coldReboot;
        return setup;
    }

    net::AvailabilityRecorder recorder;
    Rng ctrlRng;  ///< election jitter

    bool hbArmed = false;

    /** Guard for the pending restore (recovery-window cuts extend). */
    std::uint64_t restoreGen = 0;
    std::uint32_t failedResumes = 0;

    // Raft-shaped replication state.
    Role role = Role::Follower;
    std::uint64_t epoch = 0;
    std::uint64_t voteWord = 0;  ///< durable: epoch*64 + votedFor + 1
    std::uint64_t seqApplied = 0;
    std::uint64_t appliedEpoch = 0;

    /**
     * Top of the prefix verified against the current leader's chain
     * (reset to seqApplied when a new leader epoch is first heard);
     * acks report it and commits never advance past it.
     */
    std::uint64_t matchedSeq = 0;

    /** Durable log tail: contiguous in (seqApplied, stagedTop]. */
    std::map<std::uint64_t, ReplRecord> staged;
    /** Volatile committed-record window for delta syncs. */
    std::map<std::uint64_t, ReplRecord> journal;

    std::uint32_t leaderKnown = invalidReplica;
    std::uint64_t leaderEpochSeen = 0;
    Tick lastLeaderHeard = 0;

    // Leader state.
    std::uint64_t nextSeq = 1;
    std::map<std::uint64_t, PendingOp> pendingOps;
    std::unordered_map<std::uint64_t, std::uint64_t> pendingByReq;
    std::unordered_map<std::uint64_t, std::uint64_t> lastProposedVersion;
    std::vector<Peer> peers;

    // Candidate state.
    std::uint64_t votesMask = 0;

    /**
     * Pre-vote probe state: the prospective epoch being probed (0 =
     * no probe live) and the grant mask. A probe changes no durable
     * state and bumps no epoch — a partitioned minority can probe
     * forever without burning epochs — and only a majority of grants
     * converts it into a real candidacy.
     */
    std::uint64_t preVoteEpoch = 0;
    std::uint64_t preVotesMask = 0;

    // Catch-up state.
    bool syncInFlight = false;
    Tick syncRequestedAt = 0;
    Tick syncBackoff = 0;  ///< current re-request rung (0 = fresh)

    bool metaDirty = false;  ///< commit meta awaiting the group commit

    /** Per-destination link serialization cursor (FIFO per pair). */
    std::vector<Tick> linkBusyTo;

    /** Last scheduled arrival per destination (nemesis FIFO shaping). */
    std::vector<Tick> lastArriveTo;

    /** Highest sequence this replica holds (applied or staged). */
    std::uint64_t
    stagedTop() const
    {
        return staged.empty() ? seqApplied : staged.rbegin()->first;
    }
};

/** Content of one committed sequence slot, for the divergence audit. */
struct CommitLedger
{
    std::uint64_t reqId = 0;
    std::uint64_t key = 0;
    std::uint64_t version = 0;
};

/**
 * One live cluster run: N machines, the client fleet, and one master
 * event queue. Event closures capture `this` plus a replica (replicas
 * never move) and a generation guard; the per-replica System event
 * queues are unused (every subsystem call here is synchronous
 * against `eq`). The plane joins each machine's serving path as its
 * net::MachineHost.
 */
struct Plane : net::MachineHost
{
    const ClusterConfig &cfg;
    EventQueue eq;
    net::ClientFleet fleet;
    std::vector<std::unique_ptr<Replica>> reps;

    /** Load balancer's current leader belief (from leader hints). */
    std::uint32_t lbLeader = invalidReplica;

    // Fleet-availability accounting (interval accumulation).
    bool writeOkNow = false;  ///< no leader until the first election
    bool readOkNow = true;
    Tick lastAvailEval = 0;
    Tick writeDownSince = 0;

    // Online invariant ledgers.
    std::map<std::uint64_t, std::uint32_t> ackEpochLeader;
    std::map<std::uint64_t, CommitLedger> committedBySeq;
    /** Client-visible twin of ackEpochLeader, duplicate-tolerant. */
    AckAudit ackAudit;

    /** Adversarial network plane (inert unless configured). */
    fault::NetNemesis nemesis;

    ClusterResult res;

    explicit Plane(const ClusterConfig &config)
        : cfg(config), fleet(fleetParamsFor(config)),
          nemesis(config.nemesis,
                  Rng::streamSeed(config.seed, 0x6e656d65ULL),
                  config.replicas, config.racks)
    {
        res.mode = cfg.mode;
        res.modeName = net::persistModeName(cfg.mode);
        res.replicas = cfg.replicas;
        for (std::uint32_t id = 0; id < cfg.replicas; ++id)
            reps.push_back(std::make_unique<Replica>(cfg, id, eq, *this));
    }

    std::uint32_t majority() const { return cfg.replicas / 2 + 1; }

    // --- small helpers --------------------------------------------

    /** A message from @p r, stamped with its epoch. */
    static Msg
    msgFrom(const Replica &r, MsgKind kind)
    {
        Msg m;
        m.kind = kind;
        m.from = r.id;
        m.epoch = r.epoch;
        return m;
    }

    net::ClusterMeta
    metaOf(const Replica &r) const
    {
        net::ClusterMeta m;
        m.seq = r.stagedTop();
        m.epoch = r.epoch;
        m.voteWord = r.voteWord;
        m.commit = r.seqApplied;
        m.commitEpoch = r.appliedEpoch;
        return m;
    }

    /**
     * Persist the replication meta words on the replica's own PSM
     * path, starting no earlier than @p from. @return the tick the
     * persist completes — every send site whose message claims
     * "durable before this departs" threads it into the departure,
     * so the persistence latency is charged in simulated time.
     */
    Tick
    persistMeta(Replica &r, Tick from = 0)
    {
        Tick t = std::max(from, eq.now());
        r.kv->persistClusterMeta(t, metaOf(r));
        return t;
    }

    /** Epoch of the record at sequence @p s of @p r's chain. */
    std::uint64_t
    epochAt(const Replica &r, std::uint64_t s) const
    {
        if (s == 0)
            return 0;
        if (s <= r.seqApplied)
            return r.appliedEpoch;
        if (auto it = r.staged.find(s); it != r.staged.end())
            return it->second.epoch;
        if (auto it = r.pendingOps.find(s); it != r.pendingOps.end())
            return it->second.rec.epoch;
        if (auto it = r.journal.find(s); it != r.journal.end())
            return it->second.epoch;
        return r.appliedEpoch;
    }

    /**
     * Raft completeness: the candidate's advertised (lastEpoch,
     * lastSeq) in @p m reaches @p r's, staged tail included.
     */
    bool
    upToDate(const Replica &r, const Msg &m) const
    {
        const std::uint64_t myTop = r.stagedTop();
        const std::uint64_t myLastEpoch = epochAt(r, myTop);
        return m.lastEpoch > myLastEpoch
            || (m.lastEpoch == myLastEpoch && m.seq >= myTop);
    }

    std::uint32_t
    leaderHint(const net::Machine &m) const override
    {
        const Replica &r = static_cast<const Replica &>(m);
        if (r.role == Role::Leader)
            return r.id;
        return r.leaderKnown;
    }

    /**
     * The op log's records are durable: the replication watermark,
     * which may only persist after the records it covers, follows.
     */
    void
    logDurable(net::Machine &m, Tick &t) override
    {
        Replica &r = static_cast<Replica &>(m);
        if (r.metaDirty) {
            r.kv->persistClusterMeta(t, metaOf(r));
            r.metaDirty = false;
        }
    }

    void
    violation(const std::string &msg)
    {
        if (std::find(res.violations.begin(), res.violations.end(),
                      msg)
            == res.violations.end())
            res.violations.push_back(msg);
    }

    // --- fleet availability ---------------------------------------

    /**
     * Close the elapsed interval under the previous fleet state, then
     * re-evaluate. Writes are available while some servable leader
     * holds a quorum of synced replicas; reads while any replica
     * serves at all (stale reads are the documented model).
     */
    void
    recomputeAvailability()
    {
        accountTo(eq.now());
        bool w = false;
        bool rd = false;
        for (const auto &rp : reps) {
            if (!rp->canServe())
                continue;
            rd = true;
            if (rp->role != Role::Leader)
                continue;
            std::uint32_t cnt = 1;
            for (std::uint32_t p = 0; p < cfg.replicas; ++p)
                if (p != rp->id && rp->peers[p].synced)
                    ++cnt;
            if (cnt >= majority())
                w = true;
        }
        if (writeOkNow && !w) {
            writeDownSince = eq.now();
            if (rd)
                ++res.readOnlySpans;
        }
        if (!writeOkNow && w)
            res.worstWriteGap = std::max(
                res.worstWriteGap, eq.now() - writeDownSince);
        writeOkNow = w;
        readOkNow = rd;
    }

    void
    accountTo(Tick now)
    {
        if (now <= lastAvailEval)
            return;
        const Tick span = now - lastAvailEval;
        if (!writeOkNow)
            res.writeUnavailableTicks += span;
        if (!readOkNow)
            res.readUnavailableTicks += span;
        lastAvailEval = now;
    }

    // --- replica links --------------------------------------------

    Tick
    serializeTicks(std::uint64_t bytes) const
    {
        const double secs = static_cast<double>(bytes) * 8.0
            / (linkGbitPerSec * 1e9);
        return static_cast<Tick>(secs * static_cast<double>(tickSec));
    }

    /**
     * Ship one message. Serialization holds the per-destination link
     * cursor (so a full resync cannot starve heartbeats to *other*
     * replicas), propagation adds linkLatency, and delivery to a dark
     * or dump-stalled replica is dropped — that drop is precisely how
     * an S-CheckPC leader mid-dump gets falsely deposed.
     * @p notBefore delays the departure past a local persist the
     * message's claim depends on (durable-stage acks, vote grants).
     */
    void
    sendMsg(Replica &from, std::uint32_t to, const Msg &m,
            std::uint64_t bytes, Tick notBefore = 0)
    {
        if (to == from.id || to >= cfg.replicas)
            return;
        const Tick now = eq.now();
        Tick &busy = from.linkBusyTo[to];
        const Tick depart = std::max({now, notBefore, busy});
        busy = depart + serializeTicks(bytes);
        const Tick arrive = busy + linkLatency;
        if (!nemesis.active()) {
            eq.schedule(arrive, [this, to, m] { deliver(to, m); });
            return;
        }

        // The nemesis judges at the departure tick: the sender has
        // already burned its serialization window even when the wire
        // eats the message (a cut link does not refund TX time).
        // The nemesis counts what it eats; finish() copies its stats.
        const fault::LinkFate fate = nemesis.judge(from.id, to, depart);
        if (fate.cutByPartition || fate.cutByFlap)
            return;
        if (!fate.dropped) {
            const Tick when = shapeArrival(from, to,
                                           arrive + fate.jitter);
            eq.schedule(when, [this, to, m] { deliver(to, m); });
        }
        if (fate.duplicated) {
            const Tick when = shapeArrival(from, to,
                                           arrive + fate.dupJitter);
            eq.schedule(when, [this, to, m] { deliver(to, m); });
        }
    }

    /**
     * Count a jittered arrival that lands before an earlier send's on
     * the same (from, to) link: it is delivered out of order.
     */
    Tick
    shapeArrival(Replica &from, std::uint32_t to, Tick arrive)
    {
        Tick &last = from.lastArriveTo[to];
        if (arrive < last)
            ++res.msgsReordered;
        else
            last = arrive;
        return arrive;
    }

    void
    deliver(std::uint32_t to, const Msg &m)
    {
        Replica &r = *reps[to];
        if (!r.canServe()) {
            ++res.ctrlDrops;
            return;
        }
        handleMsg(r, m);
    }

    void
    broadcast(Replica &from, const Msg &m, std::uint64_t bytes,
              Tick notBefore = 0)
    {
        for (std::uint32_t p = 0; p < cfg.replicas; ++p)
            if (p != from.id)
                sendMsg(from, p, m, bytes, notBefore);
    }

    // --- client plane ---------------------------------------------

    /**
     * Routing: the balancer sends to its leader belief while that
     * replica still answers health checks; otherwise it sprays
     * deterministically across live replicas (keyed on request id and
     * attempt, so retries rotate targets).
     */
    std::uint32_t
    routeTarget(std::uint64_t req_id, std::uint32_t attempt) const
    {
        if (lbLeader != invalidReplica && lbLeader < cfg.replicas
            && reps[lbLeader]->canServe())
            return lbLeader;
        const std::uint32_t start = static_cast<std::uint32_t>(
            (req_id * 1315423911ULL + attempt) % cfg.replicas);
        for (std::uint32_t i = 0; i < cfg.replicas; ++i) {
            const std::uint32_t cand = (start + i) % cfg.replicas;
            if (reps[cand]->canServe())
                return cand;
        }
        return start;
    }

    void
    arrivalFire()
    {
        const Tick now = eq.now();
        if (now > cfg.runFor)
            return;
        net::RpcRequest req = fleet.newRequest(now);
        issueAttempt(req, now);
        eq.schedule(now + fleet.nextInterarrival(),
                    [this] { arrivalFire(); });
    }

    void
    issueAttempt(net::RpcRequest req, Tick now)
    {
        const std::uint32_t target = routeTarget(req.reqId,
                                                 req.attempt);
        req.deadline = now + cfg.requestDeadline;
        eq.schedule(now + cfg.wireLatency,
                    [this, req, target] { reps[target]->rxArrive(req); });
        const Tick wait = fleet.timeoutFor(req.client, req.attempt);
        eq.schedule(now + cfg.wireLatency + wait,
                    [this, id = req.reqId, att = req.attempt] {
                        timeoutFire(id, att);
                    });
    }

    void
    timeoutFire(std::uint64_t req_id, std::uint32_t attempt)
    {
        const Tick now = eq.now();
        // Guarded: a fast redirect may have superseded this attempt.
        auto next = fleet.retryAttempt(req_id, now, attempt);
        if (next)
            issueAttempt(*next, now);
    }

    void
    deliverResponse(const net::RpcResponse &resp) override
    {
        const Tick now = eq.now();
        if (resp.leaderHint != net::noLeaderHint
            && resp.leaderHint < cfg.replicas)
            lbLeader = resp.leaderHint;
        const Tick first = fleet.firstIssuedAt(resp.reqId);
        // Online split-brain audit rides the *acks*: the commit path
        // keeps its own (epoch -> leader) ledger, but the client-
        // visible write acks must tell the same story. The ledger is
        // duplicate-tolerant — the nemesis re-delivers acks verbatim,
        // and a byte-identical re-observation is benign — while a
        // *different* replica acking inside one epoch (a deposed
        // leader's late ack racing the new leader's) is exactly the
        // signal sought.
        if (resp.status == net::RpcStatus::Ok && resp.epoch != 0) {
            switch (ackAudit.observe(resp.reqId, resp.epoch,
                                     resp.source)) {
              case AckAudit::Verdict::Fresh:
                break;
              case AckAudit::Verdict::Duplicate:
                ++res.duplicateAckAudits;
                break;
              case AckAudit::Verdict::SplitBrain:
                ++res.splitBrainEpochs;
                violation("split brain: clients saw PUT acks from "
                          "two replicas inside one epoch");
                break;
            }
        }
        const auto outcome = fleet.onResponse(resp, now);
        if (outcome == net::ClientFleet::AckOutcome::Completed) {
            if (resp.source < cfg.replicas)
                reps[resp.source]->recorder.onSuccess(now, first,
                                                      resp.servedAt);
            return;
        }
        if (outcome == net::ClientFleet::AckOutcome::RetriableError
            && resp.status == net::RpcStatus::NotLeader
            && resp.leaderHint != net::noLeaderHint
            && resp.leaderHint < cfg.replicas
            && resp.leaderHint != resp.source
            && fleet.allowFastRedirect(resp.reqId)) {
            // Fast redirect: the follower knows who leads, so
            // re-issue there after a short pause instead of waiting
            // out the full backoff timeout. Without a usable hint
            // (leaderless interregnum, READ_ONLY degradation) the
            // armed timeout's capped jittered backoff paces the
            // retries — fast-spinning them would burn the attempt
            // budget inside one outage. The attempt guard keeps a
            // late redirect from double-issuing against the armed
            // timeout's retry, and the per-request fast-redirect
            // budget (consumed above) keeps a partition-stale hint
            // chain from ping-ponging a client between two replicas
            // that each name the other leader — past the budget the
            // armed timeout's paced backoff takes over.
            eq.schedule(now + redirectDelay,
                        [this, id = resp.reqId, att = resp.attempt] {
                            const Tick rnow = eq.now();
                            auto next =
                                fleet.retryAttempt(id, rnow, att);
                            if (next)
                                issueAttempt(*next, rnow);
                        });
        }
    }

    // --- the PUT path ---------------------------------------------

    /**
     * PUTs never reach KvService::execute directly: a follower
     * answers NOT_LEADER with its leader hint, a quorum-less leader
     * answers READ_ONLY, and a quorum-backed leader runs the
     * replication path (propose now, ack at commit).
     */
    bool
    servePut(net::Machine &m, const net::RpcRequest &req, Tick &t,
             net::RpcResponse &resp) override
    {
        Replica &r = static_cast<Replica &>(m);
        t += net::KvParams::parseCost;
        resp = net::RpcResponse{};
        resp.reqId = req.reqId;
        resp.client = req.client;
        resp.attempt = req.attempt;
        resp.source = r.id;
        resp.leaderHint = leaderHint(r);
        if (req.deadline != 0 && t > req.deadline) {
            resp.status = net::RpcStatus::DeadlineExceeded;
            return true;
        }
        if (r.role != Role::Leader) {
            resp.status = net::RpcStatus::NotLeader;
            return true;
        }
        // Retry of an already-durable PUT: idempotent ack (a write
        // ack from this leader, so it carries the epoch and joins
        // the client-side split-brain audit). The version echoed is
        // the one THIS request committed at — from the dedup entry or
        // the pending op-log record — never the key's current
        // version, which may already belong to a later write (the
        // history audit would read that as a duplicated ack of the
        // later version).
        auto done = r.kv->appliedVersion(req.reqId);
        if (!done && r.kv->logPending(req.reqId))
            done = r.kv->pendingVersion(req.reqId);
        if (done) {
            resp.status = net::RpcStatus::Ok;
            resp.version = *done;
            resp.epoch = r.epoch;
            return true;
        }
        // Retry of a still-pending proposal: join its waiters.
        if (auto it = r.pendingByReq.find(req.reqId);
            it != r.pendingByReq.end()) {
            auto op = r.pendingOps.find(it->second);
            if (op != r.pendingOps.end()) {
                op->second.waiters.push_back(
                    Waiter{req.reqId, req.client, req.attempt});
                return false;
            }
        }
        // Quorum precheck: degrade to read-only instead of acking
        // writes a lone survivor could lose.
        std::uint32_t live = 1;
        for (std::uint32_t p = 0; p < cfg.replicas; ++p)
            if (p != r.id && r.peers[p].synced)
                ++live;
        if (live < majority()) {
            resp.status = net::RpcStatus::ReadOnly;
            return true;
        }
        std::uint64_t base = 0;
        if (auto lp = r.lastProposedVersion.find(req.key);
            lp != r.lastProposedVersion.end()) {
            base = lp->second;
        } else if (const auto st = r.kv->lookup(req.key)) {
            base = st->version;
        }
        ReplRecord rec;
        rec.seq = r.nextSeq++;
        rec.epoch = r.epoch;
        rec.reqId = req.reqId;
        rec.key = req.key;
        rec.valueSeed = req.valueSeed;
        rec.version = base + 1;
        rec.client = req.client;
        r.lastProposedVersion[rec.key] = rec.version;
        PendingOp op;
        op.rec = rec;
        op.waiters.push_back(
            Waiter{req.reqId, req.client, req.attempt});
        r.pendingOps.emplace(rec.seq, std::move(op));
        r.pendingByReq[rec.reqId] = rec.seq;
        // The leader's own stage is durable before any proposal
        // departs: the record joins the staged map (so a cold boot
        // mid-replication still finds it) and the service path pays
        // the persist cost — t advances, holding the server busy
        // until the stage lands.
        r.staged[rec.seq] = rec;
        t = persistMeta(r, t);
        for (std::uint32_t p = 0; p < cfg.replicas; ++p)
            if (p != r.id)
                proposeOne(r, p, rec, t);
        advanceCommit(r);  // a single-replica cluster self-commits
        return false;
    }

    // --- replication: leader side ---------------------------------

    void
    proposeOne(Replica &r, std::uint32_t to, const ReplRecord &rec,
               Tick notBefore = 0)
    {
        Msg m = msgFrom(r, MsgKind::Propose);
        m.seq = rec.seq;
        m.commit = r.seqApplied;
        m.lastEpoch = epochAt(r, rec.seq - 1);  // chain check anchor
        m.rec = rec;
        ++res.proposals;
        sendMsg(r, to, m, replRecordBytes, notBefore);
    }

    void
    updatePeer(Replica &r, std::uint32_t from, std::uint64_t held)
    {
        Peer &pe = r.peers[from];
        pe.lastAck = eq.now();
        if (held > pe.held) {
            pe.held = held;
            // Forward progress resets the retransmission rung: the
            // follower is hearing us again, resume the fast cadence.
            pe.resendBackoff = 0;
            pe.nextResendAt = 0;
        }
        const bool nowSynced =
            r.seqApplied <= pe.held + syncedLagRecords;
        if (nowSynced != pe.synced) {
            pe.synced = nowSynced;
            recomputeAvailability();
        }
    }

    /** Commit, in order, every front proposal with a write quorum. */
    void
    advanceCommit(Replica &r)
    {
        while (!r.pendingOps.empty()) {
            auto it = r.pendingOps.begin();
            if (it->first != r.seqApplied + 1)
                break;
            std::uint32_t acks = 1;  // self (durably staged)
            for (std::uint32_t p = 0; p < cfg.replicas; ++p)
                if (p != r.id && r.peers[p].held >= it->first)
                    ++acks;
            if (acks < majority())
                break;
            PendingOp op = std::move(it->second);
            r.pendingOps.erase(it);
            r.pendingByReq.erase(op.rec.reqId);
            commitOp(r, op);
            // The committed prefix now covers the record; its copy
            // leaves the durable staged tail (the follower apply
            // path does the same as it applies).
            r.staged.erase(op.rec.seq);
        }
    }

    void
    commitOp(Replica &r, const PendingOp &op)
    {
        const ReplRecord &rec = op.rec;
        ++res.commits;
        // Online audits: one content per committed sequence, one
        // acking leader per epoch.
        auto [cit, cIns] = committedBySeq.try_emplace(
            rec.seq, CommitLedger{rec.reqId, rec.key, rec.version});
        if (!cIns
            && (cit->second.reqId != rec.reqId
                || cit->second.key != rec.key
                || cit->second.version != rec.version)) {
            ++res.divergentCommits;
            violation("two leaders committed different records at "
                      "one sequence slot");
        }
        auto [eit, eIns] = ackEpochLeader.try_emplace(rec.epoch, r.id);
        if (!eIns && eit->second != r.id) {
            ++res.splitBrainEpochs;
            violation("split brain: two leaders acked writes inside "
                      "one epoch");
        }
        Tick t = eq.now();
        applyRecord(r, t, rec);
        pruneJournal(r);
        if (cfg.mode == net::PersistMode::OpLog) {
            // The acks wait for the group commit that makes the
            // record durable.
            for (const Waiter &w : op.waiters)
                r.deferredAcks.push_back(ackOf(r, w, rec));
            persistWatermark(r, t);
            return;
        }
        persistWatermark(r, t);
        if (op.waiters.empty())
            return;
        auto batch = std::make_shared<std::vector<net::RpcResponse>>();
        for (const Waiter &w : op.waiters)
            batch->push_back(ackOf(r, w, rec));
        // Acks release once the apply + meta persist landed.
        r.releaseAcksAt(t, std::move(batch));
    }

    /** The write ack @p w gets once @p rec commits on leader @p r. */
    static net::RpcResponse
    ackOf(const Replica &r, const Waiter &w, const ReplRecord &rec)
    {
        net::RpcResponse resp;
        resp.reqId = w.reqId;
        resp.client = w.client;
        resp.status = net::RpcStatus::Ok;
        resp.version = rec.version;
        resp.attempt = w.attempt;
        resp.source = r.id;
        resp.leaderHint = r.id;
        resp.epoch = rec.epoch;
        return resp;
    }

    /**
     * Apply committed record @p rec, the next past @p r's applied
     * prefix, through the replica's write path, and extend the prefix
     * and the journal over it.
     */
    void
    applyRecord(Replica &r, Tick &t, const ReplRecord &rec)
    {
        r.kv->applyCommitted(t, rec.reqId, rec.key, rec.valueSeed,
                             rec.version, rec.client);
        r.seqApplied = rec.seq;
        r.appliedEpoch = rec.epoch;
        r.journal[rec.seq] = rec;
    }

    /**
     * Persist @p r's advanced applied watermark. On the op-log path
     * it waits for the group commit that makes the appended records
     * durable (logDurable writes it).
     */
    void
    persistWatermark(Replica &r, Tick &t)
    {
        if (cfg.mode == net::PersistMode::OpLog) {
            r.metaDirty = true;
            r.maybeScheduleCommit();
        } else {
            r.kv->persistClusterMeta(t, metaOf(r));
        }
    }

    void
    pruneJournal(Replica &r)
    {
        while (r.journal.size() > journalRetain)
            r.journal.erase(r.journal.begin());
    }

    // --- replication: follower side -------------------------------

    /**
     * Apply staged records up to min(leader commit, verified top).
     * @return the tick the applies (and their watermark persist)
     * complete; eq.now() when nothing applied.
     */
    Tick
    applyCommitted(Replica &r, std::uint64_t leader_commit)
    {
        const std::uint64_t bound =
            std::min(leader_commit, r.matchedSeq);
        bool any = false;
        Tick t = eq.now();
        while (r.seqApplied < bound) {
            auto it = r.staged.find(r.seqApplied + 1);
            if (it == r.staged.end())
                break;
            applyRecord(r, t, it->second);
            r.staged.erase(it);
            any = true;
        }
        if (any) {
            pruneJournal(r);
            persistWatermark(r, t);
        }
        return t;
    }

    /** Leader-stream bookkeeping shared by Heartbeat and Propose. */
    void
    observeLeader(Replica &r, const Msg &m)
    {
        if (m.epoch > r.epoch)
            adoptEpoch(r, m.epoch);
        if (r.role != Role::Follower) {
            // A candidate yields to a valid leader of its own epoch.
            r.role = Role::Follower;
            recomputeAvailability();
        }
        if (r.leaderEpochSeen != m.epoch || r.leaderKnown != m.from) {
            // New leader chain: the verified prefix restarts at the
            // applied (committed, hence shared) prefix.
            r.leaderEpochSeen = m.epoch;
            r.leaderKnown = m.from;
            r.matchedSeq = r.seqApplied;
        }
        r.lastLeaderHeard = eq.now();
    }

    /** Report @p r's verified and committed prefix to @p to. */
    void
    replyHbAck(Replica &r, std::uint32_t to, Tick notBefore = 0,
               MsgKind kind = MsgKind::HbAck)
    {
        Msg a = msgFrom(r, kind);
        a.seq = r.matchedSeq;
        a.commit = r.seqApplied;
        sendMsg(r, to, a, controlMsgBytes, notBefore);
    }

    void
    onHeartbeat(Replica &r, const Msg &m)
    {
        if (m.epoch < r.epoch) {
            replyHbAck(r, m.from);  // deposes the stale leader
            return;
        }
        observeLeader(r, m);
        const Tick applied = applyCommitted(r, m.commit);
        if (r.matchedSeq < m.seq && r.seqApplied < m.commit)
            requestSync(r);
        replyHbAck(r, m.from, applied);
    }

    void
    onPropose(Replica &r, const Msg &m)
    {
        if (m.epoch < r.epoch) {
            replyHbAck(r, m.from);
            return;
        }
        observeLeader(r, m);
        const ReplRecord &rec = m.rec;
        const std::uint64_t top = r.stagedTop();
        Tick ackReady = eq.now();
        if (rec.seq <= r.seqApplied) {
            // Below the committed prefix: already durable here.
        } else if (rec.seq <= top + 1
                   && m.lastEpoch == epochAt(r, rec.seq - 1)) {
            auto it = r.staged.find(rec.seq);
            if (it != r.staged.end()
                && it->second.epoch != rec.epoch) {
                // Conflicting suffix from a dead leader's chain:
                // truncate it (Raft's append-conflict rule), and
                // regress the verified prefix with it — the erased
                // records must never again be advertised as held.
                r.staged.erase(it, r.staged.end());
                it = r.staged.end();
                r.matchedSeq = std::min(r.matchedSeq, rec.seq - 1);
            }
            const bool fresh =
                it == r.staged.end() || it->second.reqId != rec.reqId;
            if (fresh) {
                r.staged[rec.seq] = rec;
                // Durable stage *before* the ack departs — the
                // quorum-overlap argument under correlated cold
                // boots rests on this persist, and the ack pays
                // for it in simulated time.
                ackReady = persistMeta(r);
            }
            // The chain check verified the predecessor epoch, which
            // by log matching pins the entire prefix.
            r.matchedSeq = std::max(r.matchedSeq, rec.seq);
        } else {
            requestSync(r);
        }
        ackReady = std::max(ackReady, applyCommitted(r, m.commit));
        replyHbAck(r, m.from, ackReady, MsgKind::ProposeAck);
    }

    void
    onAck(Replica &r, const Msg &m)
    {
        if (m.epoch > r.epoch) {
            adoptEpoch(r, m.epoch);
            return;
        }
        if (r.role != Role::Leader || m.epoch != r.epoch)
            return;
        updatePeer(r, m.from, m.seq);
        advanceCommit(r);
    }

    // --- elections ------------------------------------------------

    /**
     * Adopt a higher epoch. An ex-leader returns its un-committed
     * proposals to the durable staged tail (they may have reached a
     * quorum — truncating them would break the overlap argument) and
     * drops their waiters un-acked; clients retry idempotently.
     */
    void
    adoptEpoch(Replica &r, std::uint64_t epoch)
    {
        if (epoch <= r.epoch)
            return;
        const bool wasLeader = r.role == Role::Leader;
        if (wasLeader) {
            ++res.stepDowns;
            localDemote(r);
        }
        // The verified prefix regresses to the committed one: any
        // staged tail past it belongs to the OLD epoch's chain, and
        // advertising it as `held` to the new leader would let a
        // commit count entries of a chain the new leader may be about
        // to overwrite (a phantom quorum). The new leader's propose
        // stream re-verifies the tail record by record; entries that
        // do survive re-advance matchedSeq through the chain check.
        r.matchedSeq = r.seqApplied;
        r.epoch = epoch;
        r.role = Role::Follower;
        r.votesMask = 0;
        persistMeta(r);
        if (wasLeader)
            recomputeAvailability();
    }

    // --- pre-vote (Raft §9.6) -------------------------------------
    //
    // An election-timeout fires a *probe* first: would a majority
    // grant me epoch+1? Grants are non-durable and change no state on
    // either side; only a majority of them converts into a real
    // candidacy. A partitioned minority replica therefore probes
    // forever without burning epochs, and on heal it rejoins at the
    // fleet's epoch instead of deposing a healthy leader with an
    // inflated one.

    void
    startPreVote(Replica &r)
    {
        ++res.preVoteRounds;
        r.preVoteEpoch = r.epoch + 1;
        r.preVotesMask = std::uint64_t(1) << r.id;
        if (std::uint64_t(__builtin_popcountll(r.preVotesMask))
            >= majority()) {
            r.preVoteEpoch = 0;
            startElection(r);  // single-replica cluster
            return;
        }
        Msg m = msgFrom(r, MsgKind::PreVote);
        m.epoch = r.preVoteEpoch;  // prospective; nobody adopts it
        m.seq = r.stagedTop();
        m.lastEpoch = epochAt(r, r.stagedTop());
        broadcast(r, m, controlMsgBytes);
    }

    void
    onPreVote(Replica &r, const Msg &m)
    {
        const Tick now = eq.now();
        // Same stickiness as the real vote: anyone in contact with a
        // leader refuses the probe.
        if (r.role == Role::Leader)
            return;
        if (now - r.lastLeaderHeard < electionTimeout)
            return;
        if (m.epoch <= r.epoch)
            return;  // probe for an epoch we already reached
        if (!upToDate(r, m))
            return;
        // Grant without persisting anything: a pre-vote is a
        // prediction, not a promise, so it needs no durability and
        // does not constrain the real vote.
        Msg g = msgFrom(r, MsgKind::PreVoteGrant);
        g.epoch = m.epoch;
        sendMsg(r, m.from, g, controlMsgBytes);
    }

    void
    onPreVoteGrant(Replica &r, const Msg &m)
    {
        if (r.role == Role::Leader || r.preVoteEpoch == 0
            || m.epoch != r.preVoteEpoch
            || m.epoch != r.epoch + 1)
            return;  // stale probe (epoch moved since it left)
        ++res.preVotesGranted;
        r.preVotesMask |= std::uint64_t(1) << m.from;
        if (std::uint64_t(__builtin_popcountll(r.preVotesMask))
            >= majority()) {
            r.preVoteEpoch = 0;
            startElection(r);
        }
    }

    void
    startElection(Replica &r)
    {
        ++res.elections;
        r.epoch += 1;
        r.role = Role::Candidate;
        r.leaderKnown = invalidReplica;
        // Durable vote for self before soliciting anyone — the
        // solicitations wait out the persist.
        r.voteWord = r.epoch * 64 + r.id + 1;
        const Tick votedBy = persistMeta(r);
        r.votesMask = std::uint64_t(1) << r.id;
        if (std::uint64_t(__builtin_popcountll(r.votesMask))
            >= majority()) {
            becomeLeader(r);  // single-replica cluster
            return;
        }
        Msg m = msgFrom(r, MsgKind::RequestVote);
        m.seq = r.stagedTop();
        m.lastEpoch = epochAt(r, r.stagedTop());
        broadcast(r, m, controlMsgBytes, votedBy);
    }

    void
    onRequestVote(Replica &r, const Msg &m)
    {
        const Tick now = eq.now();
        // Stickiness: while a leader is being heard, ignore
        // candidates entirely (a laggard rejoining mid-sync must not
        // depose a healthy leader).
        if (r.role == Role::Leader)
            return;
        if (now - r.lastLeaderHeard < electionTimeout)
            return;
        if (m.epoch > r.epoch)
            adoptEpoch(r, m.epoch);
        if (m.epoch != r.epoch)
            return;  // stale candidacy
        const std::uint64_t votedEpoch =
            r.voteWord == 0 ? 0 : (r.voteWord - 1) / 64;
        const std::uint32_t votedFor =
            r.voteWord == 0
                ? invalidReplica
                : static_cast<std::uint32_t>((r.voteWord - 1) % 64);
        const bool canVote = r.voteWord == 0 || votedEpoch < m.epoch
            || (votedEpoch == m.epoch && votedFor == m.from);
        if (!canVote || !upToDate(r, m))
            return;
        r.voteWord = m.epoch * 64 + m.from + 1;
        // The vote is durable before the grant leaves — the grant
        // departure waits out the persist.
        const Tick votedBy = persistMeta(r);
        r.lastLeaderHeard = now;  // back off our own candidacy a beat
        Msg g = msgFrom(r, MsgKind::VoteGrant);
        sendMsg(r, m.from, g, controlMsgBytes, votedBy);
    }

    void
    onVoteGrant(Replica &r, const Msg &m)
    {
        if (r.role != Role::Candidate || m.epoch != r.epoch)
            return;
        r.votesMask |= std::uint64_t(1) << m.from;
        if (std::uint64_t(__builtin_popcountll(r.votesMask))
            >= majority())
            becomeLeader(r);
    }

    void
    becomeLeader(Replica &r)
    {
        ++res.leaderChanges;
        r.role = Role::Leader;
        r.leaderKnown = r.id;
        r.leaderEpochSeen = r.epoch;
        r.lastLeaderHeard = eq.now();
        r.pendingOps.clear();
        r.pendingByReq.clear();
        r.lastProposedVersion.clear();
        // Make the pool authoritative for version assignment: commit
        // and drain any op-log backlog before taking writes.
        Tick t = eq.now();
        r.flushLog(t);
        // Adopt the whole durable tail, re-tagged with the new epoch
        // (the re-tag is the "current-term barrier": commits only
        // ever count quorums of current-epoch records). The records
        // are *mirrored* into pendingOps, never moved: they stay in
        // the durable staged map until the committed prefix covers
        // them, so the persisted watermark cannot regress and a cold
        // boot before the re-commit still finds them — these records
        // may have committed (and been client-acked) under a prior
        // epoch, and the quorum-overlap argument counts this copy.
        std::uint64_t s = r.seqApplied;
        while (true) {
            auto it = r.staged.find(s + 1);
            if (it == r.staged.end())
                break;
            it->second.epoch = r.epoch;
            const ReplRecord &rec = it->second;
            s = rec.seq;
            PendingOp op;
            op.rec = rec;
            r.pendingOps.emplace(rec.seq, std::move(op));
            r.pendingByReq[rec.reqId] = rec.seq;
            r.lastProposedVersion[rec.key] = rec.version;
        }
        // The tail is contiguous by invariant; any straggler past a
        // gap cannot be re-proposed under this epoch (mirrors the
        // cold-boot trim).
        r.staged.erase(r.staged.upper_bound(s), r.staged.end());
        r.matchedSeq = s;
        r.nextSeq = s + 1;
        const Tick stagedBy = persistMeta(r);
        for (Peer &pe : r.peers) {
            pe = Peer{};
            pe.lastAck = eq.now();
        }
        // Immediate round: announce, and re-propose the adopted tail
        // (after its re-tagged stage is durable).
        hbRound(r);
        for (const auto &[seq, op] : r.pendingOps)
            for (std::uint32_t p = 0; p < cfg.replicas; ++p)
                if (p != r.id)
                    proposeOne(r, p, op.rec, stagedBy);
        advanceCommit(r);
        if (!r.hbArmed) {
            r.hbArmed = true;
            armHeartbeat(r);
        }
        recomputeAvailability();
    }

    // --- heartbeats -----------------------------------------------

    void
    armHeartbeat(Replica &r)
    {
        const std::uint64_t g = r.gen;
        eq.scheduleIn(heartbeatInterval, [this, rp = &r, g] {
            if (g != rp->gen)
                return;  // power event; cutFire cleared hbArmed
            if (rp->role != Role::Leader) {
                rp->hbArmed = false;
                return;
            }
            // A dump-stalled leader skips the round (its silence is
            // what lets S-CheckPC leaders get falsely deposed) but
            // keeps the cadence.
            if (rp->canServe())
                hbRound(*rp);
            armHeartbeat(*rp);
        });
    }

    void
    hbRound(Replica &r)
    {
        const Tick now = eq.now();
        bool changed = false;
        for (std::uint32_t p = 0; p < cfg.replicas; ++p) {
            if (p == r.id)
                continue;
            Peer &pe = r.peers[p];
            if (pe.synced && now - pe.lastAck > replicaTimeout) {
                pe.synced = false;
                changed = true;
            }
            Msg hb = msgFrom(r, MsgKind::Heartbeat);
            hb.seq = r.nextSeq - 1;
            hb.commit = r.seqApplied;
            hb.lastEpoch = r.appliedEpoch;
            ++res.heartbeats;
            sendMsg(r, p, hb, controlMsgBytes);
            // Retransmit a window of pending proposals to laggards —
            // a proposal sent into a dead replica (or eaten by the
            // network) is otherwise never re-sent and the commit
            // would stall forever. The rounds back off exponentially
            // per fruitless re-send (capped, reset by any forward
            // progress in updatePeer), so a partitioned follower is
            // not hammered with the same window every heartbeat.
            if (pe.held < r.nextSeq - 1 && now >= pe.nextResendAt) {
                std::uint64_t n = 0;
                for (auto it = r.pendingOps.upper_bound(pe.held);
                     it != r.pendingOps.end()
                     && n < retransmitWindow;
                     ++it, ++n)
                    proposeOne(r, p, it->second.rec);
                if (n != 0) {
                    res.retransmits += n;
                    pe.resendBackoff = pe.resendBackoff == 0
                        ? heartbeatInterval
                        : std::min(pe.resendBackoff * 2,
                                   retransmitBackoffCap);
                    pe.nextResendAt = now + pe.resendBackoff;
                }
            }
        }
        if (changed)
            recomputeAvailability();
    }

    // --- catch-up -------------------------------------------------

    void
    requestSync(Replica &r)
    {
        if (r.leaderKnown == invalidReplica
            || r.leaderKnown >= cfg.replicas)
            return;
        const Tick now = eq.now();
        // Unanswered requests re-issue on a capped doubling schedule
        // (reset when any sync payload arrives): a lossy or severed
        // path to the leader must not turn into a request storm.
        const Tick wait =
            r.syncBackoff == 0 ? replicaTimeout : r.syncBackoff;
        if (r.syncInFlight && now - r.syncRequestedAt < wait)
            return;
        if (r.syncInFlight) {
            ++res.syncRetries;
            r.syncBackoff = std::min(wait * 2, syncRetryCap);
        } else {
            r.syncBackoff = replicaTimeout;
        }
        r.syncInFlight = true;
        r.syncRequestedAt = now;
        Msg m = msgFrom(r, MsgKind::SyncRequest);
        m.seq = r.seqApplied;
        sendMsg(r, r.leaderKnown, m, controlMsgBytes);
    }

    void
    onSyncRequest(Replica &r, const Msg &m)
    {
        if (r.role != Role::Leader)
            return;
        const std::uint64_t from_seq = m.seq;
        if (from_seq >= r.seqApplied)
            return;  // retransmit window covers the pending tail
        const bool haveDelta = !r.journal.empty()
            && r.journal.begin()->first <= from_seq + 1;
        if (haveDelta) {
            auto recs =
                std::make_shared<std::vector<ReplRecord>>();
            for (auto it = r.journal.upper_bound(from_seq);
                 it != r.journal.end() && it->first <= r.seqApplied;
                 ++it)
                recs->push_back(it->second);
            ++res.syncDeltas;
            res.syncRecords += recs->size();
            const std::uint64_t bytes = controlMsgBytes
                + recs->size() * replRecordBytes;
            res.syncBytes += bytes;
            Msg d = msgFrom(r, MsgKind::SyncDelta);
            d.commit = r.seqApplied;
            d.lastEpoch = r.appliedEpoch;
            d.recs = recs;
            sendMsg(r, m.from, d, bytes);
        } else {
            // The journal window moved past the rejoiner (it was
            // dark through a cold boot): ship the whole machine
            // state over the link, op-log backlog drained first.
            Tick t = eq.now();
            r.flushLog(t);
            ++res.syncFulls;
            res.syncBytes += resyncStateBytes;
            Msg f = msgFrom(r, MsgKind::SyncFull);
            f.commit = r.seqApplied;
            f.lastEpoch = r.appliedEpoch;
            f.snap = std::make_shared<std::vector<net::KvKeyState>>(
                r.kv->snapshotRecords());
            sendMsg(r, m.from, f, resyncStateBytes);
        }
    }

    void
    onSyncDelta(Replica &r, const Msg &m)
    {
        r.syncInFlight = false;
        r.syncBackoff = 0;
        if (m.epoch < r.epoch)
            return;
        observeLeader(r, m);
        Tick t = eq.now();
        bool any = false;
        for (const ReplRecord &rec : *m.recs) {
            if (rec.seq <= r.seqApplied)
                continue;
            if (rec.seq != r.seqApplied + 1)
                break;
            applyRecord(r, t, rec);
            any = true;
        }
        if (any) {
            pruneJournal(r);
            // Drop only the staged prefix the applies just covered.
            // Entries PAST the applied point must survive: they are
            // durable and were acked as `held` — a leader's commit
            // quorum may rest on this very copy, and erasing it
            // would let a later election pick a leader without a
            // committed record (acked-then-lost). A survivor that
            // conflicts with the live chain is truncated by the
            // propose stream's append-conflict rule; until then it
            // is not advertised (matchedSeq regresses to the
            // committed prefix below).
            r.staged.erase(r.staged.begin(),
                           r.staged.upper_bound(r.seqApplied));
            r.matchedSeq = r.seqApplied;
            persistWatermark(r, t);
            replyHbAck(r, m.from, t);
        }
    }

    void
    onSyncFull(Replica &r, const Msg &m)
    {
        r.syncInFlight = false;
        r.syncBackoff = 0;
        if (m.epoch < r.epoch)
            return;
        observeLeader(r, m);
        if (m.commit <= r.seqApplied) {
            // Stale or duplicated snapshot (a jittered re-delivery,
            // or an answer to a request the delta path already
            // satisfied): it carries nothing past our applied prefix,
            // and clearing the durable tail for it would throw away
            // verified records. Just tell the leader where we are.
            replyHbAck(r, m.from);
            return;
        }
        Tick t = eq.now();
        for (const net::KvKeyState &ks : *m.snap)
            r.kv->applyReplicated(t, ks.lastReqId, ks.key,
                                  ks.valueSeed, ks.version);
        r.seqApplied = m.commit;
        r.appliedEpoch = m.lastEpoch;
        // Same rule as the delta path: erase only the covered
        // prefix, never the durable acked tail past it.
        r.staged.erase(r.staged.begin(),
                       r.staged.upper_bound(r.seqApplied));
        r.journal.clear();
        r.matchedSeq = r.seqApplied;
        r.kv->persistClusterMeta(t, metaOf(r));
        replyHbAck(r, m.from, t);
    }

    void
    handleMsg(Replica &r, const Msg &m)
    {
        switch (m.kind) {
        case MsgKind::Heartbeat: onHeartbeat(r, m); break;
        case MsgKind::HbAck: onAck(r, m); break;
        case MsgKind::Propose: onPropose(r, m); break;
        case MsgKind::ProposeAck: onAck(r, m); break;
        case MsgKind::PreVote: onPreVote(r, m); break;
        case MsgKind::PreVoteGrant: onPreVoteGrant(r, m); break;
        case MsgKind::RequestVote: onRequestVote(r, m); break;
        case MsgKind::VoteGrant: onVoteGrant(r, m); break;
        case MsgKind::SyncRequest: onSyncRequest(r, m); break;
        case MsgKind::SyncDelta: onSyncDelta(r, m); break;
        case MsgKind::SyncFull: onSyncFull(r, m); break;
        }
    }

    // --- election timer -------------------------------------------

    void
    armElection(Replica &r, Tick delay)
    {
        const std::uint64_t g = r.gen;
        eq.scheduleIn(delay, [this, rp = &r, g] {
            if (g != rp->gen)
                return;  // the chain restarts at serviceUpFire
            if (rp->canServe() && rp->role != Role::Leader
                && !rp->syncInFlight
                && eq.now() - rp->lastLeaderHeard >= electionTimeout)
                startPreVote(*rp);
            armElection(*rp, electionTimeout
                                 + rp->ctrlRng.below(electionJitter + 1));
        });
    }

    // --- S-CheckPC periodic dump (per replica, staggered) ---------

    void
    armScheck(Replica &r, Tick delay)
    {
        const std::uint64_t g = r.gen;
        eq.scheduleIn(delay, [this, rp = &r, g] {
            if (g == rp->gen)
                scheckFire(*rp);
        });
    }

    void
    scheckFire(Replica &r)
    {
        const Tick now = eq.now();
        if (r.canServe()) {
            const Tick done = r.startDump(now);
            recomputeAvailability();
            const std::uint64_t g = r.gen;
            eq.schedule(done, [this, rp = &r, g] {
                if (g != rp->gen)
                    return;
                rp->endDump();
                rp->kickTx();
                recomputeAvailability();
            });
        }
        armScheck(r, cfg.scheckPeriod);
    }

    // --- power events ---------------------------------------------

    /** An ex-leader's volatile proposals fold back into the tail. */
    void
    localDemote(Replica &r)
    {
        for (auto &[seq, op] : r.pendingOps)
            r.staged[seq] = op.rec;
        r.pendingOps.clear();
        r.pendingByReq.clear();
        r.lastProposedVersion.clear();
        r.journal.erase(r.journal.upper_bound(r.seqApplied),
                        r.journal.end());
        r.matchedSeq = r.seqApplied;
        r.role = Role::Follower;
    }

    void
    cutFire(std::uint32_t rid)
    {
        Replica &r = *reps[rid];
        const Tick now = eq.now();
        ++res.cutsInjected;
        if (!r.powerOn) {
            // A second storm cut on an already-dark replica extends
            // the outage.
            scheduleRestore(r, now + cfg.offDwell);
            return;
        }
        r.recorder.outageBegin(now);
        r.hbArmed = false;
        if (!r.serviceUp) {
            // Cut inside the recovery window: the in-progress resume
            // dies; the supervisor backs off and escalates.
            ++res.resumeFailures;
            ++r.failedResumes;
            r.abortRecovery(now);
        } else {
            r.dumpStall = false;
            r.powerFail(now);
        }
        scheduleRestore(r, now + cfg.offDwell);
        recomputeAvailability();
    }

    void
    scheduleRestore(Replica &r, Tick at)
    {
        const std::uint64_t g = ++r.restoreGen;
        eq.schedule(
            at,
            [this, rp = &r, g] {
                if (g == rp->restoreGen)
                    restoreFire(*rp);
            },
            EventPriority::PowerEvent);
    }

    void
    restoreFire(Replica &r)
    {
        const Tick now = eq.now();
        r.restorePower();
        // Supervisor escalation: past the attempt budget the EP-cut
        // image is suspect — invalidate it and take the degraded
        // cold-boot path deliberately.
        const bool sngMode = cfg.mode == net::PersistMode::SnG
            || cfg.mode == net::PersistMode::OpLog;
        if (sngMode && r.failedResumes >= cfg.maxResumeAttempts
            && r.sys->sng().hasCommit()) {
            r.sys->sng().invalidateCommit(now);
            ++res.degradedColdBoots;
            r.coldBootPending = true;
        }
        const net::Machine::Recovery rec = r.recover(now);
        if (rec.coldBoot)
            reloadReplicationState(r);
        Tick upAt = rec.upAt;
        // Back off after failed resume attempts (capped).
        if (r.failedResumes > 0) {
            const Tick backoff = std::min<Tick>(
                fault::SupervisorConfig::retryBackoff
                    << std::min<std::uint32_t>(r.failedResumes - 1,
                                               16),
                fault::SupervisorConfig::backoffCap);
            upAt += backoff;
        }
        const std::uint64_t g = r.gen;
        eq.schedule(upAt, [this, rp = &r, g] {
            if (g == rp->gen)
                serviceUpFire(*rp);
        });
    }

    /**
     * After a cold boot the volatile replication state is gone;
     * reload the durable words. The staged tail is durable (persisted
     * before every ack) — only entries the committed prefix has since
     * covered drop out. The journal, pending proposals, and leader
     * role are DRAM casualties.
     */
    void
    reloadReplicationState(Replica &r)
    {
        const net::ClusterMeta meta = r.kv->clusterMeta();
        r.epoch = meta.epoch;
        r.voteWord = meta.voteWord;
        r.seqApplied = meta.commit;
        r.appliedEpoch = meta.commitEpoch;
        r.staged.erase(r.staged.begin(),
                       r.staged.upper_bound(r.seqApplied));
        // An ex-leader's proposals lived in pendingOps (volatile):
        // honest verified top = the contiguous durable tail.
        std::uint64_t top = r.seqApplied;
        while (r.staged.count(top + 1))
            ++top;
        r.staged.erase(r.staged.upper_bound(top), r.staged.end());
        r.matchedSeq = r.seqApplied;
        r.journal.clear();
        r.pendingOps.clear();
        r.pendingByReq.clear();
        r.lastProposedVersion.clear();
        r.metaDirty = false;
        r.role = Role::Follower;
        r.leaderKnown = invalidReplica;
        r.votesMask = 0;
        r.syncInFlight = false;
    }

    void
    serviceUpFire(Replica &r)
    {
        r.dumpStall = false;
        r.failedResumes = 0;
        // Every recovery re-enters as a follower; a surviving leader
        // (or a fresh election) re-establishes the epoch. A warm
        // Stop-and-Go resume keeps its durable+DRAM log state.
        if (r.role == Role::Leader)
            localDemote(r);
        r.role = Role::Follower;
        r.votesMask = 0;
        r.syncInFlight = false;
        // Candidacy pacing comes from the armed election timer
        // alone; lastLeaderHeard is left stale so this replica can
        // GRANT (pre-)votes immediately. A booted replica is the
        // least qualified judge of the fleet — resetting the mark
        // here made it refuse a quietly-probing up-to-date survivor
        // for a whole timeout, and at the grace expiry two equally
        // stale rejoiners could convert each other's probes first
        // and elect a leader missing committed records. A live
        // leader restores stickiness with its first heartbeat.
        armElection(r, electionTimeout
                           + r.ctrlRng.below(electionJitter + 1));
        if (cfg.mode == net::PersistMode::SCheckPc)
            armScheck(r, cfg.scheckPeriod);
        r.resumeService();
        recomputeAvailability();
    }

    // --- assembly -------------------------------------------------

    void
    finish()
    {
        const Tick horizon = cfg.runFor + cfg.drainGrace;
        accountTo(horizon);
        if (!writeOkNow)
            res.worstWriteGap = std::max(res.worstWriteGap,
                                         horizon - writeDownSince);
        res.writeAvailability = 1.0
            - static_cast<double>(res.writeUnavailableTicks)
                / static_cast<double>(horizon);
        res.readAvailability = 1.0
            - static_cast<double>(res.readUnavailableTicks)
                / static_cast<double>(horizon);

        const net::FleetStats &fs = fleet.stats();
        res.arrivals = fs.arrivals;
        res.attempts = fs.attempts;
        res.completed = fs.completed;
        res.failed = fs.failed;
        res.redirects = fs.redirects;
        res.ackedPuts = fs.ackedPuts;
        res.fastRedirects = fs.fastRedirects;
        res.redirectFallbacks = fs.redirectFallbacks;
        if (res.preVoteRounds > res.elections)
            res.electionsSuppressed = res.preVoteRounds - res.elections;

        const fault::NemesisStats &ns = nemesis.stats();
        res.msgsDropped = ns.dropped;
        res.msgsDuplicated = ns.duplicated;
        res.partitionCuts = ns.partitionCuts;
        res.flapCuts = ns.flapCuts;

        // Merge the per-replica recorders in id order (the merge is
        // order-independent; id order keeps the digest canonical), and
        // sum the machines' power-path counters.
        net::AvailabilityRecorder merged;
        for (const auto &rp : reps) {
            merged.merge(rp->recorder);
            res.resumes += rp->stats.resumes;
            res.coldBoots += rp->stats.coldBoots;
            res.ringPreservedFrames += rp->stats.ringPreservedFrames;
            res.ringFramesLost += rp->stats.ringFramesLost;
        }
        for (const auto &o : merged.outageRecords())
            res.outages.push_back(net::serviceOutage(o, cfg.offDwell));

        // Acked-durability audit against the most advanced replica:
        // every client-acked PUT must still be durable there (the
        // commit chain guarantees the max-seqApplied replica holds
        // the full committed prefix).
        const Replica *best = reps[0].get();
        for (const auto &rp : reps)
            if (rp->seqApplied > best->seqApplied)
                best = rp.get();
        for (const net::AckedPut &put : fleet.ackedPuts()) {
            if (best->kv->logPending(put.reqId))
                continue;
            if (best->kv->appliedVersion(put.reqId)) {
                const auto st = best->kv->lookup(put.key);
                if (!st || st->version < put.version) {
                    ++res.lostAckedPuts;
                    violation("acked PUT's key version regressed on "
                              "the most advanced replica");
                }
                continue;
            }
            ++res.lostAckedPuts;
            violation("acked PUT missing from the most advanced "
                      "replica (acked-then-lost)");
        }

        // Linearizability audit over the recorded invoke/ack history.
        const HistoryAuditResult audit =
            auditHistory(fleet.history(), fleet.putIssues());
        res.auditedWrites = audit.writes;
        res.auditedReads = audit.reads;
        res.staleReads = audit.staleReads;
        res.notFoundReads = audit.notFoundReads;
        res.lostUpdates = audit.lostUpdates;
        res.orderInversions = audit.orderInversions;
        res.phantomReads = audit.phantomReads;
        res.valueDivergences = audit.valueDivergences;
        for (const std::string &v : audit.violations)
            violation(v);

        sim::Fnv64 d;
        d.mix(res.arrivals);
        d.mix(res.attempts);
        d.mix(res.completed);
        d.mix(res.failed);
        d.mix(res.ackedPuts);
        d.mix(res.redirects);
        d.mix(res.elections);
        d.mix(res.leaderChanges);
        d.mix(res.stepDowns);
        d.mix(res.proposals);
        d.mix(res.commits);
        d.mix(res.heartbeats);
        d.mix(res.ctrlDrops);
        d.mix(res.syncDeltas);
        d.mix(res.syncFulls);
        d.mix(res.syncRecords);
        d.mix(res.resumes);
        d.mix(res.coldBoots);
        d.mix(res.resumeFailures);
        d.mix(res.degradedColdBoots);
        d.mix(res.cutsInjected);
        d.mix(res.writeUnavailableTicks);
        d.mix(res.readUnavailableTicks);
        d.mix(res.worstWriteGap);
        d.mix(res.readOnlySpans);
        d.mix(res.lostAckedPuts);
        d.mix(res.splitBrainEpochs);
        d.mix(res.divergentCommits);
        d.mix(res.preVoteRounds);
        d.mix(res.preVotesGranted);
        d.mix(res.electionsSuppressed);
        d.mix(res.retransmits);
        d.mix(res.syncRetries);
        d.mix(res.msgsDropped);
        d.mix(res.msgsDuplicated);
        d.mix(res.msgsReordered);
        d.mix(res.partitionCuts);
        d.mix(res.flapCuts);
        d.mix(res.fastRedirects);
        d.mix(res.redirectFallbacks);
        d.mix(res.duplicateAckAudits);
        d.mix(res.auditedWrites);
        d.mix(res.auditedReads);
        d.mix(res.staleReads);
        d.mix(res.notFoundReads);
        d.mix(res.lostUpdates);
        d.mix(res.orderInversions);
        d.mix(res.phantomReads);
        d.mix(res.valueDivergences);
        for (const auto &rp : reps) {
            d.mix(rp->seqApplied);
            d.mix(rp->epoch);
            d.mix(rp->kv->appliedCount());
        }
        d.mix(merged.latency().percentile(0.99));
        d.mix(merged.lastSuccessAt());
        for (const net::ServiceOutage &o : res.outages)
            d.mix(o.downtime);
        res.digest = d.h;
    }

    ClusterResult
    run()
    {
        eq.schedule(fleet.nextInterarrival(),
                    [this] { arrivalFire(); });
        for (const auto &rp : reps) {
            Replica &r = *rp;
            // Replica 0 fires its first election timer with no
            // jitter; everyone else waits at least one jitter span
            // more. The bootstrap leader is deterministic — and it
            // lives in rack 0, the first storm's target.
            const Tick delay = r.id == 0
                ? electionTimeout
                : electionTimeout + electionJitter
                    + r.ctrlRng.below(electionJitter + 1);
            armElection(r, delay);
            if (cfg.mode == net::PersistMode::SCheckPc)
                armScheck(r, cfg.scheckPeriod
                                 + r.id * (cfg.scheckPeriod
                                           / cfg.replicas));
        }
        // Storm schedule: a pure function of (seed, shape) — the
        // same cuts replay against every persistence mode.
        fault::CutStorm gen(Rng::streamSeed(cfg.seed, 0xc157e5ULL));
        const auto schedule = gen.correlated(
            cfg.runFor / 5, cfg.runFor, cfg.storms, cfg.replicas,
            cfg.racks, cfg.stormRackSpan, cfg.stormWindow);
        for (const fault::CorrelatedStorm &storm : schedule)
            for (const fault::ReplicaCut &cut : storm.cuts)
                eq.schedule(
                    cut.at,
                    [this, rid = cut.replica] { cutFire(rid); },
                    EventPriority::PowerEvent);

        eq.run(cfg.runFor + cfg.drainGrace);
        finish();
        return res;
    }
};

} // namespace

void
validateClusterConfig(const ClusterConfig &config)
{
    if (config.replicas == 0)
        fatal("ClusterConfig: replicas must be >= 1");
    if (config.replicas > 64)
        fatal("ClusterConfig: replicas must be <= 64 (vote and ack "
              "masks are one machine word)");
    if (config.racks == 0)
        fatal("ClusterConfig: racks must be >= 1");
    if (config.racks > config.replicas)
        fatal("ClusterConfig: racks (", config.racks,
              ") must not exceed replicas (", config.replicas,
              "); an empty rack cannot host a replica");
    if (config.stormRackSpan == 0)
        fatal("ClusterConfig: stormRackSpan must be >= 1");
    if (config.stormRackSpan > config.racks)
        fatal("ClusterConfig: stormRackSpan (", config.stormRackSpan,
              ") must not exceed racks (", config.racks, ")");
    if (config.storms > 0 && config.stormWindow == 0)
        fatal("ClusterConfig: stormWindow must be nonzero when "
              "storms are configured");
    if (config.storms > 0 && config.offDwell == 0)
        fatal("ClusterConfig: offDwell must be nonzero when storms "
              "are configured (a zero-length outage never restores)");
    if (config.maxResumeAttempts == 0)
        fatal("ClusterConfig: maxResumeAttempts must be >= 1");
    if (config.agingSpread < 0.0 || config.agingSpread > 1.0)
        fatal("ClusterConfig: agingSpread (", config.agingSpread,
              ") must be within [0, 1]");
    net::validateMachineParams(config, config.runFor, "ClusterConfig");
    fault::validateNemesisConfig(config.nemesis, config.replicas,
                                 config.racks);
}

ClusterResult
runCluster(const ClusterConfig &config)
{
    validateClusterConfig(config);
    Plane plane(config);
    return plane.run();
}

} // namespace lightpc::cluster
