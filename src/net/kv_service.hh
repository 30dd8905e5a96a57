/**
 * @file
 * KV/RPC server over the persistent object pool.
 *
 * Data plane: an open-addressed key table plus a persistent request-
 * ID dedup set, both inside one root object of a PMDK-style
 * ObjectPool on OC-PMEM, with two selectable write paths:
 *
 *  - WritePath::Undo (default): every PUT runs as an undo-logged
 *    transaction that updates the key slot, the dedup entry, and the
 *    applied counter together; the acknowledgement is only sent after
 *    commit truncation, so an acked PUT is durable by construction.
 *  - WritePath::OpLog: the Persimmon-style fast path. A PUT appends
 *    one 64-byte record to a persistent circular op log (net::OpLog)
 *    and its ack is *deferred* until the next group commit (one
 *    8-byte tail persist + fence covering the whole batch); a
 *    background drain applies committed records to the pool through
 *    the same undo-logged transaction and advances the log head.
 *    Acked => committed => durable still holds; crash recovery scans
 *    the log from the durable head, discards the torn tail by
 *    checksum/sequence, and replays idempotently through the dedup
 *    set.
 *
 * Either way the store's write clock advances at every stage, so a
 * power cut mid-operation drops a *suffix* of the writes and recovery
 * (pool reopen + log replay) restores exactly the committed state.
 *
 * The dedup set is *bounded*: entries carry their apply tick, and
 * when the table fills past 3/4 a compaction transaction evicts
 * entries older than the retention horizon — set from the client
 * fleet's worst-case retry span, so an ID is only forgotten once no
 * conforming client can still retry it. The persisted dedupFloor and
 * compactedCount keep the audit exact across compactions.
 *
 * Control plane: a bounded admission queue with backpressure
 * (Rejected when full) and per-request absolute deadlines
 * (DeadlineExceeded at dequeue, without applying).
 */

#ifndef LIGHTPC_NET_KV_SERVICE_HH
#define LIGHTPC_NET_KV_SERVICE_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "net/op_log.hh"
#include "net/rpc.hh"
#include "persist/object_pool.hh"
#include "sim/ticks.hh"

namespace lightpc::net
{

/** How PUTs reach the pool. */
enum class WritePath
{
    Undo,   ///< synchronous undo-logged transaction per PUT
    OpLog,  ///< append + group commit, background drain applies
};

/** Service sizing and per-operation costs. */
struct KvParams
{
    /** Open-addressed key-table slots (power of two). */
    std::uint32_t keyCapacity = 4096;

    /** Persistent dedup-set slots (power of two). */
    std::uint32_t dedupCapacity = 1 << 15;

    /**
     * Dedup retention horizon: entries applied longer ago than this
     * may be evicted by compaction. Must exceed the worst-case span
     * over which a conforming client can still retry a request ID
     * (FleetParams::maxRetrySpan() plus wire margins).
     */
    Tick dedupRetention = 4 * tickSec;

    /** PUT write path. */
    WritePath writePath = WritePath::Undo;

    /** Op-log placement/size (base 0 = right after the pool). */
    OpLogParams oplog;

    /** Admission-queue bound (backpressure past this). */
    std::uint32_t queueCapacity = 512;

    /** RPC decode + handler dispatch. */
    static constexpr Tick parseCost = 3 * tickUs;

    /**
     * A-CheckPC baseline: synchronous per-request checkpoint copy of
     * this many stack/heap bytes (0 = off). Charged through the
     * timed memory so the overhead arises in the memory system.
     */
    std::uint64_t checkpointBytesPerOp = 0;
};

/** Service-side counters. */
struct KvStats
{
    std::uint64_t executed = 0;
    std::uint64_t scans = 0;
    std::uint64_t putsApplied = 0;     ///< new transactions committed
    std::uint64_t idempotentHits = 0;  ///< PUT retries already applied
    std::uint64_t rejected = 0;        ///< admission backpressure
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t queueDropped = 0;    ///< admitted but lost to cold boot
    std::uint64_t recoveries = 0;
    std::uint32_t maxQueueDepth = 0;

    // Op-log write path.
    std::uint64_t logAppends = 0;
    std::uint64_t logCommits = 0;        ///< group commits issued
    std::uint64_t logDrainApplied = 0;   ///< records applied by drain
    std::uint64_t logReplayApplied = 0;  ///< recovery replays applied
    std::uint64_t logReplaySkipped = 0;  ///< replays deduped away
    std::uint64_t logStallDrains = 0;    ///< appends that hit a full ring

    // Dedup compaction.
    std::uint64_t dedupCompactions = 0;
    std::uint64_t dedupEvicted = 0;
};

/** Key-table state exposed for oracle checks. */
struct KvKeyState
{
    std::uint64_t key = 0;
    std::uint64_t version = 0;
    std::uint64_t lastReqId = 0;
    std::uint64_t valueSeed = 0;
};

/**
 * Replication metadata persisted inside the root header. Five words
 * the cluster plane needs durable across power cuts: the highest
 * replication sequence this replica holds, its current epoch, the
 * encoded vote (epoch * 64 + votedFor + 1; 0 = never voted — durable
 * so a replica cannot vote twice in one epoch across a crash), the
 * highest *committed* sequence, and the epoch of the record at that
 * commit point (the election up-to-dateness comparator survives a
 * cold boot with it). Persisted with a small undo transaction so a
 * cut mid-update rolls the group back together.
 */
struct ClusterMeta
{
    std::uint64_t seq = 0;       ///< highest sequence held
    std::uint64_t epoch = 0;     ///< current election epoch
    std::uint64_t voteWord = 0;  ///< epoch*64 + votedFor + 1; 0 = none
    std::uint64_t commit = 0;    ///< highest committed sequence
    std::uint64_t commitEpoch = 0;  ///< epoch of the record at commit
};

/**
 * The server.
 */
class KvService
{
  public:
    /**
     * Open (or create) the service state in @p store; @p timed
     * charges the PSM-path line traffic of each operation.
     */
    KvService(mem::BackingStore &store, mem::TimedMem &timed,
              const KvParams &params = KvParams());

    const KvParams &params() const { return _params; }
    const KvStats &stats() const { return _stats; }

    // --- admission queue ------------------------------------------

    /** Admit a request. False = backpressure (caller sends Rejected). */
    bool admit(const RpcRequest &req);

    /** Dequeue the oldest admitted request. */
    bool queuePop(RpcRequest &out);

    std::uint32_t queueDepth() const
    {
        return static_cast<std::uint32_t>(queue.size());
    }
    std::uint32_t queueCapacity() const
    {
        return _params.queueCapacity;
    }

    /** Cold boot: the volatile admission queue is lost. */
    void dropQueue();

    // --- execution ------------------------------------------------

    /**
     * Execute one request. @p t advances by the full service time
     * (parse, probes, transaction, flushes); the store's write clock
     * tracks @p t stage by stage, so an armed power cut interacts
     * with the transaction exactly as the rails would.
     *
     * @p deferred (when non-null) is set true iff the response must
     * NOT be released until the next logCommit() completes — op-log
     * PUT appends and GETs that observed an uncommitted pending
     * value. The caller owns that group-commit barrier.
     */
    RpcResponse execute(Tick &t, const RpcRequest &req,
                        bool *deferred = nullptr);

    /**
     * Crash recovery: reopen the pool over the same region (rolling
     * back any uncommitted transaction), re-anchor the root, and —
     * on the op-log path — scan the log from the durable head,
     * discard the torn tail, and replay the valid run idempotently.
     */
    void recover(Tick &t);

    // --- op-log control (plane-driven group commit / drain) -------

    bool opLogEnabled() const
    {
        return _params.writePath == WritePath::OpLog;
    }

    /** Appended records not yet covered by a group commit. */
    std::uint64_t logUncommittedRecords() const;

    /** Committed records not yet applied to the pool. */
    std::uint64_t logBacklogRecords() const;

    /**
     * Group commit: persist the log tail over every appended record
     * and fence. After this returns, acks for the batch may release.
     */
    void logCommit(Tick &t);

    /**
     * Background drain step: apply up to @p max_records committed
     * records to the pool (skipping already-applied ones) and persist
     * the advanced head. @return records processed.
     */
    std::uint64_t logDrain(Tick &t, std::uint64_t max_records);

    /** Commit everything appended, then drain the whole backlog. */
    void logDrainAll(Tick &t);

    const OpLog *opLog() const { return _log ? &*_log : nullptr; }

    // --- oracle accessors (functional reads, no timing) -----------

    /** Key-table state for @p key. */
    std::optional<KvKeyState> lookup(std::uint64_t key) const;

    /** Every request ID in the persistent dedup set (slot order). */
    std::vector<std::uint64_t> appliedIds() const;

    /** The persistent applied-PUT counter. */
    std::uint64_t appliedCount() const;

    /** IDs evicted from the dedup set by compaction (persisted). */
    std::uint64_t compactedCount() const;

    /**
     * Persisted retention floor: every dedup entry applied at or
     * after this tick is guaranteed still present.
     */
    Tick dedupFloor() const;

    // --- cluster replication hooks --------------------------------

    /** The persisted replication metadata (root header words). */
    ClusterMeta clusterMeta() const;

    /**
     * Persist new replication metadata as one small undo transaction
     * over the four header words. Call AFTER the content the new
     * commit cursor describes is durable (post-apply / post-group-
     * commit), never before — the meta must not claim a commit the
     * rails could still tear away.
     */
    void persistClusterMeta(Tick &t, const ClusterMeta &meta);

    /**
     * Apply one replicated PUT through the shared undo transaction,
     * installing the absolute @p version fixed by the leader. Dedup
     * hits and stale versions (slot already at >= @p version, e.g. a
     * snapshot replayed over delta-applied state) are skipped.
     */
    void applyReplicated(Tick &t, std::uint64_t req_id,
                         std::uint64_t key, std::uint64_t value_seed,
                         std::uint64_t version);

    /**
     * Install one committed replicated record through this service's
     * write path. The op-log path appends it (skipping a record
     * already pending or applied) and leaves it for the plane-driven
     * group commit + drain, exactly like a local op-log PUT; the undo
     * path applies it (applyReplicated) and pays A-CheckPC's per-op
     * checkpoint.
     */
    void applyCommitted(Tick &t, std::uint64_t req_id, std::uint64_t key,
                        std::uint64_t value_seed, std::uint64_t version,
                        std::uint32_t client);

    /** Every occupied key slot (slot order) — full-resync payload. */
    std::vector<KvKeyState> snapshotRecords() const;

    /**
     * The version @p req_id's PUT committed at, if it is in the
     * persistent dedup set — the version an idempotent retry ack must
     * echo (NOT the key's current version, which may already belong
     * to a later write). Uncharged: no simulated time passes.
     */
    std::optional<std::uint64_t>
    appliedVersion(std::uint64_t req_id) const;

    /** Is @p req_id still sitting undrained in the op log? */
    bool logPending(std::uint64_t req_id) const
    {
        return pendingByReq.find(req_id) != pendingByReq.end();
    }

    /** Version a log-pending PUT was appended with (0 if unknown). */
    std::uint64_t
    pendingVersion(std::uint64_t req_id) const
    {
        const auto it = pendingByReq.find(req_id);
        return it == pendingByReq.end() ? 0 : it->second.version;
    }

    /** Occupied dedup slots (volatile mirror, audited in tests). */
    std::uint64_t dedupLiveCount() const { return dedupLive; }

    const persist::ObjectPool &pool() const { return *_pool; }

  private:
    struct KvSlot
    {
        std::uint64_t key = 0;  ///< 0 = empty
        std::uint64_t version = 0;
        std::uint64_t lastReqId = 0;
        std::uint64_t valueSeed = 0;
    };

    /**
     * Dedup slot: the ID, its apply tick (compaction input), and the
     * version the PUT committed at. Retries must be acked with the
     * version their own write got — echoing the key's current version
     * would make a delayed retransmission of an old write look like a
     * second ack of a newer one to the client-history audit.
     */
    struct DedupEntry
    {
        std::uint64_t id = 0;  ///< 0 = empty
        std::uint64_t appliedAt = 0;
        std::uint64_t version = 0;
    };

    struct RootHeader
    {
        std::uint64_t magic = 0;
        std::uint32_t keyCapacity = 0;
        std::uint32_t dedupCapacity = 0;
        std::uint64_t appliedCount = 0;
        std::uint64_t compactedCount = 0;
        std::uint64_t dedupFloor = 0;
        // Replication metadata (ClusterMeta image); the five words
        // are contiguous so persistClusterMeta can cover them with
        // one ranged undo entry.
        std::uint64_t replSeq = 0;
        std::uint64_t replEpoch = 0;
        std::uint64_t replVote = 0;
        std::uint64_t replCommit = 0;
        std::uint64_t replCommitEpoch = 0;
    };

    static constexpr std::uint64_t rootMagic =
        0x4b565f524f4f5434ULL;  // "KV_ROOT4" (DedupEntry grew version)

    /** Volatile record of a PUT sitting in the op log, undrained. */
    struct PendingPut
    {
        std::uint64_t key = 0;
        std::uint64_t version = 0;
        std::uint64_t valueSeed = 0;
        std::uint64_t seq = 0;  ///< log sequence number
    };

    /** A byte range of the root object. */
    struct RootRange
    {
        std::uint64_t off = 0;
        std::uint64_t bytes = 0;
    };

    std::uint64_t rootBytes() const;
    std::uint64_t keyTableOffset() const { return sizeof(RootHeader); }
    std::uint64_t
    slotOffset(std::uint32_t idx) const
    {
        return keyTableOffset() + std::uint64_t(idx) * sizeof(KvSlot);
    }
    std::uint64_t
    dedupOffset() const
    {
        return slotOffset(_params.keyCapacity);
    }
    std::uint64_t
    dedupEntryOffset(std::uint32_t idx) const
    {
        return dedupOffset() + std::uint64_t(idx) * sizeof(DedupEntry);
    }

    void openRoot(Tick &t);
    void openLog(Tick &t);

    /** Advance the store's write clock to @p t (stage boundary). */
    void clock(Tick t);

    static std::uint64_t hashOf(std::uint64_t x);

    /** Key-table probe: slot index holding @p key, or the first
     *  empty slot on its probe path. */
    std::uint32_t probeKey(std::uint64_t key, bool &found) const;

    /** Dedup probe: slot holding @p req_id, or first empty slot. */
    std::uint32_t probeDedup(std::uint64_t req_id, bool &found) const;

    RootHeader header() const;
    void readSlot(std::uint32_t idx, KvSlot &out) const;
    DedupEntry dedupAt(std::uint32_t idx) const;

    // The persist steps. Every PUT entry point is built from these,
    // so each step's simulated cost is stated once.

    /**
     * Probe the dedup set for @p req_id and charge the entry's read.
     * @return the version its PUT committed at, if already applied.
     */
    std::optional<std::uint64_t> chargeDedup(Tick &t,
                                             std::uint64_t req_id);

    /**
     * Probe the key table for @p key and charge the slot's read.
     * @return the slot's contents, if the key is present.
     */
    std::optional<KvSlot> chargeKey(Tick &t, std::uint64_t key);

    /**
     * Append a PUT record to the op log, first draining the whole
     * backlog when the ring is full against the persisted head, and
     * index it as pending.
     */
    void appendRecord(Tick &t, std::uint64_t req_id, std::uint64_t key,
                      std::uint64_t value_seed, std::uint64_t version,
                      std::uint32_t client);

    /** Begin an undo transaction over each root range in @p ranges. */
    void txOpen(Tick &t, std::initializer_list<RootRange> ranges);

    /** Write root bytes at @p off, clocked at @p t but not charged. */
    void putRoot(Tick t, std::uint64_t off, const void *in,
                 std::uint64_t bytes);

    /** putRoot(), then charge the write through the timed memory. */
    void writeRoot(Tick &t, std::uint64_t off, const void *in,
                   std::uint64_t bytes);

    /** Commit the open transaction and fence. */
    void txClose(Tick &t);

    /**
     * A-CheckPC's synchronous per-op checkpoint copy (no-op unless
     * checkpointBytesPerOp is set).
     */
    void chargeCheckpoint(Tick &t);

    /**
     * Visit each of the @p count @p Entry records at root offset
     * @p offset in order, reading them in runs of 256 (a few store
     * pages) instead of one entry at a time. Host-side only: charges
     * no simulated time.
     */
    template <typename Entry, typename Visit>
    void forEachEntry(std::uint64_t offset, std::uint32_t count,
                      Visit &&visit) const;

    /** Recount occupied dedup slots (ctor / recovery). */
    void rebuildDedupLive();

    /**
     * Answer from an undrained op-log record: charge its read, and
     * defer the ack while its group commit is still ahead.
     */
    void replyPending(Tick &t, const PendingPut &p, RpcResponse &resp,
                      bool *deferred);

    void executeGet(Tick &t, const RpcRequest &req, RpcResponse &resp,
                    bool *deferred);
    void executePut(Tick &t, const RpcRequest &req, RpcResponse &resp);
    void executePutOpLog(Tick &t, const RpcRequest &req,
                         RpcResponse &resp, bool *deferred);
    void executeScan(Tick &t, const RpcRequest &req, RpcResponse &resp);

    /**
     * The shared apply transaction: key slot + dedup entry + applied
     * counter move together or not at all. @p version is the
     * absolute version to install (the undo path passes current+1,
     * the op-log drain passes the version fixed at append).
     */
    void applyPut(Tick &t, std::uint64_t req_id, std::uint64_t key,
                  std::uint64_t value_seed, std::uint64_t version);

    /** Drop a drained/applied record from the pending-put maps. */
    void forgetPending(const OpRecord &rec);

    /**
     * Evict dedup entries older than the retention horizon once the
     * table passes 3/4 occupancy (one undo-logged transaction over
     * the dedup region + header).
     */
    void maybeCompactDedup(Tick &t);

    mem::BackingStore &store;
    mem::TimedMem &timed;
    KvParams _params;
    KvStats _stats;
    std::optional<persist::ObjectPool> _pool;
    std::optional<OpLog> _log;
    persist::ObjectId root;
    mem::Addr rootAddr = 0;  ///< pool-physical address of the root
    std::vector<RpcRequest> queue;  ///< volatile admission queue

    /** Op-log pending index: reqId -> its undrained record. */
    std::unordered_map<std::uint64_t, PendingPut> pendingByReq;

    /** Newest undrained record per key (read-your-writes, chaining). */
    std::unordered_map<std::uint64_t, PendingPut> newestByKey;

    std::uint64_t dedupLive = 0;  ///< occupied dedup slots (mirror)

    /** Suppress compaction retries while nothing is evictable. */
    std::uint64_t compactionHoldoff = 0;
};

} // namespace lightpc::net

#endif // LIGHTPC_NET_KV_SERVICE_HH
