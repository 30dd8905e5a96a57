#include "net/kv_service.hh"

#include <algorithm>
#include <array>
#include <cstddef>

#include "sim/logging.hh"

namespace lightpc::net
{

namespace
{

/** Pool placement on OC-PMEM (below the SnG reserved area). */
constexpr mem::Addr poolBase = std::uint64_t(256) << 20;
constexpr std::uint64_t poolSize = 24 << 20;

/** Per-slot cost of SCAN iteration. */
constexpr Tick scanPerSlot = 400 * tickNs;

/** Where the A-CheckPC per-request checkpoints land. */
constexpr mem::Addr checkpointBase = std::uint64_t(1) << 41;

/** Page-copy handling cost for the per-request checkpoint. */
constexpr Tick checkpointPerPage = 5 * tickUs;

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

KvService::KvService(mem::BackingStore &store_in, mem::TimedMem &timed_in,
                     const KvParams &params)
    : store(store_in), timed(timed_in), _params(params)
{
    if (!isPowerOfTwo(_params.keyCapacity)
        || !isPowerOfTwo(_params.dedupCapacity))
        fatal("KvService capacities must be powers of two");
    if (_params.queueCapacity == 0)
        fatal("KvService queue capacity must be nonzero");
    if (_params.dedupRetention == 0)
        fatal("KvService dedup retention must be nonzero");
    queue.reserve(_params.queueCapacity);
    _pool.emplace(store, poolBase, poolSize);
    Tick t = 0;
    openRoot(t);
    if (opLogEnabled())
        openLog(t);
    rebuildDedupLive();
}

std::uint64_t
KvService::rootBytes() const
{
    return sizeof(RootHeader)
        + std::uint64_t(_params.keyCapacity) * sizeof(KvSlot)
        + std::uint64_t(_params.dedupCapacity) * sizeof(DedupEntry);
}

void
KvService::openRoot(Tick &t)
{
    root = _pool->root(t, rootBytes());
    rootAddr = _pool->direct(t, root);

    RootHeader hdr = header();
    if (hdr.magic == rootMagic) {
        if (hdr.keyCapacity != _params.keyCapacity
            || hdr.dedupCapacity != _params.dedupCapacity)
            fatal("KvService reopened with mismatched capacities");
        return;
    }
    hdr = RootHeader{};
    hdr.magic = rootMagic;
    hdr.keyCapacity = _params.keyCapacity;
    hdr.dedupCapacity = _params.dedupCapacity;
    writeRoot(t, 0, &hdr, sizeof(hdr));
}

void
KvService::openLog(Tick &t)
{
    OpLogParams lp = _params.oplog;
    if (lp.base == 0)
        lp.base = (poolBase + poolSize + 63)
            & ~mem::Addr(63);
    _params.oplog = lp;
    _log.emplace(store, timed, lp);
    if (!_log->attach(t))
        _log->format(t);
}

void
KvService::clock(Tick t)
{
    store.setWriteClock(t);
}

std::uint64_t
KvService::hashOf(std::uint64_t x)
{
    // splitmix64 finalizer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

KvService::RootHeader
KvService::header() const
{
    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));
    return hdr;
}

void
KvService::readSlot(std::uint32_t idx, KvSlot &out) const
{
    _pool->readObject(root, slotOffset(idx), &out, sizeof(out));
}

KvService::DedupEntry
KvService::dedupAt(std::uint32_t idx) const
{
    DedupEntry entry;
    _pool->readObject(root, dedupEntryOffset(idx), &entry, sizeof(entry));
    return entry;
}

std::uint32_t
KvService::probeKey(std::uint64_t key, bool &found) const
{
    const std::uint32_t mask = _params.keyCapacity - 1;
    std::uint32_t idx =
        static_cast<std::uint32_t>(hashOf(key)) & mask;
    for (std::uint32_t i = 0; i < _params.keyCapacity; ++i) {
        KvSlot slot;
        readSlot(idx, slot);
        if (slot.key == key) {
            found = true;
            return idx;
        }
        if (slot.key == 0) {
            found = false;
            return idx;
        }
        idx = (idx + 1) & mask;
    }
    fatal("KvService key table full (keyCapacity too small)");
}

std::uint32_t
KvService::probeDedup(std::uint64_t req_id, bool &found) const
{
    const std::uint32_t mask = _params.dedupCapacity - 1;
    std::uint32_t idx =
        static_cast<std::uint32_t>(hashOf(req_id)) & mask;
    for (std::uint32_t i = 0; i < _params.dedupCapacity; ++i) {
        const DedupEntry entry = dedupAt(idx);
        if (entry.id == req_id) {
            found = true;
            return idx;
        }
        if (entry.id == 0) {
            found = false;
            return idx;
        }
        idx = (idx + 1) & mask;
    }
    fatal("KvService dedup set full (dedupCapacity too small)");
}

std::optional<std::uint64_t>
KvService::chargeDedup(Tick &t, std::uint64_t req_id)
{
    bool applied = false;
    const std::uint32_t idx = probeDedup(req_id, applied);
    t = timed.readSpan(t, rootAddr + dedupEntryOffset(idx),
                       sizeof(DedupEntry));
    if (!applied)
        return std::nullopt;
    return dedupAt(idx).version;
}

std::optional<KvService::KvSlot>
KvService::chargeKey(Tick &t, std::uint64_t key)
{
    bool found = false;
    const std::uint32_t idx = probeKey(key, found);
    t = timed.readSpan(t, rootAddr + slotOffset(idx), sizeof(KvSlot));
    if (!found)
        return std::nullopt;
    KvSlot slot;
    readSlot(idx, slot);
    return slot;
}

void
KvService::putRoot(Tick t, std::uint64_t off, const void *in,
                   std::uint64_t bytes)
{
    clock(t);
    _pool->writeObject(root, off, in, bytes);
}

void
KvService::writeRoot(Tick &t, std::uint64_t off, const void *in,
                     std::uint64_t bytes)
{
    putRoot(t, off, in, bytes);
    t = timed.writeSpan(t, rootAddr + off, bytes);
}

void
KvService::txOpen(Tick &t, std::initializer_list<RootRange> ranges)
{
    clock(t);
    _pool->txBegin(t);
    for (const RootRange &range : ranges) {
        clock(t);
        _pool->txAddRange(t, root, range.off, range.bytes);
    }
}

void
KvService::txClose(Tick &t)
{
    clock(t);
    _pool->txCommit(t);
    t = timed.fence(t);
}

template <typename Entry, typename Visit>
void
KvService::forEachEntry(std::uint64_t offset, std::uint32_t count,
                        Visit &&visit) const
{
    constexpr std::uint32_t run = 256;
    std::array<Entry, run> buf;
    for (std::uint32_t i = 0; i < count; i += run) {
        const std::uint32_t n = std::min(run, count - i);
        _pool->readObject(root, offset + std::uint64_t(i) * sizeof(Entry),
                          buf.data(), std::uint64_t(n) * sizeof(Entry));
        for (std::uint32_t j = 0; j < n; ++j)
            visit(buf[j]);
    }
}

void
KvService::rebuildDedupLive()
{
    dedupLive = 0;
    forEachEntry<DedupEntry>(dedupOffset(), _params.dedupCapacity,
                             [this](const DedupEntry &entry) {
                                 if (entry.id != 0)
                                     ++dedupLive;
                             });
    compactionHoldoff = 0;
}

bool
KvService::admit(const RpcRequest &req)
{
    if (queue.size() >= _params.queueCapacity) {
        ++_stats.rejected;
        return false;
    }
    queue.push_back(req);
    _stats.maxQueueDepth = std::max(
        _stats.maxQueueDepth, static_cast<std::uint32_t>(queue.size()));
    return true;
}

bool
KvService::queuePop(RpcRequest &out)
{
    if (queue.empty())
        return false;
    out = queue.front();
    queue.erase(queue.begin());
    return true;
}

void
KvService::dropQueue()
{
    _stats.queueDropped += queue.size();
    queue.clear();
}

void
KvService::chargeCheckpoint(Tick &t)
{
    if (_params.checkpointBytesPerOp == 0)
        return;
    const std::uint64_t pages =
        (_params.checkpointBytesPerOp + 4095) / 4096;
    t += pages * checkpointPerPage;
    t = timed.writeSpan(t, checkpointBase,
                        _params.checkpointBytesPerOp);
}

RpcResponse
KvService::execute(Tick &t, const RpcRequest &req, bool *deferred)
{
    ++_stats.executed;
    if (deferred)
        *deferred = false;
    t += KvParams::parseCost;
    clock(t);

    RpcResponse resp;
    resp.reqId = req.reqId;
    resp.client = req.client;
    resp.attempt = req.attempt;

    if (req.deadline != 0 && t > req.deadline) {
        ++_stats.deadlineExceeded;
        resp.status = RpcStatus::DeadlineExceeded;
        resp.servedAt = t;
        return resp;
    }

    switch (req.op) {
    case workload::KvOp::Get:
        executeGet(t, req, resp, deferred);
        break;
    case workload::KvOp::Put:
        if (opLogEnabled())
            executePutOpLog(t, req, resp, deferred);
        else
            executePut(t, req, resp);
        break;
    case workload::KvOp::Scan:
        executeScan(t, req, resp);
        break;
    }

    // A-CheckPC: synchronous checkpoint at the handler's function
    // boundary, before the response leaves the server.
    chargeCheckpoint(t);
    resp.servedAt = t;
    return resp;
}

void
KvService::replyPending(Tick &t, const PendingPut &p, RpcResponse &resp,
                        bool *deferred)
{
    t = timed.readSpan(t, _log->slotAddr((p.seq - 1) * OpLog::recordBytes),
                       OpLog::recordBytes);
    if (deferred && !_log->committedThrough(p.seq))
        *deferred = true;
    resp.version = p.version;
    resp.valueSeed = p.valueSeed;
}

void
KvService::executeGet(Tick &t, const RpcRequest &req, RpcResponse &resp,
                      bool *deferred)
{
    if (_log) {
        // Read-your-writes through the undrained log: the newest
        // record for the key wins over the (stale) pool slot. An ack
        // that exposed an uncommitted value must wait for the commit
        // that makes it durable, or a crash could un-happen a read.
        const auto it = newestByKey.find(req.key);
        if (it != newestByKey.end()) {
            replyPending(t, it->second, resp, deferred);
            return;
        }
    }

    (void)_pool->direct(t, root);  // swizzle cost per object access
    const std::optional<KvSlot> slot = chargeKey(t, req.key);
    if (!slot) {
        resp.status = RpcStatus::NotFound;
        return;
    }
    resp.version = slot->version;
    resp.valueSeed = slot->valueSeed;
}

void
KvService::applyPut(Tick &t, std::uint64_t req_id, std::uint64_t key,
                    std::uint64_t value_seed, std::uint64_t version)
{
    bool key_found = false;
    const std::uint64_t slot_off = slotOffset(probeKey(key, key_found));
    bool applied = false;
    const std::uint64_t dedup_off =
        dedupEntryOffset(probeDedup(req_id, applied));
    if (applied)
        fatal("applyPut on an already-applied request ID");
    const std::uint64_t count_off = offsetof(RootHeader, appliedCount);
    RootHeader hdr = header();

    // The transaction: key slot + dedup entry + applied counter move
    // together or not at all. The write clock advances with t at
    // every stage, so an armed power cut drops a suffix of these
    // writes and recovery rolls the survivors back.
    txOpen(t, {{slot_off, sizeof(KvSlot)},
               {dedup_off, sizeof(DedupEntry)},
               {count_off, sizeof(std::uint64_t)}});
    const KvSlot slot{key, version, req_id, value_seed};
    writeRoot(t, slot_off, &slot, sizeof(slot));
    const DedupEntry entry{req_id, t, version};
    writeRoot(t, dedup_off, &entry, sizeof(entry));
    hdr.appliedCount += 1;
    writeRoot(t, count_off, &hdr.appliedCount, sizeof(hdr.appliedCount));
    txClose(t);

    ++_stats.putsApplied;
    ++dedupLive;
    maybeCompactDedup(t);
}

void
KvService::executePut(Tick &t, const RpcRequest &req, RpcResponse &resp)
{
    // Idempotence: a retry of an applied PUT is acknowledged from
    // the dedup set without touching the key table.
    const std::optional<std::uint64_t> done = chargeDedup(t, req.reqId);
    const std::optional<KvSlot> slot = chargeKey(t, req.key);
    resp.valueSeed = req.valueSeed;
    if (done) {
        // Ack the retry with the version ITS write committed at, read
        // from the dedup entry — the key may since have moved on, and
        // a retry acked with a later write's version would read as a
        // lost update to the client-history audit.
        ++_stats.idempotentHits;
        resp.version = *done;
        return;
    }
    resp.version = slot ? slot->version + 1 : 1;
    applyPut(t, req.reqId, req.key, req.valueSeed, resp.version);
}

void
KvService::executePutOpLog(Tick &t, const RpcRequest &req,
                           RpcResponse &resp, bool *deferred)
{
    // Retry of a record still sitting in the log: acknowledge from
    // the pending index; the ack is deferred iff the record's group
    // commit has not happened yet.
    const auto pit = pendingByReq.find(req.reqId);
    if (pit != pendingByReq.end()) {
        ++_stats.idempotentHits;
        replyPending(t, pit->second, resp, deferred);
        return;
    }

    // Retry of a record already drained into the pool: as in
    // executePut, echo its own committed version, not the key's
    // current one.
    resp.valueSeed = req.valueSeed;
    if (const std::optional<std::uint64_t> done =
            chargeDedup(t, req.reqId)) {
        ++_stats.idempotentHits;
        resp.version = *done;
        return;
    }

    // The version is fixed at append time so replay can install it
    // absolutely; it chains through undrained records for the key.
    const auto kit = newestByKey.find(req.key);
    if (kit != newestByKey.end()) {
        resp.version = kit->second.version + 1;
    } else {
        const std::optional<KvSlot> slot = chargeKey(t, req.key);
        resp.version = slot ? slot->version + 1 : 1;
    }
    appendRecord(t, req.reqId, req.key, req.valueSeed, resp.version,
                 req.client);
    if (deferred)
        *deferred = true;
}

void
KvService::appendRecord(Tick &t, std::uint64_t req_id, std::uint64_t key,
                        std::uint64_t value_seed, std::uint64_t version,
                        std::uint32_t client)
{
    if (_log->wouldBlock()) {
        // Ring full against the *persisted* head: take the slow path
        // once — commit, drain the whole backlog, persist the head —
        // then append. This is the stall the group-commit cadence is
        // tuned to avoid.
        ++_stats.logStallDrains;
        logDrainAll(t);
    }

    OpRecord rec;
    rec.reqId = req_id;
    rec.key = key;
    rec.valueSeed = value_seed;
    rec.version = version;
    rec.client = client;
    rec.appendedAt = t;
    const std::uint64_t seq = _log->append(t, rec);
    ++_stats.logAppends;

    const PendingPut pending{key, version, value_seed, seq};
    pendingByReq.emplace(req_id, pending);
    newestByKey[key] = pending;
}

void
KvService::executeScan(Tick &t, const RpcRequest &req, RpcResponse &resp)
{
    ++_stats.scans;
    const std::uint32_t mask = _params.keyCapacity - 1;
    const std::uint32_t len = std::min(
        req.scanLength == 0 ? 1u : req.scanLength,
        _params.keyCapacity);
    std::uint32_t idx =
        static_cast<std::uint32_t>(hashOf(req.key)) & mask;
    std::uint64_t digest = 0;
    for (std::uint32_t i = 0; i < len; ++i) {
        KvSlot slot;
        readSlot(idx, slot);
        digest ^= hashOf(slot.key ^ (slot.version << 32));
        t += scanPerSlot;
        idx = (idx + 1) & mask;
    }
    t = timed.readSpan(t, rootAddr + keyTableOffset(),
                       std::uint64_t(len) * sizeof(KvSlot));
    resp.valueSeed = digest;
}

// --- op-log control ---------------------------------------------------

std::uint64_t
KvService::logUncommittedRecords() const
{
    return _log ? _log->uncommittedRecords() : 0;
}

std::uint64_t
KvService::logBacklogRecords() const
{
    return _log ? _log->backlogRecords() : 0;
}

void
KvService::logCommit(Tick &t)
{
    if (!_log || _log->uncommittedRecords() == 0)
        return;
    _log->commit(t);
    ++_stats.logCommits;
}

std::uint64_t
KvService::logDrain(Tick &t, std::uint64_t max_records)
{
    if (!_log)
        return 0;
    std::uint64_t processed = 0;
    while (processed < max_records && _log->backlogRecords() > 0) {
        const OpRecord rec = _log->readHead(t);
        if (!chargeDedup(t, rec.reqId)) {
            applyPut(t, rec.reqId, rec.key, rec.valueSeed, rec.version);
            ++_stats.logDrainApplied;
        }
        _log->pop();
        forgetPending(rec);
        ++processed;
    }
    if (processed != 0)
        _log->persistHead(t);
    return processed;
}

void
KvService::logDrainAll(Tick &t)
{
    if (!_log)
        return;
    logCommit(t);
    while (logDrain(t, 64) != 0) {
    }
}

void
KvService::forgetPending(const OpRecord &rec)
{
    const auto it = pendingByReq.find(rec.reqId);
    if (it == pendingByReq.end() || it->second.seq != rec.seq)
        return;
    const auto kit = newestByKey.find(rec.key);
    if (kit != newestByKey.end() && kit->second.seq == rec.seq)
        newestByKey.erase(kit);
    pendingByReq.erase(it);
}

void
KvService::maybeCompactDedup(Tick &t)
{
    const std::uint64_t threshold =
        std::uint64_t(_params.dedupCapacity) * 3 / 4;
    if (dedupLive < threshold || dedupLive < compactionHoldoff)
        return;

    RootHeader hdr = header();
    const Tick floor = std::max<Tick>(
        hdr.dedupFloor,
        t > _params.dedupRetention ? t - _params.dedupRetention : 0);

    std::vector<DedupEntry> survivors;
    survivors.reserve(dedupLive);
    std::uint64_t evicted = 0;
    forEachEntry<DedupEntry>(
        dedupOffset(), _params.dedupCapacity,
        [&](const DedupEntry &entry) {
            if (entry.id == 0)
                return;
            if (entry.appliedAt >= floor)
                survivors.push_back(entry);
            else
                ++evicted;
        });
    if (evicted == 0) {
        // Everything is still inside the retry horizon. Hold off
        // until the table has grown materially so a hot service does
        // not rescan the region on every PUT.
        compactionHoldoff = dedupLive + _params.dedupCapacity / 16;
        return;
    }
    compactionHoldoff = 0;

    // One undo-logged transaction over the dedup region + header:
    // a crash mid-compaction rolls the whole region back, so no ID
    // is ever half-forgotten.
    const std::uint64_t region =
        std::uint64_t(_params.dedupCapacity) * sizeof(DedupEntry);
    txOpen(t, {{dedupOffset(), region}, {0, sizeof(RootHeader)}});

    std::vector<unsigned char> zeros(4096, 0);
    for (std::uint64_t off = 0; off < region; off += zeros.size())
        putRoot(t, dedupOffset() + off, zeros.data(),
                std::min<std::uint64_t>(zeros.size(), region - off));
    t = timed.writeSpan(t, rootAddr + dedupOffset(), region);

    for (const DedupEntry &entry : survivors) {
        bool found = false;
        putRoot(t, dedupEntryOffset(probeDedup(entry.id, found)), &entry,
                sizeof(entry));
    }
    t = timed.writeSpan(t, rootAddr + dedupOffset(),
                        survivors.size() * sizeof(DedupEntry));

    hdr.compactedCount += evicted;
    hdr.dedupFloor = floor;
    writeRoot(t, 0, &hdr, sizeof(hdr));
    txClose(t);

    dedupLive -= evicted;
    ++_stats.dedupCompactions;
    _stats.dedupEvicted += evicted;
}

void
KvService::recover(Tick &t)
{
    ++_stats.recoveries;
    // Reopen over the same region: the constructor rolls back any
    // transaction whose commit truncation did not beat the rails.
    _pool.emplace(store, poolBase, poolSize);
    if (!_pool->openedExisting())
        fatal("KvService recovery found no pool header");
    // Runtime re-attach: root lookup and swizzle, plus a fixed
    // reopen cost (header checks, allocator map rebuild).
    t += 200 * tickUs;
    openRoot(t);
    rebuildDedupLive();

    if (!opLogEnabled())
        return;

    // Op-log replay: scan from the durable head, stop at the torn
    // tail, apply the valid run idempotently through the dedup set.
    pendingByReq.clear();
    newestByKey.clear();
    if (!_log->attach(t))
        fatal("KvService recovery found no op-log header");
    const OpLogRecovery scan = _log->recover(t);
    if (!scan.tailCovered)
        fatal("op-log recovery: committed tail not covered by valid "
              "records (persist ordering broken)");
    for (const OpRecord &rec : scan.records) {
        if (appliedVersion(rec.reqId)) {
            ++_stats.logReplaySkipped;
            continue;
        }
        applyPut(t, rec.reqId, rec.key, rec.valueSeed, rec.version);
        ++_stats.logReplayApplied;
    }
    _log->resetAfterReplay(t);
}

std::optional<KvKeyState>
KvService::lookup(std::uint64_t key) const
{
    bool found = false;
    const std::uint32_t idx = probeKey(key, found);
    if (!found)
        return std::nullopt;
    KvSlot slot;
    readSlot(idx, slot);
    return KvKeyState{slot.key, slot.version, slot.lastReqId,
                      slot.valueSeed};
}

std::vector<std::uint64_t>
KvService::appliedIds() const
{
    std::vector<std::uint64_t> out;
    forEachEntry<DedupEntry>(dedupOffset(), _params.dedupCapacity,
                             [&out](const DedupEntry &entry) {
                                 if (entry.id != 0)
                                     out.push_back(entry.id);
                             });
    return out;
}

std::uint64_t
KvService::appliedCount() const
{
    return header().appliedCount;
}

std::uint64_t
KvService::compactedCount() const
{
    return header().compactedCount;
}

Tick
KvService::dedupFloor() const
{
    return header().dedupFloor;
}

// --- cluster replication hooks ---------------------------------------

ClusterMeta
KvService::clusterMeta() const
{
    const RootHeader hdr = header();
    return ClusterMeta{hdr.replSeq, hdr.replEpoch, hdr.replVote,
                       hdr.replCommit, hdr.replCommitEpoch};
}

void
KvService::persistClusterMeta(Tick &t, const ClusterMeta &meta)
{
    const std::uint64_t off = offsetof(RootHeader, replSeq);
    const std::uint64_t words[5] = {meta.seq, meta.epoch,
                                    meta.voteWord, meta.commit,
                                    meta.commitEpoch};
    txOpen(t, {{off, sizeof(words)}});
    writeRoot(t, off, words, sizeof(words));
    txClose(t);
}

void
KvService::applyReplicated(Tick &t, std::uint64_t req_id,
                           std::uint64_t key, std::uint64_t value_seed,
                           std::uint64_t version)
{
    if (chargeDedup(t, req_id))
        return;
    const std::optional<KvSlot> slot = chargeKey(t, key);
    if (slot && slot->version >= version)
        return;  // stale (snapshot replayed over newer state)
    applyPut(t, req_id, key, value_seed, version);
}

void
KvService::applyCommitted(Tick &t, std::uint64_t req_id,
                          std::uint64_t key, std::uint64_t value_seed,
                          std::uint64_t version, std::uint32_t client)
{
    if (!_log) {
        applyReplicated(t, req_id, key, value_seed, version);
        chargeCheckpoint(t);
        return;
    }
    if (logPending(req_id) || chargeDedup(t, req_id))
        return;
    appendRecord(t, req_id, key, value_seed, version, client);
}

std::vector<KvKeyState>
KvService::snapshotRecords() const
{
    std::vector<KvKeyState> out;
    forEachEntry<KvSlot>(keyTableOffset(), _params.keyCapacity,
                         [&out](const KvSlot &slot) {
                             if (slot.key != 0)
                                 out.push_back(KvKeyState{
                                     slot.key, slot.version,
                                     slot.lastReqId, slot.valueSeed});
                         });
    return out;
}

std::optional<std::uint64_t>
KvService::appliedVersion(std::uint64_t req_id) const
{
    bool applied = false;
    const std::uint32_t idx = probeDedup(req_id, applied);
    if (!applied)
        return std::nullopt;
    return dedupAt(idx).version;
}

} // namespace lightpc::net
