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

    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));
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
    clock(t);
    _pool->writeObject(root, 0, &hdr, sizeof(hdr));
    t = timed.writeSpan(t, rootAddr, sizeof(hdr));
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

void
KvService::readSlot(std::uint32_t idx, KvSlot &out) const
{
    _pool->readObject(root,
                      keyTableOffset()
                          + std::uint64_t(idx) * sizeof(KvSlot),
                      &out, sizeof(out));
}

KvService::DedupEntry
KvService::dedupAt(std::uint32_t idx) const
{
    DedupEntry entry;
    _pool->readObject(root,
                      dedupOffset()
                          + std::uint64_t(idx) * sizeof(DedupEntry),
                      &entry, sizeof(entry));
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
        resp = executeGet(t, req, deferred);
        break;
    case workload::KvOp::Put:
        resp = executePut(t, req, deferred);
        break;
    case workload::KvOp::Scan:
        resp = executeScan(t, req);
        break;
    }

    // A-CheckPC: synchronous checkpoint at the handler's function
    // boundary, before the response leaves the server.
    chargeCheckpoint(t);
    resp.servedAt = t;
    return resp;
}

RpcResponse
KvService::executeGet(Tick &t, const RpcRequest &req, bool *deferred)
{
    RpcResponse resp;
    resp.reqId = req.reqId;
    resp.client = req.client;
    resp.attempt = req.attempt;

    if (_log) {
        // Read-your-writes through the undrained log: the newest
        // record for the key wins over the (stale) pool slot. An ack
        // that exposed an uncommitted value must wait for the commit
        // that makes it durable, or a crash could un-happen a read.
        const auto it = newestByKey.find(req.key);
        if (it != newestByKey.end()) {
            const PendingPut &p = it->second;
            t = timed.readSpan(t, _log->slotAddr((p.seq - 1)
                                                 * OpLog::recordBytes),
                               OpLog::recordBytes);
            if (deferred && !_log->committedThrough(p.seq))
                *deferred = true;
            resp.status = RpcStatus::Ok;
            resp.version = p.version;
            resp.valueSeed = p.valueSeed;
            return resp;
        }
    }

    (void)_pool->direct(t, root);  // swizzle cost per object access
    bool found = false;
    const std::uint32_t idx = probeKey(req.key, found);
    t = timed.readSpan(t,
                       rootAddr + keyTableOffset()
                           + std::uint64_t(idx) * sizeof(KvSlot),
                       sizeof(KvSlot));
    if (!found) {
        resp.status = RpcStatus::NotFound;
        return resp;
    }
    KvSlot slot;
    readSlot(idx, slot);
    resp.status = RpcStatus::Ok;
    resp.version = slot.version;
    resp.valueSeed = slot.valueSeed;
    return resp;
}

void
KvService::applyPut(Tick &t, std::uint64_t req_id, std::uint64_t key,
                    std::uint64_t value_seed, std::uint64_t version,
                    KvSlot &slot_out)
{
    bool key_found = false;
    const std::uint32_t slot_idx = probeKey(key, key_found);
    const std::uint64_t slot_off =
        keyTableOffset() + std::uint64_t(slot_idx) * sizeof(KvSlot);
    KvSlot slot;
    readSlot(slot_idx, slot);

    bool applied = false;
    const std::uint32_t dedup_idx = probeDedup(req_id, applied);
    if (applied)
        fatal("applyPut on an already-applied request ID");
    const std::uint64_t dedup_off =
        dedupOffset() + std::uint64_t(dedup_idx) * sizeof(DedupEntry);
    const std::uint64_t count_off = offsetof(RootHeader, appliedCount);

    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));

    // The transaction: key slot + dedup entry + applied counter move
    // together or not at all. The write clock advances with t at
    // every stage, so an armed power cut drops a suffix of these
    // writes and recovery rolls the survivors back.
    clock(t);
    _pool->txBegin(t);
    clock(t);
    _pool->txAddRange(t, root, slot_off, sizeof(KvSlot));
    clock(t);
    _pool->txAddRange(t, root, dedup_off, sizeof(DedupEntry));
    clock(t);
    _pool->txAddRange(t, root, count_off, sizeof(std::uint64_t));

    slot.key = key;
    slot.version = version;
    slot.lastReqId = req_id;
    slot.valueSeed = value_seed;
    clock(t);
    _pool->writeObject(root, slot_off, &slot, sizeof(slot));
    t = timed.writeSpan(t, rootAddr + slot_off, sizeof(slot));

    const DedupEntry entry{req_id, t, version};
    clock(t);
    _pool->writeObject(root, dedup_off, &entry, sizeof(entry));
    t = timed.writeSpan(t, rootAddr + dedup_off, sizeof(entry));

    hdr.appliedCount += 1;
    clock(t);
    _pool->writeObject(root, count_off, &hdr.appliedCount,
                       sizeof(hdr.appliedCount));
    t = timed.writeSpan(t, rootAddr + count_off,
                        sizeof(hdr.appliedCount));

    clock(t);
    _pool->txCommit(t);
    t = timed.fence(t);

    ++_stats.putsApplied;
    ++dedupLive;
    slot_out = slot;
    maybeCompactDedup(t);
}

RpcResponse
KvService::executePut(Tick &t, const RpcRequest &req, bool *deferred)
{
    if (opLogEnabled())
        return executePutOpLog(t, req, deferred);

    RpcResponse resp;
    resp.reqId = req.reqId;
    resp.client = req.client;
    resp.attempt = req.attempt;

    // Idempotence: a retry of an applied PUT is acknowledged from
    // the dedup set without touching the key table.
    bool applied = false;
    const std::uint32_t dedup_idx = probeDedup(req.reqId, applied);
    t = timed.readSpan(t,
                       rootAddr + dedupOffset()
                           + std::uint64_t(dedup_idx)
                                 * sizeof(DedupEntry),
                       sizeof(DedupEntry));
    bool key_found = false;
    const std::uint32_t slot_idx = probeKey(req.key, key_found);
    const std::uint64_t slot_off =
        keyTableOffset() + std::uint64_t(slot_idx) * sizeof(KvSlot);
    t = timed.readSpan(t, rootAddr + slot_off, sizeof(KvSlot));

    KvSlot slot;
    readSlot(slot_idx, slot);

    if (applied) {
        // Ack the retry with the version ITS write committed at, read
        // from the dedup entry — the key may since have moved on, and
        // a retry acked with a later write's version would read as a
        // lost update to the client-history audit.
        ++_stats.idempotentHits;
        resp.status = RpcStatus::Ok;
        resp.version = dedupAt(dedup_idx).version;
        resp.valueSeed = req.valueSeed;
        return resp;
    }

    applyPut(t, req.reqId, req.key, req.valueSeed, slot.version + 1,
             slot);
    resp.status = RpcStatus::Ok;
    resp.version = slot.version;
    resp.valueSeed = slot.valueSeed;
    return resp;
}

RpcResponse
KvService::executePutOpLog(Tick &t, const RpcRequest &req,
                           bool *deferred)
{
    RpcResponse resp;
    resp.reqId = req.reqId;
    resp.client = req.client;
    resp.attempt = req.attempt;

    // Retry of a record still sitting in the log: acknowledge from
    // the pending index; the ack is deferred iff the record's group
    // commit has not happened yet.
    const auto pit = pendingByReq.find(req.reqId);
    if (pit != pendingByReq.end()) {
        ++_stats.idempotentHits;
        t = timed.readSpan(t,
                           _log->slotAddr((pit->second.seq - 1)
                                          * OpLog::recordBytes),
                           OpLog::recordBytes);
        if (deferred && !_log->committedThrough(pit->second.seq))
            *deferred = true;
        resp.status = RpcStatus::Ok;
        resp.version = pit->second.version;
        resp.valueSeed = pit->second.valueSeed;
        return resp;
    }

    // Retry of a record already drained into the pool.
    bool applied = false;
    const std::uint32_t dedup_idx = probeDedup(req.reqId, applied);
    t = timed.readSpan(t,
                       rootAddr + dedupOffset()
                           + std::uint64_t(dedup_idx)
                                 * sizeof(DedupEntry),
                       sizeof(DedupEntry));
    if (applied) {
        // As in executePut: echo the drained record's own committed
        // version from the dedup entry, not the key's current one.
        ++_stats.idempotentHits;
        resp.status = RpcStatus::Ok;
        resp.version = dedupAt(dedup_idx).version;
        resp.valueSeed = req.valueSeed;
        return resp;
    }

    // The version is fixed at append time so replay can install it
    // absolutely; it chains through undrained records for the key.
    std::uint64_t version = 0;
    const auto kit = newestByKey.find(req.key);
    if (kit != newestByKey.end()) {
        version = kit->second.version + 1;
    } else {
        bool key_found = false;
        const std::uint32_t slot_idx = probeKey(req.key, key_found);
        t = timed.readSpan(t,
                           rootAddr + keyTableOffset()
                               + std::uint64_t(slot_idx)
                                     * sizeof(KvSlot),
                           sizeof(KvSlot));
        KvSlot slot;
        readSlot(slot_idx, slot);
        version = slot.version + 1;
    }

    if (_log->wouldBlock()) {
        // Ring full against the *persisted* head: take the slow path
        // once — commit, drain the whole backlog, persist the head —
        // then append. This is the stall the group-commit cadence is
        // tuned to avoid.
        ++_stats.logStallDrains;
        logCommit(t);
        while (logDrain(t, 64) != 0) {
        }
    }

    OpRecord rec;
    rec.reqId = req.reqId;
    rec.key = req.key;
    rec.valueSeed = req.valueSeed;
    rec.version = version;
    rec.client = req.client;
    rec.appendedAt = t;
    const std::uint64_t seq = _log->append(t, rec);
    ++_stats.logAppends;

    const PendingPut pending{req.key, version, req.valueSeed, seq};
    pendingByReq.emplace(req.reqId, pending);
    newestByKey[req.key] = pending;

    if (deferred)
        *deferred = true;
    resp.status = RpcStatus::Ok;
    resp.version = version;
    resp.valueSeed = req.valueSeed;
    return resp;
}

RpcResponse
KvService::executeScan(Tick &t, const RpcRequest &req)
{
    ++_stats.scans;
    RpcResponse resp;
    resp.reqId = req.reqId;
    resp.client = req.client;
    resp.attempt = req.attempt;

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
    resp.status = RpcStatus::Ok;
    resp.valueSeed = digest;
    return resp;
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
        bool applied = false;
        const std::uint32_t dedup_idx = probeDedup(rec.reqId, applied);
        t = timed.readSpan(t,
                           rootAddr + dedupOffset()
                               + std::uint64_t(dedup_idx)
                                     * sizeof(DedupEntry),
                           sizeof(DedupEntry));
        if (!applied) {
            KvSlot slot;
            applyPut(t, rec.reqId, rec.key, rec.valueSeed, rec.version,
                     slot);
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

    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));
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
    clock(t);
    _pool->txBegin(t);
    clock(t);
    _pool->txAddRange(t, root, dedupOffset(), region);
    clock(t);
    _pool->txAddRange(t, root, 0, sizeof(RootHeader));

    std::vector<unsigned char> zeros(4096, 0);
    for (std::uint64_t off = 0; off < region; off += zeros.size()) {
        const std::uint64_t n =
            std::min<std::uint64_t>(zeros.size(), region - off);
        clock(t);
        _pool->writeObject(root, dedupOffset() + off, zeros.data(), n);
    }
    t = timed.writeSpan(t, rootAddr + dedupOffset(), region);

    for (const DedupEntry &entry : survivors) {
        bool found = false;
        const std::uint32_t idx = probeDedup(entry.id, found);
        clock(t);
        _pool->writeObject(root,
                           dedupOffset()
                               + std::uint64_t(idx)
                                     * sizeof(DedupEntry),
                           &entry, sizeof(entry));
    }
    t = timed.writeSpan(t, rootAddr + dedupOffset(),
                        survivors.size() * sizeof(DedupEntry));

    hdr.compactedCount += evicted;
    hdr.dedupFloor = floor;
    clock(t);
    _pool->writeObject(root, 0, &hdr, sizeof(hdr));
    t = timed.writeSpan(t, rootAddr, sizeof(hdr));

    clock(t);
    _pool->txCommit(t);
    t = timed.fence(t);

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
        bool applied = false;
        probeDedup(rec.reqId, applied);
        if (applied) {
            ++_stats.logReplaySkipped;
            continue;
        }
        KvSlot slot;
        applyPut(t, rec.reqId, rec.key, rec.valueSeed, rec.version,
                 slot);
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
    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));
    return hdr.appliedCount;
}

std::uint64_t
KvService::compactedCount() const
{
    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));
    return hdr.compactedCount;
}

Tick
KvService::dedupFloor() const
{
    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));
    return hdr.dedupFloor;
}

// --- cluster replication hooks ---------------------------------------

ClusterMeta
KvService::clusterMeta() const
{
    RootHeader hdr;
    _pool->readObject(root, 0, &hdr, sizeof(hdr));
    return ClusterMeta{hdr.replSeq, hdr.replEpoch, hdr.replVote,
                       hdr.replCommit, hdr.replCommitEpoch};
}

void
KvService::persistClusterMeta(Tick &t, const ClusterMeta &meta)
{
    const std::uint64_t off = offsetof(RootHeader, replSeq);
    const std::uint64_t bytes = 5 * sizeof(std::uint64_t);
    const std::uint64_t words[5] = {meta.seq, meta.epoch,
                                    meta.voteWord, meta.commit,
                                    meta.commitEpoch};
    clock(t);
    _pool->txBegin(t);
    clock(t);
    _pool->txAddRange(t, root, off, bytes);
    clock(t);
    _pool->writeObject(root, off, words, bytes);
    t = timed.writeSpan(t, rootAddr + off, bytes);
    clock(t);
    _pool->txCommit(t);
    t = timed.fence(t);
}

bool
KvService::applyReplicated(Tick &t, std::uint64_t req_id,
                           std::uint64_t key, std::uint64_t value_seed,
                           std::uint64_t version)
{
    bool applied = false;
    const std::uint32_t dedup_idx = probeDedup(req_id, applied);
    t = timed.readSpan(t,
                       rootAddr + dedupOffset()
                           + std::uint64_t(dedup_idx)
                                 * sizeof(DedupEntry),
                       sizeof(DedupEntry));
    if (applied)
        return false;

    bool key_found = false;
    const std::uint32_t slot_idx = probeKey(key, key_found);
    t = timed.readSpan(t,
                       rootAddr + keyTableOffset()
                           + std::uint64_t(slot_idx) * sizeof(KvSlot),
                       sizeof(KvSlot));
    KvSlot slot;
    readSlot(slot_idx, slot);
    if (key_found && slot.version >= version)
        return false;  // stale (snapshot replayed over newer state)

    applyPut(t, req_id, key, value_seed, version, slot);
    return true;
}

bool
KvService::appendReplicated(Tick &t, std::uint64_t req_id,
                            std::uint64_t key, std::uint64_t value_seed,
                            std::uint64_t version, std::uint32_t client)
{
    if (!_log)
        fatal("appendReplicated needs the op-log write path");
    if (pendingByReq.find(req_id) != pendingByReq.end())
        return false;
    bool applied = false;
    const std::uint32_t dedup_idx = probeDedup(req_id, applied);
    t = timed.readSpan(t,
                       rootAddr + dedupOffset()
                           + std::uint64_t(dedup_idx)
                                 * sizeof(DedupEntry),
                       sizeof(DedupEntry));
    if (applied)
        return false;

    if (_log->wouldBlock()) {
        // Same slow path as a local op-log PUT against a full ring.
        ++_stats.logStallDrains;
        logCommit(t);
        while (logDrain(t, 64) != 0) {
        }
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
    return true;
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

bool
KvService::isApplied(std::uint64_t req_id) const
{
    bool applied = false;
    probeDedup(req_id, applied);
    return applied;
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
