/**
 * @file
 * Tests for the network service plane (src/net/): NIC descriptor
 * rings and their DCB context images, the KV/RPC server's crash
 * semantics, the client fleet's retry machinery, the availability
 * recorder, and end-to-end runService() invariants.
 */

#include <gtest/gtest.h>

#include <set>

#include "net/service_plane.hh"

#include "kernel/device.hh"
#include "mem/backing_store.hh"
#include "mem/memory_port.hh"
#include "mem/timed_mem.hh"
#include "net/availability.hh"
#include "net/client_fleet.hh"
#include "net/kv_service.hh"
#include "net/machine.hh"
#include "net/nic.hh"
#include "pecos/sng.hh"
#include "platform/system.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::net;

RpcRequest
makeReq(std::uint64_t id, workload::KvOp op, std::uint64_t key,
        std::uint64_t value_seed = 0)
{
    RpcRequest req;
    req.reqId = id;
    req.client = static_cast<std::uint32_t>(id % 17);
    req.op = op;
    req.key = key;
    req.valueSeed = value_seed;
    req.scanLength = 8;
    return req;
}

// --- NIC rings -----------------------------------------------------

TEST(Nic, RingsAreBoundedFifos)
{
    kernel::DeviceManager mgr;
    NicParams params;
    params.ringEntries = 4;
    NicDevice nic(mgr, "eth0", params);

    for (std::uint64_t i = 1; i <= 4; ++i)
        EXPECT_TRUE(nic.rxPush(makeReq(i, workload::KvOp::Get, i)));
    EXPECT_FALSE(nic.rxPush(makeReq(5, workload::KvOp::Get, 5)));
    EXPECT_EQ(nic.stats().rxDropsFull, 1u);
    EXPECT_EQ(nic.rxOccupancy(), 4u);

    RpcRequest out;
    for (std::uint64_t i = 1; i <= 4; ++i) {
        ASSERT_TRUE(nic.rxPop(out));
        EXPECT_EQ(out.reqId, i);
    }
    EXPECT_FALSE(nic.rxPop(out));

    RpcResponse resp;
    for (std::uint64_t i = 1; i <= 4; ++i) {
        resp.reqId = i;
        EXPECT_TRUE(nic.txPush(resp));
    }
    EXPECT_FALSE(nic.txPush(resp));
    EXPECT_EQ(nic.stats().txDropsFull, 1u);
    for (std::uint64_t i = 1; i <= 4; ++i) {
        ASSERT_TRUE(nic.txPop(resp));
        EXPECT_EQ(resp.reqId, i);
    }
    EXPECT_EQ(nic.stats().maxRxOccupancy, 4u);
    EXPECT_EQ(nic.stats().maxTxOccupancy, 4u);
}

TEST(Nic, LinkDownRefusesTraffic)
{
    kernel::DeviceManager mgr;
    NicDevice nic(mgr, "eth0");
    EXPECT_TRUE(nic.linkUp());

    nic.device().setSuspended(true);
    EXPECT_FALSE(nic.linkUp());
    EXPECT_FALSE(nic.rxPush(makeReq(1, workload::KvOp::Get, 1)));
    EXPECT_EQ(nic.stats().rxDropsDown, 1u);
    RpcResponse resp;
    EXPECT_FALSE(nic.txPush(resp));

    nic.device().setSuspended(false);
    EXPECT_TRUE(nic.rxPush(makeReq(2, workload::KvOp::Get, 2)));
}

TEST(Nic, RegistersAsNetworkClassInDpmList)
{
    kernel::DeviceManager mgr;
    const std::size_t before = mgr.count();
    NicDevice nic(mgr, "eth0");
    ASSERT_EQ(mgr.count(), before + 1);
    const kernel::Device &dev = mgr.device(mgr.count() - 1);
    EXPECT_EQ(&dev, &nic.device());
    EXPECT_EQ(dev.deviceClass(), kernel::DeviceClass::Network);
    EXPECT_EQ(dev.contextBytes(), nic.contextImageBytes());
    EXPECT_GT(dev.contextBytes(), 0u);
}

TEST(Nic, ContextRoundTripBeatsScramble)
{
    kernel::DeviceManager mgr;
    NicParams params;
    params.ringEntries = 8;
    NicDevice nic(mgr, "eth0", params);

    // Advance the RX head so the image must preserve a non-trivial
    // ring state, not just entry zero onward.
    ASSERT_TRUE(nic.rxPush(makeReq(1, workload::KvOp::Get, 1)));
    RpcRequest scratch;
    ASSERT_TRUE(nic.rxPop(scratch));
    for (std::uint64_t i = 2; i <= 4; ++i)
        ASSERT_TRUE(nic.rxPush(makeReq(i, workload::KvOp::Put, 10 + i,
                                       100 + i)));
    RpcResponse resp;
    resp.reqId = 77;
    resp.client = 3;
    resp.version = 9;
    resp.status = RpcStatus::Ok;
    ASSERT_TRUE(nic.txPush(resp));

    std::vector<std::uint8_t> image;
    nic.saveContext(image);
    EXPECT_EQ(image.size(), nic.contextImageBytes());

    Rng rng(5);
    nic.scrambleVolatile(rng);
    nic.restoreContext(image.data(), image.size());

    EXPECT_EQ(nic.rxOccupancy(), 3u);
    for (std::uint64_t i = 2; i <= 4; ++i) {
        ASSERT_TRUE(nic.rxPop(scratch));
        EXPECT_EQ(scratch.reqId, i);
        EXPECT_EQ(scratch.key, 10 + i);
        EXPECT_EQ(scratch.valueSeed, 100 + i);
    }
    RpcResponse rout;
    ASSERT_TRUE(nic.txPop(rout));
    EXPECT_EQ(rout.reqId, 77u);
    EXPECT_EQ(rout.version, 9u);
}

TEST(Nic, ColdBootAfterScrambleSavesLikeAFreshDevice)
{
    // A cold boot must leave no scrambled byte in the rings, padding
    // included: the saved image is what the DCB and its digests see.
    kernel::DeviceManager mgr;
    NicParams params;
    params.ringEntries = 8;
    NicDevice fresh(mgr, "eth0", params), booted(mgr, "eth1", params);
    Rng rng(9);
    booted.scrambleVolatile(rng);
    booted.resetVolatile();

    std::vector<std::uint8_t> want, got;
    fresh.saveContext(want);
    booted.saveContext(got);
    EXPECT_EQ(got, want);
}

TEST(Nic, QueuedFramesRideTheDcbThroughStopAndGo)
{
    platform::SystemConfig sc;
    sc.kind = platform::PlatformKind::LightPC;
    sc.kernel.userProcesses = 8;
    sc.kernel.kernelThreads = 6;
    sc.kernel.deviceCount = 12;
    platform::System sys(sc);
    NicDevice nic(sys.kernel().devices(), "eth0");

    for (std::uint64_t i = 1; i <= 5; ++i)
        ASSERT_TRUE(
            nic.rxPush(makeReq(i, workload::KvOp::Put, 100 + i, i)));
    RpcResponse resp;
    resp.reqId = 77;
    resp.client = 3;
    resp.version = 9;
    ASSERT_TRUE(nic.txPush(resp));

    const auto stop = sys.sng().stop(0);
    ASSERT_FALSE(stop.commitFailed);
    EXPECT_EQ(stop.contextImagesSaved, 1u);
    EXPECT_FALSE(nic.linkUp());

    // DRAM contents are unspecified once the rails fall; only the
    // DCB image in OC-PMEM may carry the rings across.
    Rng rng(99);
    sys.kernel().scramble(rng);
    nic.scrambleVolatile(rng);

    const auto go = sys.sng().resume(stop.offlineDone);
    EXPECT_FALSE(go.coldBoot);
    EXPECT_EQ(go.contextImagesRestored, 1u);
    EXPECT_TRUE(nic.linkUp());

    EXPECT_EQ(nic.rxOccupancy(), 5u);
    RpcRequest out;
    for (std::uint64_t i = 1; i <= 5; ++i) {
        ASSERT_TRUE(nic.rxPop(out));
        EXPECT_EQ(out.reqId, i);
        EXPECT_EQ(out.key, 100 + i);
        EXPECT_EQ(out.valueSeed, i);
    }
    RpcResponse rout;
    ASSERT_TRUE(nic.txPop(rout));
    EXPECT_EQ(rout.reqId, 77u);
    EXPECT_EQ(rout.version, 9u);
}

// --- KvService -----------------------------------------------------

struct FixedPort : mem::MemoryPort
{
    mem::AccessResult
    access(const mem::MemRequest &, Tick when) override
    {
        mem::AccessResult result;
        result.completeAt = when + 40 * tickNs;
        return result;
    }
    Tick fence(Tick when) override { return when; }
};

struct KvRig
{
    explicit KvRig(const KvParams &params = KvParams())
        : timed(port, &store), kv(store, timed, params)
    {
    }

    FixedPort port;
    mem::BackingStore store;
    mem::TimedMem timed;
    KvService kv;
};

TEST(KvService, PutThenGetReturnsVersionedValue)
{
    KvRig rig;
    Tick t = 0;

    auto miss = rig.kv.execute(t, makeReq(1, workload::KvOp::Get, 42));
    EXPECT_EQ(miss.status, RpcStatus::NotFound);

    auto put =
        rig.kv.execute(t, makeReq(2, workload::KvOp::Put, 42, 777));
    EXPECT_EQ(put.status, RpcStatus::Ok);
    EXPECT_EQ(put.version, 1u);

    auto get = rig.kv.execute(t, makeReq(3, workload::KvOp::Get, 42));
    EXPECT_EQ(get.status, RpcStatus::Ok);
    EXPECT_EQ(get.version, 1u);
    EXPECT_EQ(get.valueSeed, 777u);

    auto put2 =
        rig.kv.execute(t, makeReq(4, workload::KvOp::Put, 42, 778));
    EXPECT_EQ(put2.version, 2u);
    EXPECT_EQ(rig.kv.appliedCount(), 2u);
}

TEST(KvService, PutRetryIsIdempotent)
{
    KvRig rig;
    Tick t = 0;
    const auto req = makeReq(9, workload::KvOp::Put, 5, 123);

    auto first = rig.kv.execute(t, req);
    EXPECT_EQ(first.status, RpcStatus::Ok);
    EXPECT_EQ(first.version, 1u);

    // The retry carries the same request ID; the persistent dedup
    // set must acknowledge without re-applying.
    auto retry = req;
    retry.attempt = 2;
    auto second = rig.kv.execute(t, retry);
    EXPECT_EQ(second.status, RpcStatus::Ok);
    EXPECT_EQ(second.version, 1u);
    EXPECT_EQ(rig.kv.stats().idempotentHits, 1u);
    EXPECT_EQ(rig.kv.appliedCount(), 1u);
    ASSERT_TRUE(rig.kv.lookup(5).has_value());
    EXPECT_EQ(rig.kv.lookup(5)->version, 1u);
}

TEST(KvService, AdmissionQueueBackpressures)
{
    KvParams params;
    params.queueCapacity = 4;
    KvRig rig(params);

    for (std::uint64_t i = 1; i <= 4; ++i)
        EXPECT_TRUE(rig.kv.admit(makeReq(i, workload::KvOp::Get, i)));
    EXPECT_FALSE(rig.kv.admit(makeReq(5, workload::KvOp::Get, 5)));
    EXPECT_EQ(rig.kv.stats().rejected, 1u);
    EXPECT_EQ(rig.kv.stats().maxQueueDepth, 4u);

    RpcRequest out;
    ASSERT_TRUE(rig.kv.queuePop(out));
    EXPECT_EQ(out.reqId, 1u);
    EXPECT_TRUE(rig.kv.admit(makeReq(6, workload::KvOp::Get, 6)));

    rig.kv.dropQueue();
    EXPECT_EQ(rig.kv.queueDepth(), 0u);
    EXPECT_EQ(rig.kv.stats().queueDropped, 4u);
}

TEST(KvService, ExpiredDeadlineIsNotApplied)
{
    KvRig rig;
    Tick t = 1 * tickMs;
    auto req = makeReq(1, workload::KvOp::Put, 7, 42);
    req.deadline = t + 1;  // expires during parse

    auto resp = rig.kv.execute(t, req);
    EXPECT_EQ(resp.status, RpcStatus::DeadlineExceeded);
    EXPECT_EQ(rig.kv.stats().deadlineExceeded, 1u);
    EXPECT_FALSE(rig.kv.lookup(7).has_value());
    EXPECT_EQ(rig.kv.appliedCount(), 0u);
    EXPECT_TRUE(rig.kv.appliedIds().empty());
}

TEST(KvService, TornPutRollsBackOnRecovery)
{
    KvRig rig;
    Tick t = 0;
    auto full =
        rig.kv.execute(t, makeReq(1, workload::KvOp::Put, 11, 500));
    ASSERT_EQ(full.status, RpcStatus::Ok);

    // Power dies right after parse: every write of the second PUT's
    // transaction carries a stamp at or past the cut and is dropped
    // at the media, exactly as the rails would drop it.
    const Tick cut = t + KvParams::parseCost + 1;
    rig.store.armPowerCut(cut, 0xdead);
    (void)rig.kv.execute(t, makeReq(2, workload::KvOp::Put, 22, 501));
    rig.store.disarmPowerCut();

    Tick rt = t;
    rig.kv.recover(rt);
    EXPECT_EQ(rig.kv.stats().recoveries, 1u);

    // The torn PUT vanished; the committed one is intact.
    EXPECT_FALSE(rig.kv.lookup(22).has_value());
    ASSERT_TRUE(rig.kv.lookup(11).has_value());
    EXPECT_EQ(rig.kv.lookup(11)->version, 1u);
    EXPECT_EQ(rig.kv.lookup(11)->valueSeed, 500u);
    EXPECT_EQ(rig.kv.appliedCount(), 1u);
    const auto ids = rig.kv.appliedIds();
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 1u);
}

TEST(KvService, ScanIsDeterministic)
{
    KvRig rig;
    Tick t = 0;
    for (std::uint64_t k = 1; k <= 6; ++k)
        (void)rig.kv.execute(
            t, makeReq(k, workload::KvOp::Put, k, 1000 + k));

    auto a = rig.kv.execute(t, makeReq(50, workload::KvOp::Scan, 1));
    auto b = rig.kv.execute(t, makeReq(51, workload::KvOp::Scan, 1));
    EXPECT_EQ(a.status, RpcStatus::Ok);
    EXPECT_EQ(a.valueSeed, b.valueSeed);
    EXPECT_EQ(rig.kv.stats().scans, 2u);
}

// --- OpLog ---------------------------------------------------------

struct LogRig
{
    explicit LogRig(std::uint64_t capacity = 4096)
        : timed(port, &store)
    {
        OpLogParams params;
        params.base = std::uint64_t(1) << 20;
        params.capacity = capacity;
        log.emplace(store, timed, params);
        Tick t = 0;
        log->format(t);
    }

    FixedPort port;
    mem::BackingStore store;
    mem::TimedMem timed;
    std::optional<OpLog> log;
};

OpRecord
logRecord(std::uint64_t req_id, std::uint64_t key,
          std::uint64_t value_seed, std::uint64_t version)
{
    OpRecord rec;
    rec.reqId = req_id;
    rec.key = key;
    rec.valueSeed = value_seed;
    rec.version = version;
    rec.client = static_cast<std::uint32_t>(req_id % 17);
    return rec;
}

TEST(OpLog, AppendCommitDrainRoundTrip)
{
    LogRig rig;
    Tick t = 0;

    EXPECT_EQ(rig.log->append(t, logRecord(1, 10, 100, 1)), 1u);
    EXPECT_EQ(rig.log->append(t, logRecord(2, 20, 200, 1)), 2u);
    EXPECT_EQ(rig.log->append(t, logRecord(3, 30, 300, 1)), 3u);
    EXPECT_EQ(rig.log->uncommittedRecords(), 3u);
    EXPECT_EQ(rig.log->backlogRecords(), 0u);
    EXPECT_FALSE(rig.log->committedThrough(1));

    rig.log->commit(t);
    EXPECT_EQ(rig.log->uncommittedRecords(), 0u);
    EXPECT_EQ(rig.log->backlogRecords(), 3u);
    EXPECT_TRUE(rig.log->committedThrough(3));

    OpRecord head = rig.log->readHead(t);
    EXPECT_EQ(head.seq, 1u);
    EXPECT_EQ(head.reqId, 1u);
    EXPECT_EQ(head.checksum, OpLog::checksumOf(head));
    rig.log->pop();
    head = rig.log->readHead(t);
    EXPECT_EQ(head.seq, 2u);
    rig.log->pop();
    rig.log->persistHead(t);
    EXPECT_EQ(rig.log->headVirt(), 2 * OpLog::recordBytes);
    EXPECT_EQ(rig.log->persistedHeadVirt(), 2 * OpLog::recordBytes);

    EXPECT_EQ(rig.log->stats().appends, 3u);
    EXPECT_EQ(rig.log->stats().commits, 1u);
    EXPECT_EQ(rig.log->stats().pops, 2u);
    EXPECT_EQ(rig.log->stats().headPersists, 1u);

    // A fresh attach over the same region sees the durable cursors.
    OpLog other(rig.store, rig.timed, rig.log->params());
    ASSERT_TRUE(other.attach(t));
    EXPECT_EQ(other.headVirt(), 2 * OpLog::recordBytes);
    EXPECT_EQ(other.tailVirt(), 3 * OpLog::recordBytes);
    EXPECT_EQ(other.backlogRecords(), 1u);
}

TEST(OpLog, WouldBlockUntilEvictionHeadIsDurable)
{
    LogRig rig(2 * OpLog::recordBytes);
    Tick t = 0;

    rig.log->append(t, logRecord(1, 1, 10, 1));
    rig.log->append(t, logRecord(2, 2, 20, 1));
    EXPECT_TRUE(rig.log->wouldBlock());

    // Draining alone is not enough: the slot may only be rewritten
    // once the head persist covering its eviction has completed.
    rig.log->commit(t);
    (void)rig.log->readHead(t);
    rig.log->pop();
    (void)rig.log->readHead(t);
    rig.log->pop();
    EXPECT_TRUE(rig.log->wouldBlock());

    rig.log->persistHead(t);
    EXPECT_FALSE(rig.log->wouldBlock());

    // The reused slot gets a lap-disambiguating sequence number.
    EXPECT_EQ(rig.log->append(t, logRecord(3, 3, 30, 1)), 3u);
    rig.log->commit(t);
    const OpRecord rec = rig.log->readHead(t);
    EXPECT_EQ(rec.seq, 3u);
    EXPECT_EQ(rec.reqId, 3u);
}

TEST(OpLog, RecoveryReplaysDurableUncommittedSuffix)
{
    LogRig rig;
    Tick t = 0;
    rig.log->append(t, logRecord(1, 10, 100, 1));
    rig.log->commit(t);
    rig.log->append(t, logRecord(2, 20, 200, 1));
    // No commit: record 2 is durable (no cut fired) but its ack was
    // never released. Recovery replays it anyway — idempotent, and
    // strictly more state than the client was promised.

    OpLog other(rig.store, rig.timed, rig.log->params());
    ASSERT_TRUE(other.attach(t));
    const OpLogRecovery scan = other.recover(t);
    EXPECT_EQ(scan.headVirt, 0u);
    EXPECT_EQ(scan.tailVirt, OpLog::recordBytes);
    EXPECT_EQ(scan.scanEndVirt, 2 * OpLog::recordBytes);
    EXPECT_TRUE(scan.tailCovered);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].reqId, 1u);
    EXPECT_EQ(scan.records[1].reqId, 2u);
    EXPECT_EQ(other.tailVirt(), 2 * OpLog::recordBytes);

    other.resetAfterReplay(t);
    EXPECT_EQ(other.backlogRecords(), 0u);
    EXPECT_EQ(other.headVirt(), other.tailVirt());
}

TEST(OpLog, RecoveryDiscardsRecordDroppedAtTheCut)
{
    LogRig rig;
    Tick t = 0;
    rig.log->append(t, logRecord(1, 10, 100, 1));
    rig.log->commit(t);

    // The rails die exactly as the second append's line store begins:
    // the whole line is dropped and the slot still reads as zeros.
    rig.store.armPowerCut(t, 0xfeed);
    rig.log->append(t, logRecord(2, 20, 200, 1));
    rig.store.disarmPowerCut();

    OpLog other(rig.store, rig.timed, rig.log->params());
    ASSERT_TRUE(other.attach(t));
    const OpLogRecovery scan = other.recover(t);
    EXPECT_TRUE(scan.tailCovered);
    EXPECT_EQ(scan.scanEndVirt, OpLog::recordBytes);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].reqId, 1u);
    EXPECT_EQ(other.stats().checksumStops, 1u);
}

// --- KvService op-log write path -----------------------------------

KvParams
oplogParams()
{
    KvParams params;
    params.writePath = WritePath::OpLog;
    return params;
}

TEST(KvServiceOpLog, PutAckDefersUntilGroupCommit)
{
    KvRig rig(oplogParams());
    Tick t = 0;

    bool deferred = false;
    auto put = rig.kv.execute(t, makeReq(1, workload::KvOp::Put, 42, 777),
                              &deferred);
    EXPECT_EQ(put.status, RpcStatus::Ok);
    EXPECT_EQ(put.version, 1u);
    EXPECT_TRUE(deferred);
    EXPECT_EQ(rig.kv.logUncommittedRecords(), 1u);
    EXPECT_EQ(rig.kv.appliedCount(), 0u);
    EXPECT_FALSE(rig.kv.lookup(42).has_value());

    // Read-your-writes: the GET observes the pending record, but it
    // must defer with it — its result is not durable yet either.
    bool get_deferred = false;
    auto get = rig.kv.execute(t, makeReq(2, workload::KvOp::Get, 42),
                              &get_deferred);
    EXPECT_EQ(get.status, RpcStatus::Ok);
    EXPECT_EQ(get.version, 1u);
    EXPECT_EQ(get.valueSeed, 777u);
    EXPECT_TRUE(get_deferred);

    rig.kv.logCommit(t);
    EXPECT_EQ(rig.kv.logUncommittedRecords(), 0u);
    EXPECT_EQ(rig.kv.logBacklogRecords(), 1u);
    get_deferred = false;
    get = rig.kv.execute(t, makeReq(3, workload::KvOp::Get, 42),
                         &get_deferred);
    EXPECT_EQ(get.version, 1u);
    EXPECT_FALSE(get_deferred);

    EXPECT_EQ(rig.kv.logDrain(t, 64), 1u);
    EXPECT_EQ(rig.kv.appliedCount(), 1u);
    ASSERT_TRUE(rig.kv.lookup(42).has_value());
    EXPECT_EQ(rig.kv.lookup(42)->version, 1u);
    EXPECT_EQ(rig.kv.lookup(42)->valueSeed, 777u);
    EXPECT_EQ(rig.kv.stats().logAppends, 1u);
    EXPECT_EQ(rig.kv.stats().logCommits, 1u);
    EXPECT_EQ(rig.kv.stats().logDrainApplied, 1u);
}

TEST(KvServiceOpLog, PendingRetryIsIdempotent)
{
    KvRig rig(oplogParams());
    Tick t = 0;
    const auto req = makeReq(9, workload::KvOp::Put, 5, 123);

    bool deferred = false;
    auto first = rig.kv.execute(t, req, &deferred);
    EXPECT_EQ(first.version, 1u);
    EXPECT_TRUE(deferred);

    // Retry while the record sits uncommitted in the log: no second
    // append, and the ack defers on the same group commit.
    auto retry = req;
    retry.attempt = 2;
    bool retry_deferred = false;
    auto second = rig.kv.execute(t, retry, &retry_deferred);
    EXPECT_EQ(second.status, RpcStatus::Ok);
    EXPECT_EQ(second.version, 1u);
    EXPECT_TRUE(retry_deferred);
    EXPECT_EQ(rig.kv.stats().idempotentHits, 1u);
    EXPECT_EQ(rig.kv.stats().logAppends, 1u);

    // After drain the retry answers from the persistent dedup set.
    rig.kv.logDrainAll(t);
    retry.attempt = 3;
    retry_deferred = true;
    auto third = rig.kv.execute(t, retry, &retry_deferred);
    EXPECT_EQ(third.version, 1u);
    EXPECT_FALSE(retry_deferred);
    EXPECT_EQ(rig.kv.stats().idempotentHits, 2u);
    EXPECT_EQ(rig.kv.appliedCount(), 1u);
}

TEST(KvServiceOpLog, VersionChainsThroughPendingRecords)
{
    KvRig rig(oplogParams());
    Tick t = 0;
    bool deferred = false;

    auto p1 = rig.kv.execute(t, makeReq(1, workload::KvOp::Put, 5, 100),
                             &deferred);
    EXPECT_EQ(p1.version, 1u);
    auto p2 = rig.kv.execute(t, makeReq(2, workload::KvOp::Put, 5, 101),
                             &deferred);
    EXPECT_EQ(p2.version, 2u);

    auto get = rig.kv.execute(t, makeReq(3, workload::KvOp::Get, 5),
                              &deferred);
    EXPECT_EQ(get.version, 2u);
    EXPECT_EQ(get.valueSeed, 101u);

    rig.kv.logDrainAll(t);
    ASSERT_TRUE(rig.kv.lookup(5).has_value());
    EXPECT_EQ(rig.kv.lookup(5)->version, 2u);
    EXPECT_EQ(rig.kv.lookup(5)->valueSeed, 101u);
    EXPECT_EQ(rig.kv.lookup(5)->lastReqId, 2u);
    EXPECT_EQ(rig.kv.appliedCount(), 2u);
}

TEST(KvServiceOpLog, FullRingStallDrainsInline)
{
    KvParams params = oplogParams();
    params.oplog.capacity = 4 * OpLog::recordBytes;
    KvRig rig(params);
    Tick t = 0;

    for (std::uint64_t k = 1; k <= 6; ++k) {
        bool deferred = false;
        auto resp = rig.kv.execute(
            t, makeReq(k, workload::KvOp::Put, k, 1000 + k), &deferred);
        EXPECT_EQ(resp.status, RpcStatus::Ok);
        EXPECT_EQ(resp.version, 1u);
    }
    EXPECT_GE(rig.kv.stats().logStallDrains, 1u);
    EXPECT_EQ(rig.kv.stats().logAppends, 6u);

    rig.kv.logDrainAll(t);
    EXPECT_EQ(rig.kv.appliedCount(), 6u);
    for (std::uint64_t k = 1; k <= 6; ++k) {
        ASSERT_TRUE(rig.kv.lookup(k).has_value());
        EXPECT_EQ(rig.kv.lookup(k)->version, 1u);
        EXPECT_EQ(rig.kv.lookup(k)->valueSeed, 1000 + k);
    }
}

TEST(KvServiceOpLog, CommittedRecordsSurviveACrashUncommittedVanish)
{
    KvRig rig(oplogParams());
    Tick t = 0;
    bool deferred = false;

    auto acked = rig.kv.execute(
        t, makeReq(1, workload::KvOp::Put, 11, 500), &deferred);
    ASSERT_EQ(acked.status, RpcStatus::Ok);
    rig.kv.logCommit(t);  // group commit: the ack may now release

    // Power dies before the second PUT's append: its line store is
    // dropped whole, and its ack never released (still deferred).
    rig.store.armPowerCut(t, 0xbeef);
    (void)rig.kv.execute(t, makeReq(2, workload::KvOp::Put, 22, 501),
                         &deferred);
    EXPECT_TRUE(deferred);
    rig.store.disarmPowerCut();

    Tick rt = t;
    rig.kv.recover(rt);
    EXPECT_EQ(rig.kv.stats().recoveries, 1u);
    EXPECT_EQ(rig.kv.stats().logReplayApplied, 1u);

    // The committed PUT was never drained, so only replay can have
    // restored it; the dropped one left no trace.
    ASSERT_TRUE(rig.kv.lookup(11).has_value());
    EXPECT_EQ(rig.kv.lookup(11)->version, 1u);
    EXPECT_EQ(rig.kv.lookup(11)->valueSeed, 500u);
    EXPECT_FALSE(rig.kv.lookup(22).has_value());
    EXPECT_EQ(rig.kv.appliedCount(), 1u);
    const auto ids = rig.kv.appliedIds();
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(rig.kv.logBacklogRecords(), 0u);
    EXPECT_EQ(rig.kv.logUncommittedRecords(), 0u);

    bool get_deferred = true;
    auto get = rig.kv.execute(rt, makeReq(3, workload::KvOp::Get, 22),
                              &get_deferred);
    EXPECT_EQ(get.status, RpcStatus::NotFound);
    EXPECT_FALSE(get_deferred);
}

TEST(KvServiceOpLog, CrashAnywhereInsideDrainAppliesExactlyOnce)
{
    // Probe one clean timeline to learn the drain window, then sweep
    // power cuts across it. Wherever the cut lands — inside the apply
    // transaction, between its commit and the head persist, or past
    // the whole drain — the committed record must recover to exactly
    // one application.
    Tick drain_start = 0;
    Tick drain_end = 0;
    {
        KvRig probe(oplogParams());
        Tick t = 0;
        bool deferred = false;
        (void)probe.kv.execute(
            t, makeReq(1, workload::KvOp::Put, 11, 500), &deferred);
        probe.kv.logCommit(t);
        drain_start = t;
        (void)probe.kv.logDrain(t, 4);
        drain_end = t;
    }
    ASSERT_GT(drain_end, drain_start);

    const int trials = 48;
    int saw_replay = 0;
    int saw_skip_or_drained = 0;
    for (int i = 0; i < trials; ++i) {
        const Tick cut = drain_start
            + (drain_end - drain_start) * Tick(i) / Tick(trials - 1);
        KvRig rig(oplogParams());
        Tick t = 0;
        bool deferred = false;
        (void)rig.kv.execute(
            t, makeReq(1, workload::KvOp::Put, 11, 500), &deferred);
        rig.kv.logCommit(t);
        rig.store.armPowerCut(cut, 0x50 + std::uint64_t(i));
        (void)rig.kv.logDrain(t, 4);
        rig.store.disarmPowerCut();

        Tick rt = t;
        rig.kv.recover(rt);
        ASSERT_TRUE(rig.kv.lookup(11).has_value()) << "cut=" << cut;
        EXPECT_EQ(rig.kv.lookup(11)->version, 1u) << "cut=" << cut;
        EXPECT_EQ(rig.kv.lookup(11)->valueSeed, 500u);
        EXPECT_EQ(rig.kv.appliedCount(), 1u) << "cut=" << cut;
        ASSERT_EQ(rig.kv.appliedIds().size(), 1u) << "cut=" << cut;

        if (rig.kv.stats().logReplayApplied > 0)
            ++saw_replay;
        else
            ++saw_skip_or_drained;
    }
    // The sweep covered both fates: cuts that rolled the apply back
    // (replay restores it) and cuts the apply survived (replay skips
    // it, or the head persist landed too and the scan finds nothing).
    EXPECT_GT(saw_replay, 0);
    EXPECT_GT(saw_skip_or_drained, 0);
}

TEST(KvServiceOpLog, TornAppendRecoversToAppliedOnceOrAbsent)
{
    // Satellite: the torn-tail property. Locate the append's line
    // store on a clean timeline, then land a cut *inside* that store
    // under many torn-prefix seeds. Whatever byte prefix of the
    // record lands, recovery must converge to "applied exactly once"
    // (the full line made it) or "absent" (checksum discards the
    // prefix) — a GET may never observe a torn in-between.
    Tick append_at = 0;
    {
        KvRig probe(oplogParams());
        Tick t = 0;
        bool deferred = false;
        (void)probe.kv.execute(
            t, makeReq(1, workload::KvOp::Put, 77, 900), &deferred);
        ASSERT_NE(probe.kv.opLog(), nullptr);
        OpRecord rec;
        probe.timed.readValue(t, probe.kv.opLog()->slotAddr(0), rec);
        ASSERT_EQ(rec.reqId, 1u);
        append_at = rec.appendedAt;
    }

    std::set<std::uint64_t> torn_prefixes;
    int saw_applied = 0;
    int saw_absent = 0;
    for (std::uint64_t seed = 0; seed < 96; ++seed) {
        KvRig rig(oplogParams());
        Tick t = 0;
        bool deferred = false;
        rig.store.armPowerCut(append_at + 20 * tickNs, seed);
        (void)rig.kv.execute(
            t, makeReq(1, workload::KvOp::Put, 77, 900), &deferred);
        EXPECT_TRUE(deferred);  // the ack never released
        EXPECT_EQ(rig.store.cutStats().tornWrites, 1u);
        torn_prefixes.insert(rig.store.cutStats().lastTornBytes);
        rig.store.disarmPowerCut();

        Tick rt = t;
        rig.kv.recover(rt);
        const auto state = rig.kv.lookup(77);
        if (state.has_value()) {
            // The full record landed: applied exactly once.
            ++saw_applied;
            EXPECT_EQ(state->version, 1u);
            EXPECT_EQ(state->valueSeed, 900u);
            EXPECT_EQ(rig.kv.appliedCount(), 1u);
            ASSERT_EQ(rig.kv.appliedIds().size(), 1u);
            EXPECT_EQ(rig.kv.appliedIds()[0], 1u);
        } else {
            // A shorter prefix failed the checksum: no trace at all.
            ++saw_absent;
            EXPECT_EQ(rig.kv.appliedCount(), 0u);
            EXPECT_TRUE(rig.kv.appliedIds().empty());
            bool get_deferred = false;
            auto get = rig.kv.execute(
                rt, makeReq(2, workload::KvOp::Get, 77), &get_deferred);
            EXPECT_EQ(get.status, RpcStatus::NotFound);
        }

        // Either way the client's retry converges to exactly one
        // application of the PUT.
        auto retry = makeReq(1, workload::KvOp::Put, 77, 900);
        retry.attempt = 2;
        bool retry_deferred = false;
        (void)rig.kv.execute(rt, retry, &retry_deferred);
        rig.kv.logDrainAll(rt);
        ASSERT_TRUE(rig.kv.lookup(77).has_value());
        EXPECT_EQ(rig.kv.lookup(77)->version, 1u);
        EXPECT_EQ(rig.kv.appliedCount(), 1u);
    }

    // The seed sweep exercised a broad spread of byte offsets across
    // the 64-byte record, including both recovery outcomes.
    EXPECT_GE(torn_prefixes.size(), 24u);
    EXPECT_GT(saw_absent, 0);
}

// --- dedup-table compaction ----------------------------------------

TEST(KvService, DedupCompactionPreservesRetryHorizon)
{
    KvParams params;
    params.dedupCapacity = 64;
    params.dedupRetention = 1 * tickSec;
    KvRig rig(params);
    Tick t = 0;

    // Fill to just under the 3/4 threshold early in time...
    for (std::uint64_t i = 1; i <= 40; ++i)
        (void)rig.kv.execute(
            t, makeReq(i, workload::KvOp::Put, i, 100 + i));
    EXPECT_EQ(rig.kv.stats().dedupCompactions, 0u);

    // ...then cross it much later: the early IDs are past retention
    // and compaction evicts exactly those.
    t = 2 * tickSec;
    for (std::uint64_t i = 101; i <= 112; ++i)
        (void)rig.kv.execute(
            t, makeReq(i, workload::KvOp::Put, i, 500 + i));
    EXPECT_GE(rig.kv.stats().dedupCompactions, 1u);
    EXPECT_EQ(rig.kv.compactedCount(), 40u);
    EXPECT_GE(rig.kv.dedupFloor(), 1 * tickSec);

    // The audit identity survives eviction, exactly.
    EXPECT_EQ(rig.kv.appliedCount(),
              rig.kv.appliedIds().size() + rig.kv.compactedCount());
    EXPECT_EQ(rig.kv.dedupLiveCount(), rig.kv.appliedIds().size());

    // A late retry of an ID inside the retention horizon still hits
    // the dedup set — compaction never forgot it.
    auto retry = makeReq(105, workload::KvOp::Put, 105, 605);
    retry.attempt = 2;
    const std::uint64_t applied_before = rig.kv.appliedCount();
    auto resp = rig.kv.execute(t, retry);
    EXPECT_EQ(resp.status, RpcStatus::Ok);
    EXPECT_EQ(resp.version, 1u);
    EXPECT_EQ(rig.kv.stats().idempotentHits, 1u);
    EXPECT_EQ(rig.kv.appliedCount(), applied_before);

    // Crash recovery re-reads floor and compacted count from the
    // persistent header; the retry stays idempotent afterwards.
    const Tick floor = rig.kv.dedupFloor();
    Tick rt = t;
    rig.kv.recover(rt);
    EXPECT_EQ(rig.kv.compactedCount(), 40u);
    EXPECT_EQ(rig.kv.dedupFloor(), floor);
    retry.attempt = 3;
    resp = rig.kv.execute(rt, retry);
    EXPECT_EQ(resp.version, 1u);
    EXPECT_EQ(rig.kv.appliedCount(), applied_before);
    EXPECT_EQ(rig.kv.appliedCount(),
              rig.kv.appliedIds().size() + rig.kv.compactedCount());
}

/** KvService's slot hash (the splitmix64 finalizer), mirrored. */
std::uint64_t
kvSlotHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * One nonzero ID per target slot of a @p capacity-slot table, in
 * target order: the first ID, counting up from @p from, whose hash
 * lands on that slot. Distinct home slots mean no probing, so the
 * table holds each ID exactly at its target.
 */
std::vector<std::uint64_t>
idsForSlots(const std::vector<std::uint32_t> &targets,
            std::uint32_t capacity, std::uint64_t from)
{
    std::vector<std::uint64_t> by_slot(capacity, 0);
    std::size_t missing = targets.size();
    for (const std::uint32_t slot : targets)
        by_slot[slot] = ~std::uint64_t(0);  // wanted, not yet found
    for (std::uint64_t id = from; missing != 0; ++id) {
        auto &cell = by_slot[kvSlotHash(id) & (capacity - 1)];
        if (cell == ~std::uint64_t(0)) {
            cell = id;
            --missing;
        }
    }
    std::vector<std::uint64_t> ids;
    for (const std::uint32_t slot : targets)
        ids.push_back(by_slot[slot]);
    return ids;
}

/**
 * The table scans (dedup recount, appliedIds, snapshotRecords) read
 * in runs of entries; they must match a slot-by-slot walk after a
 * fresh open over existing state and after recover(). Entries sit
 * in the first and last slots and in a contiguous block longer than
 * one 4 KiB store page (so two neighbours straddle a page boundary
 * wherever the root lands) that also crosses a 256-entry run.
 */
TEST(KvService, TableScansMatchASlotBySlotWalk)
{
    KvParams params;
    params.keyCapacity = 1024;
    params.dedupCapacity = 1024;
    auto targets = [](std::uint32_t first, std::uint32_t block_end) {
        std::vector<std::uint32_t> slots{0};
        for (std::uint32_t s = first; s < block_end; ++s)
            slots.push_back(s);
        slots.push_back(1023);
        return slots;
    };
    // 260 x 24 B dedup entries and 260 x 32 B key slots: > 4 KiB each.
    const std::vector<std::uint64_t> req_ids =
        idsForSlots(targets(150, 410), params.dedupCapacity, 1);
    const std::vector<std::uint64_t> keys =
        idsForSlots(targets(100, 360), params.keyCapacity, 1 << 20);
    ASSERT_EQ(req_ids.size(), keys.size());

    KvRig rig(params);
    EXPECT_EQ(rig.kv.dedupLiveCount(), 0u);
    EXPECT_TRUE(rig.kv.appliedIds().empty());
    EXPECT_TRUE(rig.kv.snapshotRecords().empty());

    // PUT i writes req_ids[i] and keys[i]; both lists are in slot
    // order, so the slot-by-slot walk visits them in list order.
    Tick t = 0;
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(rig.kv
                      .execute(t, makeReq(req_ids[i], workload::KvOp::Put,
                                          keys[i], 7 * i + 1))
                      .status,
                  RpcStatus::Ok);

    auto expectWalk = [&](const KvService &kv) {
        EXPECT_EQ(kv.dedupLiveCount(), req_ids.size());
        EXPECT_EQ(kv.appliedIds(), req_ids);
        const std::vector<KvKeyState> snap = kv.snapshotRecords();
        ASSERT_EQ(snap.size(), keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            EXPECT_EQ(snap[i].key, keys[i]);
            EXPECT_EQ(snap[i].version, 1u);
            EXPECT_EQ(snap[i].lastReqId, req_ids[i]);
            EXPECT_EQ(snap[i].valueSeed, 7 * i + 1);
        }
    };
    expectWalk(rig.kv);

    KvService reopened(rig.store, rig.timed, params);
    expectWalk(reopened);

    rig.kv.recover(t);
    expectWalk(rig.kv);
}

// --- golden pin ------------------------------------------------------
//
// One fixed stream through every KvService entry point on a LightPC
// machine's PSM path: GET, PUT, retries, SCAN and an expired deadline;
// the replicated install calls; group commit and drain; a forced
// dedup compaction; the cluster metadata; and a crash recovery. The
// pinned values move only if the simulation itself changes.

struct KvGolden
{
    Tick t = 0;
    std::uint64_t storeDigest = 0;
    std::uint64_t responses = 0;  ///< fold of every response field
    std::vector<std::uint64_t> stats;  ///< every KvStats field, in order
};

KvGolden
runKvGolden(WritePath path, std::uint64_t checkpoint_bytes)
{
    platform::System sys{platform::SystemConfig{}};
    mem::TimedMem timed(sys.memoryPort(), &sys.pmemStore());
    KvParams params;
    params.keyCapacity = 256;
    params.dedupCapacity = 64;
    params.dedupRetention = 1 * tickMs;
    params.writePath = path;
    params.oplog.capacity = 8 * OpLog::recordBytes;
    params.checkpointBytesPerOp = checkpoint_bytes;
    KvService kv(sys.pmemStore(), timed, params);

    KvGolden run;
    Tick &t = run.t;
    auto exec = [&](const RpcRequest &req) {
        bool deferred = false;
        const RpcResponse r = kv.execute(t, req, &deferred);
        for (const std::uint64_t v :
             {r.reqId, std::uint64_t(r.client),
              std::uint64_t(r.status), r.version, r.valueSeed,
              r.servedAt, std::uint64_t(r.attempt),
              std::uint64_t(deferred)})
            run.responses = kvSlotHash(run.responses ^ v);
    };
    // The cluster's install of one committed replicated record.
    auto install = [&](std::uint64_t id, std::uint64_t key,
                       std::uint64_t version) {
        kv.applyCommitted(t, id, key, 9000 + id, version, 3);
    };
    auto retry = [](std::uint64_t id, std::uint64_t key,
                    std::uint32_t attempt) {
        RpcRequest req = makeReq(id, workload::KvOp::Put, key, 100 + id);
        req.attempt = attempt;
        return req;
    };

    exec(makeReq(1, workload::KvOp::Get, 7));  // miss
    for (std::uint64_t id = 2; id <= 13; ++id)
        exec(makeReq(id, workload::KvOp::Put, id % 5 + 1, 100 + id));
    exec(retry(4, 5, 2));
    exec(makeReq(14, workload::KvOp::Get, 3));
    exec(makeReq(15, workload::KvOp::Scan, 1));
    RpcRequest late = makeReq(16, workload::KvOp::Put, 2, 116);
    late.deadline = 1;
    exec(late);
    kv.logCommit(t);
    (void)kv.logDrain(t, 3);
    exec(retry(4, 5, 3));

    for (std::uint64_t id = 20; id < 30; ++id)
        install(id, 40 + id % 4, 10 + id);
    install(20, 40, 30);  // already installed
    kv.applyReplicated(t, 31, 41, 555, 1);  // snapshot entry
    kv.applyReplicated(t, 32, 60, 556, 5);
    kv.logCommit(t);
    (void)kv.logDrain(t, 4);
    kv.persistClusterMeta(t, ClusterMeta{29, 2, 2 * 64 + 2, 29, 2});

    // Everything so far is past the retention horizon: filling the
    // dedup set past 3/4 compacts it.
    t += 5 * tickMs;
    for (std::uint64_t id = 100; id < 150; ++id)
        exec(makeReq(id, workload::KvOp::Put, id % 23 + 1, id));
    kv.logCommit(t);
    exec(makeReq(150, workload::KvOp::Put, 9, 1500));  // uncommitted
    kv.recover(t);
    exec(makeReq(151, workload::KvOp::Get, 9));
    exec(retry(4, 5, 4));
    exec(retry(120, 120 % 23 + 1, 2));
    kv.logDrainAll(t);

    run.storeDigest = sys.pmemStore().contentDigest();
    const KvStats &s = kv.stats();
    run.stats = {s.executed,         s.scans,
                 s.putsApplied,      s.idempotentHits,
                 s.rejected,         s.deadlineExceeded,
                 s.queueDropped,     s.recoveries,
                 s.maxQueueDepth,    s.logAppends,
                 s.logCommits,       s.logDrainApplied,
                 s.logReplayApplied, s.logReplaySkipped,
                 s.logStallDrains,   s.dedupCompactions,
                 s.dedupEvicted};
    return run;
}

void
expectKvGolden(const KvGolden &run, Tick t, std::uint64_t store_digest,
               std::uint64_t responses,
               const std::vector<std::uint64_t> &stats)
{
    EXPECT_EQ(run.t, t);
    EXPECT_EQ(run.storeDigest, store_digest);
    EXPECT_EQ(run.responses, responses);
    EXPECT_EQ(run.stats, stats);
}

TEST(KvServiceGolden, Undo)
{
    expectKvGolden(runKvGolden(WritePath::Undo, 0), 5625960000,
                   0xc99e5b707253f454ULL, 0x60bfa2363b458c66ULL,
                   {72, 1, 75, 3, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 23});
}

TEST(KvServiceGolden, UndoWithPerOpCheckpoint)
{
    expectKvGolden(runKvGolden(WritePath::Undo, 8192), 8508973000,
                   0xe98a03fb0610d64eULL, 0x6bd916f179f21954ULL,
                   {72, 1, 76, 2, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 50});
}

TEST(KvServiceGolden, OpLog)
{
    expectKvGolden(runKvGolden(WritePath::OpLog, 0), 5713355000,
                   0xf7ff82e95d8fc30dULL, 0xc9cf3cc360b6ba78ULL,
                   {72, 1, 75, 3, 0, 1, 0, 1, 0, 74, 12, 71, 3, 0, 8, 1,
                    23});
}

// --- ClientFleet ---------------------------------------------------

TEST(ClientFleet, BackoffDoublesAndCaps)
{
    FleetParams params;
    params.clientTimeout = 10 * tickMs;
    params.backoffCap = 40 * tickMs;
    params.retryJitter = 0;
    ClientFleet fleet(params);

    EXPECT_EQ(fleet.timeoutFor(0, 1), 10 * tickMs);
    EXPECT_EQ(fleet.timeoutFor(0, 2), 20 * tickMs);
    EXPECT_EQ(fleet.timeoutFor(0, 3), 40 * tickMs);
    EXPECT_EQ(fleet.timeoutFor(0, 4), 40 * tickMs);
    EXPECT_EQ(fleet.timeoutFor(0, 8), 40 * tickMs);
}

TEST(ClientFleet, RetryKeepsRequestIdAndExhaustsBudget)
{
    FleetParams params;
    params.maxAttempts = 3;
    ClientFleet fleet(params);

    const RpcRequest req = fleet.newRequest(100);
    EXPECT_TRUE(fleet.isOutstanding(req.reqId));
    EXPECT_EQ(fleet.firstIssuedAt(req.reqId), 100u);

    auto r2 = fleet.retryAttempt(req.reqId, 200);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->reqId, req.reqId);
    EXPECT_EQ(r2->attempt, 2u);
    auto r3 = fleet.retryAttempt(req.reqId, 300);
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->attempt, 3u);

    // Budget spent: the request fails and leaves the outstanding set.
    EXPECT_FALSE(fleet.retryAttempt(req.reqId, 400).has_value());
    EXPECT_EQ(fleet.stats().failed, 1u);
    EXPECT_FALSE(fleet.isOutstanding(req.reqId));
    EXPECT_EQ(fleet.stats().attempts, 3u);
    EXPECT_EQ(fleet.stats().retries, 2u);
}

TEST(ClientFleet, AckOutcomesDriveTheLedger)
{
    FleetParams params;
    params.mix.getFraction = 0.0;
    params.mix.putFraction = 1.0;  // every request is a PUT
    ClientFleet fleet(params);

    const RpcRequest req = fleet.newRequest(10);
    ASSERT_EQ(req.op, workload::KvOp::Put);
    EXPECT_EQ(fleet.putKeyOf(req.reqId), req.key);

    RpcResponse resp;
    resp.reqId = req.reqId;
    resp.status = RpcStatus::Rejected;
    EXPECT_EQ(fleet.onResponse(resp, 20),
              ClientFleet::AckOutcome::RetriableError);
    EXPECT_TRUE(fleet.isOutstanding(req.reqId));

    resp.status = RpcStatus::Ok;
    resp.version = 4;
    EXPECT_EQ(fleet.onResponse(resp, 30),
              ClientFleet::AckOutcome::Completed);
    ASSERT_EQ(fleet.ackedPuts().size(), 1u);
    EXPECT_EQ(fleet.ackedPuts()[0].key, req.key);
    EXPECT_EQ(fleet.ackedPuts()[0].version, 4u);
    EXPECT_EQ(fleet.ackedPuts()[0].ackedAt, 30u);

    // A late duplicate ack (the retry that also completed) counts
    // but does not re-enter the ledger.
    EXPECT_EQ(fleet.onResponse(resp, 40),
              ClientFleet::AckOutcome::Duplicate);
    EXPECT_EQ(fleet.stats().duplicateAcks, 1u);
    EXPECT_EQ(fleet.ackedPuts().size(), 1u);
}

TEST(ClientFleet, MaxRetrySpanDominatesEveryBackoffSchedule)
{
    // Jitter-free schedule: the span is exact.
    FleetParams exact;
    exact.clientTimeout = 10 * tickMs;
    exact.backoffCap = 40 * tickMs;
    exact.retryJitter = 0;
    exact.maxAttempts = 5;
    EXPECT_EQ(exact.maxRetrySpan(), (10 + 20 + 40 + 40) * tickMs);

    // With jitter, every draw is strictly below the per-attempt
    // ceiling the span assumes, so the realized schedule can never
    // exceed it — this is what makes the dedup retention horizon
    // derived from maxRetrySpan() safe.
    FleetParams params;
    ClientFleet fleet(params);
    Tick realized = 0;
    for (std::uint32_t attempt = 1; attempt < params.maxAttempts;
         ++attempt)
        realized += fleet.timeoutFor(7, attempt);
    EXPECT_LE(realized, params.maxRetrySpan());
    EXPECT_GT(params.maxRetrySpan(), 0u);
}

// --- AvailabilityRecorder ------------------------------------------

TEST(Availability, StragglerAckDoesNotCloseAnOutage)
{
    AvailabilityRecorder rec;
    rec.onSuccess(100, 50, 90);
    rec.outageBegin(200);

    // A frame already on the wire at the cut delivers afterwards,
    // but it was *served* before the event: it must not count as
    // recovery.
    rec.onSuccess(210, 120, 150);
    ASSERT_EQ(rec.outageRecords().size(), 1u);
    EXPECT_FALSE(rec.outageRecords()[0].closed);
    EXPECT_EQ(rec.outageRecords()[0].downtime(), maxTick);

    rec.onSuccess(5000, 4000, 4900);
    EXPECT_TRUE(rec.outageRecords()[0].closed);
    EXPECT_EQ(rec.outageRecords()[0].firstSuccessAfter, 5000u);
    EXPECT_EQ(rec.outageRecords()[0].lastSuccessBefore, 210u);
}

TEST(Availability, AckServedAtEventTickNeitherClosesNorNarrows)
{
    AvailabilityRecorder rec;
    rec.onSuccess(100, 50, 90);
    rec.outageBegin(200);

    // An ack stamped *exactly* at the power event — e.g. a batch
    // flushed as the rails failed — rides the preserved ring and
    // delivers long after restoration. It proves nothing about
    // either side of the cut: treating it as recovery would close
    // the outage, and treating it as a straggler would slide
    // lastSuccessBefore out to its late delivery. It must do neither.
    rec.onSuccess(900, 800, 200);
    ASSERT_EQ(rec.outageRecords().size(), 1u);
    EXPECT_FALSE(rec.outageRecords()[0].closed);
    EXPECT_EQ(rec.outageRecords()[0].lastSuccessBefore, 100u);

    rec.onSuccess(1000, 950, 990);
    EXPECT_TRUE(rec.outageRecords()[0].closed);
    EXPECT_EQ(rec.outageRecords()[0].downtime(), Tick(1000 - 100));
}

TEST(Availability, ImmediateRecoveryClosesWithoutUnderflow)
{
    AvailabilityRecorder rec;
    rec.onSuccess(199, 100, 198);
    rec.outageBegin(200);

    // Served one tick past the event and delivered at once: the
    // outage closes immediately and the (near zero-length) downtime
    // stays well-defined and non-negative.
    rec.onSuccess(201, 150, 201);
    ASSERT_EQ(rec.outageRecords().size(), 1u);
    EXPECT_TRUE(rec.outageRecords()[0].closed);
    EXPECT_EQ(rec.outageRecords()[0].firstSuccessAfter, 201u);
    EXPECT_EQ(rec.outageRecords()[0].downtime(), 2u);
}

TEST(Availability, StragglerNarrowsThenRealRecoveryCloses)
{
    AvailabilityRecorder rec;
    rec.onSuccess(100, 50, 90);
    rec.outageBegin(200);

    // A pre-event serve delivered after the cut narrows the gap...
    rec.onSuccess(210, 120, 150);
    EXPECT_EQ(rec.outageRecords()[0].lastSuccessBefore, 210u);

    // ...the real recovery closes it...
    rec.onSuccess(260, 230, 250);
    EXPECT_TRUE(rec.outageRecords()[0].closed);
    EXPECT_EQ(rec.outageRecords()[0].downtime(), Tick(260 - 210));

    // ...and an even later straggler can no longer touch it.
    rec.onSuccess(400, 130, 190);
    EXPECT_EQ(rec.outageRecords()[0].lastSuccessBefore, 210u);
    EXPECT_EQ(rec.outageRecords()[0].firstSuccessAfter, 260u);
}

TEST(Availability, ServiceOutageTakesTheDwellOutOfTheDowntime)
{
    AvailabilityRecorder rec;
    rec.onSuccess(1000, 900, 990);
    rec.outageBegin(1100);
    rec.onSuccess(1400, 1300, 1350);  // closes it: downtime 400
    rec.outageBegin(1500);            // never closes
    const auto &outs = rec.outageRecords();
    ASSERT_EQ(outs.size(), 2u);

    const ServiceOutage closed = serviceOutage(outs[0], 100);
    EXPECT_EQ(closed.eventAt, 1100u);
    EXPECT_EQ(closed.downtime, 400u);
    EXPECT_EQ(closed.attributable, 300u);
    EXPECT_FALSE(closed.coldBoot);

    // A downtime at or below the dwell is all dwell.
    EXPECT_EQ(serviceOutage(outs[0], 399).attributable, 1u);
    EXPECT_EQ(serviceOutage(outs[0], 400).attributable, 0u);
    EXPECT_EQ(serviceOutage(outs[0], 500).attributable, 0u);

    // An open outage reports maxTick for both.
    const ServiceOutage open = serviceOutage(outs[1], 100, true);
    EXPECT_EQ(open.eventAt, 1500u);
    EXPECT_EQ(open.downtime, maxTick);
    EXPECT_EQ(open.attributable, maxTick);
    EXPECT_TRUE(open.coldBoot);
}

// --- net::Machine ---------------------------------------------------

/** A host that only collects what reaches the clients. */
struct RecordingHost : MachineHost
{
    std::vector<RpcResponse> delivered;

    void
    deliverResponse(const RpcResponse &resp) override
    {
        delivered.push_back(resp);
    }
};

MachineParams
smallMachine()
{
    MachineParams params;
    params.userProcesses = 4;
    params.kernelThreads = 2;
    params.deviceCount = 8;
    return params;
}

MachineSetup
machineSetup()
{
    MachineSetup setup;
    setup.systemSeed = 7;
    setup.rngSeed = 8;
    setup.scrambleSeed = 9;
    setup.holdup = 16 * tickMs;
    return setup;
}

TEST(Machine, QueuedFrameRidesStopAndGoButNotAColdBoot)
{
    const MachineParams params = smallMachine();
    for (const PersistMode mode :
         {PersistMode::SnG, PersistMode::OpLog, PersistMode::SysPc,
          PersistMode::SCheckPc, PersistMode::ACheckPc}) {
        SCOPED_TRACE(persistModeName(mode));
        const bool sng =
            mode == PersistMode::SnG || mode == PersistMode::OpLog;
        EventQueue eq;
        RecordingHost host;
        Machine m(params, mode, machineSetup(), eq, host);

        // One GET waits in the RX ring when the power fails.
        RpcRequest get;
        get.reqId = 5;
        get.client = 1;
        get.op = workload::KvOp::Get;
        get.key = 3;
        ASSERT_TRUE(m.nic->rxPush(get));
        const Tick cutAt = 5 * tickMs;
        EXPECT_EQ(m.powerFail(cutAt), !sng);
        EXPECT_FALSE(m.canServe());

        m.restorePower();
        const Machine::Recovery rec = m.recover(cutAt + params.offDwell);
        EXPECT_EQ(rec.coldBoot, !sng);
        EXPECT_GT(rec.upAt, cutAt + params.offDwell);
        EXPECT_EQ(m.stats.resumes, sng ? 1u : 0u);
        EXPECT_EQ(m.stats.coldBoots, sng ? 0u : 1u);
        EXPECT_EQ(m.stats.ringPreservedFrames, sng ? 1u : 0u);
        EXPECT_EQ(m.stats.ringFramesLost, sng ? 0u : 1u);
        EXPECT_EQ(m.nic->rxOccupancy(), sng ? 1u : 0u);

        // Once the service is back, a preserved frame is answered.
        eq.schedule(rec.upAt, [&m] { m.resumeService(); });
        eq.run();
        ASSERT_EQ(host.delivered.size(), sng ? 1u : 0u);
        if (sng) {
            EXPECT_EQ(host.delivered[0].reqId, 5u);
            EXPECT_GE(host.delivered[0].servedAt, rec.upAt);
        }
    }
}

TEST(Machine, OpLogAckDeferredAtTheCutLeavesStampedAtTheEventTick)
{
    const MachineParams params = smallMachine();
    EventQueue eq;
    RecordingHost host;
    Machine m(params, PersistMode::OpLog, machineSetup(), eq, host);

    RpcRequest put;
    put.reqId = 9;
    put.client = 2;
    put.op = workload::KvOp::Put;
    put.key = 4;
    put.valueSeed = 77;
    m.rxArrive(put);
    // Serve the PUT; its ack then waits on the group-commit timer.
    while (m.deferredAcks.empty() && eq.step()) {
    }
    ASSERT_EQ(m.deferredAcks.size(), 1u);
    ASSERT_TRUE(m.commitScheduled);
    const std::uint64_t commitsBefore = m.kv->stats().logCommits;

    // The cut beats the timer: the emergency commit makes the record
    // durable and the ack rides the TX ring, stamped at the event.
    const Tick servedAt = m.deferredAcks[0].servedAt;
    const Tick cutAt = eq.now() + MachineParams::oplogCommitInterval / 2;
    EXPECT_FALSE(m.powerFail(cutAt));
    EXPECT_TRUE(m.deferredAcks.empty());
    EXPECT_EQ(m.kv->stats().logCommits, commitsBefore + 1);
    EXPECT_EQ(m.nic->txOccupancy(), 1u);

    m.restorePower();
    const Machine::Recovery rec = m.recover(cutAt + params.offDwell);
    EXPECT_FALSE(rec.coldBoot);
    eq.schedule(rec.upAt, [&m] { m.resumeService(); });
    eq.run();
    ASSERT_EQ(host.delivered.size(), 1u);
    EXPECT_EQ(host.delivered[0].reqId, 9u);
    EXPECT_EQ(host.delivered[0].status, RpcStatus::Ok);
    EXPECT_EQ(host.delivered[0].servedAt, cutAt);
    EXPECT_LT(servedAt, cutAt);
}

// --- runService end to end -----------------------------------------

ServiceConfig
tinyConfig(PersistMode mode, std::uint64_t seed)
{
    ServiceConfig cfg;
    cfg.mode = mode;
    cfg.runFor = 600 * tickMs;
    cfg.drainGrace = 2500 * tickMs;
    cfg.cuts = 1;
    cfg.offDwell = 50 * tickMs;
    cfg.fleet.clients = 300;
    cfg.fleet.arrivalsPerSec = 1500.0;
    cfg.seed = seed;
    return cfg;
}

TEST(ServicePlane, SnGSmokeHoldsInvariants)
{
    const ServiceConfig cfg = tinyConfig(PersistMode::SnG, 11);
    const ServiceResult r = runService(cfg);

    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.lostAckedPuts, 0u);
    EXPECT_EQ(r.duplicateApplied, 0u);
    EXPECT_GT(r.fleet.completed, 0u);
    EXPECT_GT(r.fleet.ackedPuts, 0u);

    ASSERT_EQ(r.outages.size(), 1u);
    EXPECT_LT(r.outages[0].downtime, maxTick);
    EXPECT_FALSE(r.outages[0].coldBoot);
    EXPECT_EQ(r.machine.coldBoots, 0u);

    // The NIC rings rode the DCB: an image per power cycle, and at
    // least one queued frame resurrected (the cut lands under load).
    EXPECT_EQ(r.machine.contextImagesSaved, 1u);
    EXPECT_EQ(r.machine.contextImagesRestored, 1u);
    EXPECT_GE(r.machine.ringPreservedFrames, 1u);
    EXPECT_EQ(r.machine.ringFramesLost, 0u);

    EXPECT_LE(r.kv.maxQueueDepth, cfg.kv.queueCapacity);
    EXPECT_LE(r.nic.maxRxOccupancy, cfg.nic.ringEntries);
    EXPECT_LE(r.nic.maxTxOccupancy, cfg.nic.ringEntries);
}

TEST(ServicePlane, SnGBeatsColdRebootOnClientVisibleDowntime)
{
    const ServiceResult sng =
        runService(tinyConfig(PersistMode::SnG, 13));
    const ServiceResult syspc =
        runService(tinyConfig(PersistMode::SysPc, 13));

    EXPECT_TRUE(sng.violations.empty());
    EXPECT_TRUE(syspc.violations.empty());
    EXPECT_EQ(syspc.machine.coldBoots, 1u);
    ASSERT_EQ(sng.outages.size(), 1u);
    ASSERT_EQ(syspc.outages.size(), 1u);
    EXPECT_LT(sng.worstAttributable, syspc.worstAttributable);
}

TEST(ServicePlane, DeterministicUnderFixedSeed)
{
    const ServiceResult a = runService(tinyConfig(PersistMode::SnG, 17));
    const ServiceResult b = runService(tinyConfig(PersistMode::SnG, 17));
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.fleet.completed, b.fleet.completed);
    EXPECT_EQ(a.fleet.ackedPuts, b.fleet.ackedPuts);
    ASSERT_EQ(a.outages.size(), b.outages.size());
    for (std::size_t i = 0; i < a.outages.size(); ++i)
        EXPECT_EQ(a.outages[i].downtime, b.outages[i].downtime);

    const ServiceResult c = runService(tinyConfig(PersistMode::SnG, 18));
    EXPECT_NE(a.digest, c.digest);
}

TEST(ServicePlane, OpLogSmokeHoldsInvariants)
{
    const ServiceConfig cfg = tinyConfig(PersistMode::OpLog, 11);
    const ServiceResult r = runService(cfg);

    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.lostAckedPuts, 0u);
    EXPECT_EQ(r.duplicateApplied, 0u);
    EXPECT_GT(r.fleet.completed, 0u);
    EXPECT_GT(r.fleet.ackedPuts, 0u);

    // The op-log write path actually carried the PUTs: group commits
    // batched the appends, and the drain (plus any post-cut replay)
    // never applied more than was appended.
    EXPECT_GT(r.kv.logAppends, 0u);
    EXPECT_GT(r.kv.logCommits, 0u);
    EXPECT_LT(r.kv.logCommits, r.kv.logAppends);
    EXPECT_GT(r.kv.logDrainApplied, 0u);
    EXPECT_GE(r.kv.logAppends, r.kv.logDrainApplied + r.kv.logReplayApplied);

    // SnG power machinery underneath: warm resume, rings preserved.
    ASSERT_EQ(r.outages.size(), 1u);
    EXPECT_LT(r.outages[0].downtime, maxTick);
    EXPECT_FALSE(r.outages[0].coldBoot);
    EXPECT_EQ(r.machine.coldBoots, 0u);
    EXPECT_EQ(r.machine.contextImagesSaved, 1u);
    EXPECT_EQ(r.machine.contextImagesRestored, 1u);
    EXPECT_EQ(r.machine.ringFramesLost, 0u);

    EXPECT_LE(r.kv.maxQueueDepth, cfg.kv.queueCapacity);
    EXPECT_LE(r.nic.maxRxOccupancy, cfg.nic.ringEntries);
    EXPECT_LE(r.nic.maxTxOccupancy, cfg.nic.ringEntries);
}

TEST(ServicePlane, OpLogDeterministicUnderFixedSeed)
{
    const ServiceResult a =
        runService(tinyConfig(PersistMode::OpLog, 17));
    const ServiceResult b =
        runService(tinyConfig(PersistMode::OpLog, 17));
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.fleet.completed, b.fleet.completed);
    EXPECT_EQ(a.kv.logAppends, b.kv.logAppends);
    EXPECT_EQ(a.kv.logCommits, b.kv.logCommits);
    ASSERT_EQ(a.outages.size(), b.outages.size());
    for (std::size_t i = 0; i < a.outages.size(); ++i)
        EXPECT_EQ(a.outages[i].downtime, b.outages[i].downtime);

    const ServiceResult c =
        runService(tinyConfig(PersistMode::OpLog, 18));
    EXPECT_NE(a.digest, c.digest);
}

} // namespace
