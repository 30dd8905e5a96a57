/**
 * @file
 * Adversarial network plane: NemesisConfig validation arms, NetNemesis
 * drop/duplicate/jitter/flap/partition semantics and determinism, the
 * AckAudit duplicate-tolerant split-brain ledger, the HistoryAudit
 * linearizability checker on synthetic histories, the client fleet's
 * fast-redirect budget, cluster end-to-end invariants under an active
 * nemesis, and the cluster campaign's nemesis-ladder grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/history_audit.hh"
#include "fault/net_nemesis.hh"
#include "fault/cluster_campaign.hh"
#include "net/client_fleet.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using cluster::AckAudit;
using cluster::ClusterConfig;
using cluster::ClusterResult;
using cluster::HistoryAuditResult;
using fault::LinkFlap;
using fault::NemesisConfig;
using fault::NetNemesis;
using fault::PartitionMode;
using fault::PartitionSpec;

// --- NemesisConfig validation --------------------------------------

/** A config valid for a 3-replica, 2-rack fleet. */
NemesisConfig
validNem()
{
    NemesisConfig nem;
    nem.dropProb = 0.05;
    nem.dupProb = 0.02;
    nem.jitterMax = 50 * tickUs;
    nem.flaps.push_back({0, 2, 100 * tickMs, 200 * tickMs});
    PartitionSpec part;
    part.start = 300 * tickMs;
    part.end = 400 * tickMs;
    part.firstRack = 0;
    nem.partitions.push_back(part);
    return nem;
}

void
expectValid(const NemesisConfig &nem)
{
    EXPECT_NO_THROW(fault::validateNemesisConfig(nem, 3, 2));
}

void
expectRejected(const NemesisConfig &nem)
{
    EXPECT_THROW(fault::validateNemesisConfig(nem, 3, 2), FatalError);
}

TEST(NemesisValidation, DefaultIsInertAndValid)
{
    const NemesisConfig nem;
    EXPECT_FALSE(nem.active());
    expectValid(nem);
    expectValid(validNem());
}

TEST(NemesisValidation, RejectsDropProbOutOfRange)
{
    NemesisConfig nem = validNem();
    nem.dropProb = -0.01;
    expectRejected(nem);
    nem.dropProb = 1.01;
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsDupProbOutOfRange)
{
    NemesisConfig nem = validNem();
    nem.dupProb = -0.5;
    expectRejected(nem);
    nem.dupProb = 2.0;
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsPartialCutProbOutOfRange)
{
    NemesisConfig nem = validNem();
    nem.partialCutProb = -0.1;
    expectRejected(nem);
    nem.partialCutProb = 1.5;
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsFlapOnOneReplica)
{
    NemesisConfig nem = validNem();
    nem.flaps[0].b = nem.flaps[0].a;
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsFlapEndpointPastTheFleet)
{
    NemesisConfig nem = validNem();
    nem.flaps[0].b = 3;  // replicas are 0..2
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsEmptyFlapWindow)
{
    NemesisConfig nem = validNem();
    nem.flaps[0].end = nem.flaps[0].start;
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsOverlappingFlapsOnOnePair)
{
    NemesisConfig nem = validNem();
    // Same unordered pair, reversed endpoints, overlapping window.
    nem.flaps.push_back({2, 0, 150 * tickMs, 250 * tickMs});
    expectRejected(nem);

    // Disjoint windows on the same pair are fine.
    nem = validNem();
    nem.flaps.push_back({2, 0, 250 * tickMs, 300 * tickMs});
    expectValid(nem);

    // Overlapping windows on distinct pairs are fine too.
    nem = validNem();
    nem.flaps.push_back({1, 2, 150 * tickMs, 250 * tickMs});
    expectValid(nem);
}

TEST(NemesisValidation, RejectsEmptyPartitionWindow)
{
    NemesisConfig nem = validNem();
    nem.partitions[0].end = nem.partitions[0].start;
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsIslandOutsideTheRackSet)
{
    NemesisConfig nem = validNem();
    nem.partitions[0].firstRack = 2;  // racks are 0..1
    expectRejected(nem);
}

TEST(NemesisValidation, RejectsIslandSwallowingTheFleet)
{
    // One rack: the island is the whole fleet, nobody left outside.
    EXPECT_THROW(fault::validateNemesisConfig(validNem(), 3, 1),
                 FatalError);
}

TEST(NemesisValidation, RejectsConcurrentPartitions)
{
    NemesisConfig nem = validNem();
    PartitionSpec second;
    second.start = 350 * tickMs;  // overlaps [300, 400)
    second.end = 450 * tickMs;
    second.firstRack = 1;
    nem.partitions.push_back(second);
    expectRejected(nem);

    // Back-to-back is fine.
    nem = validNem();
    second.start = 400 * tickMs;
    second.end = 450 * tickMs;
    nem.partitions.push_back(second);
    expectValid(nem);
}

TEST(ClusterConfigNemesis, NemesisArmsRejectThroughClusterConfig)
{
    ClusterConfig cfg;
    cfg.nemesis.dropProb = 1.5;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = ClusterConfig();
    cfg.nemesis = validNem();  // valid for the default 3x2 fleet
    EXPECT_NO_THROW(cluster::validateClusterConfig(cfg));
}

// --- NetNemesis semantics ------------------------------------------

TEST(NetNemesis, InertConfigIsInvisible)
{
    NetNemesis nem(NemesisConfig{}, 99, 3, 2);
    EXPECT_FALSE(nem.active());
    const fault::LinkFate fate = nem.judge(0, 1, 10 * tickMs);
    EXPECT_FALSE(fate.cutByPartition);
    EXPECT_FALSE(fate.cutByFlap);
    EXPECT_FALSE(fate.dropped);
    EXPECT_FALSE(fate.duplicated);
    EXPECT_EQ(fate.jitter, 0u);
    EXPECT_FALSE(nem.linkCut(0, 1, 10 * tickMs));
}

TEST(NetNemesis, StreamIsAPureFunctionOfTheSeed)
{
    NemesisConfig cfg;
    cfg.dropProb = 0.2;
    cfg.dupProb = 0.1;
    cfg.jitterMax = 40 * tickUs;
    NetNemesis a(cfg, 7, 3, 2);
    NetNemesis b(cfg, 7, 3, 2);
    for (int i = 0; i < 2000; ++i) {
        const Tick at = Tick(i) * tickUs;
        const fault::LinkFate fa = a.judge(0, 1, at);
        const fault::LinkFate fb = b.judge(0, 1, at);
        EXPECT_EQ(fa.dropped, fb.dropped);
        EXPECT_EQ(fa.duplicated, fb.duplicated);
        EXPECT_EQ(fa.jitter, fb.jitter);
        EXPECT_EQ(fa.dupJitter, fb.dupJitter);
    }
    EXPECT_GT(a.stats().dropped, 0u);
    EXPECT_GT(a.stats().duplicated, 0u);
    EXPECT_EQ(a.stats().dropped, b.stats().dropped);

    // A different seed reshuffles the coin flips.
    NetNemesis c(cfg, 8, 3, 2);
    for (int i = 0; i < 2000; ++i)
        c.judge(0, 1, Tick(i) * tickUs);
    EXPECT_NE(a.stats().dropped, c.stats().dropped);
}

TEST(NetNemesis, GatedDrawsOnlyTouchConfiguredClasses)
{
    NemesisConfig cfg;
    cfg.dupProb = 0.3;  // duplication only: no drops, no jitter
    NetNemesis nem(cfg, 5, 3, 2);
    for (int i = 0; i < 500; ++i) {
        const fault::LinkFate fate = nem.judge(1, 0, Tick(i) * tickUs);
        EXPECT_FALSE(fate.dropped);
        EXPECT_EQ(fate.jitter, 0u);
        if (fate.duplicated) {
            EXPECT_EQ(fate.dupJitter, 0u);  // jitterMax is zero
        }
    }
    EXPECT_GT(nem.stats().duplicated, 0u);
    EXPECT_EQ(nem.stats().dropped, 0u);
}

TEST(NetNemesis, SymmetricPartitionSeversBothDirections)
{
    // 3 replicas over 2 racks: rack 0 = {0, 1}, rack 1 = {2}.
    NemesisConfig cfg;
    PartitionSpec part;
    part.start = 100 * tickMs;
    part.end = 200 * tickMs;
    part.firstRack = 0;
    part.mode = PartitionMode::Symmetric;
    cfg.partitions.push_back(part);
    NetNemesis nem(cfg, 1, 3, 2);

    const Tick in = 150 * tickMs, before = 50 * tickMs,
               after = 200 * tickMs;  // end is exclusive
    EXPECT_TRUE(nem.linkCut(0, 2, in));
    EXPECT_TRUE(nem.linkCut(2, 0, in));
    EXPECT_TRUE(nem.linkCut(1, 2, in));
    EXPECT_FALSE(nem.linkCut(0, 1, in));  // same island side
    EXPECT_FALSE(nem.linkCut(0, 2, before));
    EXPECT_FALSE(nem.linkCut(0, 2, after));
}

TEST(NetNemesis, AsymmetricPartitionDropsOnlyTheIslandsSends)
{
    NemesisConfig cfg;
    PartitionSpec part;
    part.start = 100 * tickMs;
    part.end = 200 * tickMs;
    part.firstRack = 1;  // island = rack 1 = {2}
    part.mode = PartitionMode::Asymmetric;
    cfg.partitions.push_back(part);
    NetNemesis nem(cfg, 1, 3, 2);

    const Tick in = 150 * tickMs;
    // The island hears the rest but its own sends vanish: replica 2
    // receives heartbeats yet every ack it returns is eaten.
    EXPECT_TRUE(nem.linkCut(2, 0, in));
    EXPECT_FALSE(nem.linkCut(0, 2, in));
    EXPECT_FALSE(nem.linkCut(0, 1, in));
}

TEST(NetNemesis, PartialPartitionIsAStableUnorderedGraph)
{
    // 6 replicas over 3 racks: rack 0 = {0,1}, 1 = {2,3}, 2 = {4,5}.
    NemesisConfig cfg;
    PartitionSpec part;
    part.start = 100 * tickMs;
    part.end = 200 * tickMs;
    part.firstRack = 0;
    part.mode = PartitionMode::Partial;
    cfg.partitions.push_back(part);
    cfg.partialCutProb = 0.5;
    NetNemesis nem(cfg, 11, 6, 3);

    // Per cross-island pair the verdict is constant over the window
    // and symmetric in direction (one coin per unordered pair).
    for (std::uint32_t in = 0; in < 2; ++in)
        for (std::uint32_t out = 2; out < 6; ++out) {
            const bool first =
                nem.linkCut(in, out, 100 * tickMs);
            EXPECT_EQ(nem.linkCut(out, in, 199 * tickMs), first);
            for (Tick t = 110 * tickMs; t < 200 * tickMs;
                 t += 17 * tickMs)
                EXPECT_EQ(nem.linkCut(in, out, t), first);
        }

    // Probability extremes pin the whole graph.
    cfg.partialCutProb = 1.0;
    NetNemesis all(cfg, 11, 6, 3);
    cfg.partialCutProb = 0.0;
    NetNemesis none(cfg, 11, 6, 3);
    for (std::uint32_t out = 2; out < 6; ++out) {
        EXPECT_TRUE(all.linkCut(0, out, 150 * tickMs));
        EXPECT_FALSE(none.linkCut(0, out, 150 * tickMs));
    }
}

TEST(NetNemesis, FlapCutsExactlyItsPairInWindow)
{
    NemesisConfig cfg;
    cfg.flaps.push_back({0, 2, 100 * tickMs, 200 * tickMs});
    NetNemesis nem(cfg, 3, 3, 2);
    const Tick in = 150 * tickMs;
    EXPECT_TRUE(nem.linkCut(0, 2, in));
    EXPECT_TRUE(nem.linkCut(2, 0, in));  // both directions dark
    EXPECT_FALSE(nem.linkCut(0, 1, in));
    EXPECT_FALSE(nem.linkCut(1, 2, in));
    EXPECT_FALSE(nem.linkCut(0, 2, 99 * tickMs));
    EXPECT_FALSE(nem.linkCut(0, 2, 200 * tickMs));
}

// --- AckAudit ------------------------------------------------------

TEST(AckAudit, FreshDuplicateAndSplitBrainVerdicts)
{
    AckAudit audit;
    EXPECT_EQ(audit.observe(1, 5, 0), AckAudit::Verdict::Fresh);
    // The network re-delivers the same ack: benign.
    EXPECT_EQ(audit.observe(1, 5, 0), AckAudit::Verdict::Duplicate);
    // A different replica acks the same request claiming the same
    // epoch: two leaders inside one epoch.
    EXPECT_EQ(audit.observe(1, 5, 1), AckAudit::Verdict::SplitBrain);
}

TEST(AckAudit, RetryAckedUnderTwoEpochsIsLegitimate)
{
    AckAudit audit;
    // Old leader's delayed ack, then the new leader's idempotent
    // re-ack of the retried request under its own epoch: both fresh.
    EXPECT_EQ(audit.observe(1, 5, 0), AckAudit::Verdict::Fresh);
    EXPECT_EQ(audit.observe(1, 6, 1), AckAudit::Verdict::Fresh);
    // But epoch 6 now belongs to replica 1: replica 0 acking any
    // other request inside it is split-brain.
    EXPECT_EQ(audit.observe(2, 6, 0), AckAudit::Verdict::SplitBrain);
}

// --- HistoryAudit --------------------------------------------------

net::ClientOp
putOp(std::uint64_t req, std::uint64_t key, std::uint64_t version,
      std::uint64_t seed, Tick invoked, Tick acked)
{
    net::ClientOp op;
    op.reqId = req;
    op.key = key;
    op.op = workload::KvOp::Put;
    op.status = net::RpcStatus::Ok;
    op.version = version;
    op.valueSeed = seed;
    op.invokedAt = invoked;
    op.ackedAt = acked;
    return op;
}

net::ClientOp
getOp(std::uint64_t req, std::uint64_t key, std::uint64_t version,
      std::uint64_t seed, Tick invoked, Tick acked)
{
    net::ClientOp op;
    op.reqId = req;
    op.key = key;
    op.op = workload::KvOp::Get;
    op.status = version == 0 ? net::RpcStatus::NotFound
                             : net::RpcStatus::Ok;
    op.version = version;
    op.valueSeed = seed;
    op.invokedAt = invoked;
    op.ackedAt = acked;
    return op;
}

std::unordered_map<std::uint64_t, net::PutIssue>
issuesOf(const std::vector<net::ClientOp> &ops)
{
    std::unordered_map<std::uint64_t, net::PutIssue> issues;
    for (const net::ClientOp &op : ops)
        if (op.op == workload::KvOp::Put)
            issues[op.reqId] = {op.key, op.valueSeed};
    return issues;
}

TEST(HistoryAudit, CleanHistoryPasses)
{
    const std::vector<net::ClientOp> ops = {
        putOp(1, 9, 1, 111, 0, 10),
        putOp(2, 9, 2, 222, 20, 30),
        getOp(3, 9, 2, 222, 40, 50),
    };
    const HistoryAuditResult res =
        cluster::auditHistory(ops, issuesOf(ops));
    EXPECT_EQ(res.writes, 2u);
    EXPECT_EQ(res.reads, 1u);
    EXPECT_EQ(res.violationCount(), 0u);
    EXPECT_EQ(res.staleReads, 0u);
    EXPECT_TRUE(res.violations.empty());
}

TEST(HistoryAudit, FlagsLostUpdate)
{
    // Two acked PUTs on one key report the same version: one write
    // was silently discarded.
    const std::vector<net::ClientOp> ops = {
        putOp(1, 9, 7, 111, 0, 10),
        putOp(2, 9, 7, 222, 20, 30),
    };
    const HistoryAuditResult res =
        cluster::auditHistory(ops, issuesOf(ops));
    EXPECT_EQ(res.lostUpdates, 1u);
    EXPECT_EQ(res.orderInversions, 0u);  // equality is not inversion
    EXPECT_GE(res.violationCount(), 1u);
    EXPECT_FALSE(res.violations.empty());
}

TEST(HistoryAudit, FlagsOrderInversion)
{
    // The second PUT starts after the first's ack completed, yet is
    // acked with a lower version: real-time order broken.
    const std::vector<net::ClientOp> ops = {
        putOp(1, 9, 5, 111, 0, 10),
        putOp(2, 9, 3, 222, 20, 30),
    };
    const HistoryAuditResult res =
        cluster::auditHistory(ops, issuesOf(ops));
    EXPECT_EQ(res.orderInversions, 1u);
    EXPECT_EQ(res.lostUpdates, 0u);
}

TEST(HistoryAudit, FlagsPhantomRead)
{
    std::vector<net::ClientOp> ops = {
        putOp(1, 9, 1, 111, 0, 10),
    };
    auto issues = issuesOf(ops);
    ops.push_back(getOp(2, 9, 1, 999, 20, 30));  // payload never sent
    const HistoryAuditResult res = cluster::auditHistory(ops, issues);
    EXPECT_EQ(res.phantomReads, 1u);
}

TEST(HistoryAudit, FlagsValueDivergence)
{
    // Both payloads were issued to the key, but version 5 was acked
    // with payload 111 and later read back as 222: replicas disagree
    // about a committed write's content.
    const std::vector<net::ClientOp> ops = {
        putOp(1, 9, 5, 111, 0, 10),
        putOp(2, 9, 6, 222, 20, 30),
        getOp(3, 9, 5, 222, 40, 50),
    };
    const HistoryAuditResult res =
        cluster::auditHistory(ops, issuesOf(ops));
    EXPECT_EQ(res.valueDivergences, 1u);
    EXPECT_EQ(res.phantomReads, 0u);
}

TEST(HistoryAudit, StaleReadsAreAMetricNotAViolation)
{
    // NotFound after an acked write, and a version below the acked
    // floor: both stale (a follower served them), neither fatal.
    const std::vector<net::ClientOp> ops = {
        putOp(1, 9, 1, 111, 0, 10),
        putOp(2, 9, 2, 222, 15, 25),
        getOp(3, 9, 0, 0, 30, 40),    // NotFound after two acks
        getOp(4, 9, 1, 111, 50, 60),  // below the acked floor (2)
    };
    const HistoryAuditResult res =
        cluster::auditHistory(ops, issuesOf(ops));
    EXPECT_EQ(res.staleReads, 2u);
    EXPECT_EQ(res.notFoundReads, 1u);
    EXPECT_EQ(res.violationCount(), 0u);
    EXPECT_TRUE(res.violations.empty());
}

// --- fast-redirect budget ------------------------------------------

TEST(ClientFleet, FastRedirectBudgetFallsBackToPacedRetry)
{
    net::FleetParams params;
    params.maxFastRedirects = 2;
    net::ClientFleet fleet(params);
    const net::RpcRequest req = fleet.newRequest(0);

    // Two timeout-free hops, then the budget forces the armed
    // timeout's paced backoff.
    EXPECT_TRUE(fleet.allowFastRedirect(req.reqId));
    EXPECT_TRUE(fleet.allowFastRedirect(req.reqId));
    EXPECT_FALSE(fleet.allowFastRedirect(req.reqId));
    EXPECT_FALSE(fleet.allowFastRedirect(req.reqId));
    EXPECT_EQ(fleet.stats().fastRedirects, 2u);
    EXPECT_EQ(fleet.stats().redirectFallbacks, 2u);

    // Unknown requests never consume budget or count a fallback.
    const std::uint64_t fallbacks = fleet.stats().redirectFallbacks;
    EXPECT_FALSE(fleet.allowFastRedirect(0xdeadu));
    EXPECT_EQ(fleet.stats().redirectFallbacks, fallbacks);
}

// --- cluster end to end under the nemesis --------------------------

ClusterConfig
nemesisCluster(net::PersistMode mode, std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.mode = mode;
    cfg.replicas = 3;
    cfg.racks = 2;
    cfg.storms = 1;
    cfg.runFor = 800 * tickMs;
    cfg.drainGrace = 2500 * tickMs;
    cfg.fleet.clients = 80;
    cfg.fleet.arrivalsPerSec = 1200.0;
    cfg.userProcesses = 6;
    cfg.kernelThreads = 4;
    cfg.deviceCount = 12;
    cfg.seed = seed;

    cfg.nemesis.dropProb = 0.02;
    cfg.nemesis.dupProb = 0.02;
    cfg.nemesis.jitterMax = 40 * tickUs;
    PartitionSpec part;
    part.start = 250 * tickMs;
    part.end = 450 * tickMs;
    part.firstRack = 1;  // sever the minority replica
    part.mode = PartitionMode::Symmetric;
    cfg.nemesis.partitions.push_back(part);
    cfg.nemesis.flaps.push_back(
        {0, 2, 550 * tickMs, 650 * tickMs});
    return cfg;
}

TEST(ClusterNemesis, LossyPartitionedFleetHoldsInvariants)
{
    for (const net::PersistMode mode :
         {net::PersistMode::SnG, net::PersistMode::SysPc}) {
        const ClusterResult r =
            cluster::runCluster(nemesisCluster(mode, 77));
        EXPECT_TRUE(r.violations.empty()) << r.modeName;
        EXPECT_EQ(r.lostAckedPuts, 0u) << r.modeName;
        EXPECT_EQ(r.splitBrainEpochs, 0u) << r.modeName;
        EXPECT_EQ(r.divergentCommits, 0u) << r.modeName;
        EXPECT_EQ(r.lostUpdates, 0u) << r.modeName;
        EXPECT_EQ(r.orderInversions, 0u) << r.modeName;
        EXPECT_EQ(r.phantomReads, 0u) << r.modeName;
        EXPECT_EQ(r.valueDivergences, 0u) << r.modeName;
        EXPECT_GT(r.completed, 0u) << r.modeName;
        EXPECT_GT(r.auditedWrites, 0u) << r.modeName;
        EXPECT_GT(r.auditedReads, 0u) << r.modeName;
        // The nemesis actually hurt, and the hardening engaged.
        EXPECT_GT(r.msgsDropped, 0u) << r.modeName;
        EXPECT_GT(r.msgsDuplicated, 0u) << r.modeName;
        EXPECT_GT(r.msgsReordered, 0u) << r.modeName;
        EXPECT_GT(r.partitionCuts, 0u) << r.modeName;
        EXPECT_GT(r.flapCuts, 0u) << r.modeName;
        EXPECT_GT(r.retransmits, 0u) << r.modeName;
    }
}

TEST(ClusterNemesis, PreVoteKeepsAPartitionedMinorityFromBurningEpochs)
{
    // Pure partition, no loss: the severed minority replica probes
    // for the whole window but never wins a majority of pre-votes,
    // so the probes vastly outnumber real elections.
    ClusterConfig cfg = nemesisCluster(net::PersistMode::SnG, 31);
    cfg.storms = 0;
    cfg.nemesis = NemesisConfig{};
    PartitionSpec part;
    part.start = 200 * tickMs;
    part.end = 700 * tickMs;
    part.firstRack = 1;
    part.mode = PartitionMode::Symmetric;
    cfg.nemesis.partitions.push_back(part);

    const ClusterResult r = cluster::runCluster(cfg);
    EXPECT_GT(r.preVoteRounds, r.elections);
    EXPECT_GT(r.electionsSuppressed, 0u);
    EXPECT_EQ(r.leaderChanges, 1u);  // the leader was never deposed
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.lostAckedPuts, 0u);
}

TEST(ClusterNemesis, DeterministicUnderFixedSeed)
{
    const ClusterResult a =
        cluster::runCluster(nemesisCluster(net::PersistMode::OpLog, 63));
    const ClusterResult b =
        cluster::runCluster(nemesisCluster(net::PersistMode::OpLog, 63));
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.msgsDropped, b.msgsDropped);
    EXPECT_EQ(a.msgsReordered, b.msgsReordered);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.completed, b.completed);
}

// --- partition campaign (the cluster campaign's nemesis ladder) ------

fault::ClusterCampaignConfig
tinyPartitionCampaign()
{
    fault::ClusterCampaignConfig cfg;
    cfg.ladder = fault::Ladder::Nemesis;
    cfg.seed = 7;
    cfg.seedsPerCell = 1;
    cfg.replicaCounts = {3};
    cfg.intensities = {2};
    cfg.modes = {net::PersistMode::SnG, net::PersistMode::SysPc};
    cfg.runFor = 600 * tickMs;
    cfg.drainGrace = 2200 * tickMs;
    cfg.clients = 60;
    cfg.arrivalsPerSec = 1000.0;
    return cfg;
}

TEST(PartitionCampaign, TrialConfigIsAPureFunctionOfTheIndex)
{
    const fault::ClusterCampaignConfig cfg = tinyPartitionCampaign();
    EXPECT_EQ(fault::clusterCampaignTrials(cfg), 2u);
    const ClusterConfig a = fault::clusterTrialConfig(cfg, 1);
    const ClusterConfig b = fault::clusterTrialConfig(cfg, 1);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.nemesis.partitions.size(),
              b.nemesis.partitions.size());

    // Modes within one column share the seed AND the nemesis shape:
    // the schedules replay identically against every mode.
    const ClusterConfig sng = fault::clusterTrialConfig(cfg, 0);
    EXPECT_EQ(sng.seed, a.seed);
    EXPECT_NE(sng.mode, a.mode);
    ASSERT_EQ(sng.nemesis.partitions.size(), 1u);
    EXPECT_EQ(sng.nemesis.partitions[0].start,
              a.nemesis.partitions[0].start);
    EXPECT_EQ(sng.nemesis.flaps.size(), a.nemesis.flaps.size());

    // Every generated trial passes the validator.
    EXPECT_NO_THROW(cluster::validateClusterConfig(sng));

    // The storm ladder over the same grid draws other streams.
    fault::ClusterCampaignConfig storm = cfg;
    storm.ladder = fault::Ladder::Storm;
    EXPECT_NE(fault::clusterTrialConfig(storm, 0).seed, sng.seed);
    EXPECT_TRUE(
        fault::clusterTrialConfig(storm, 0).nemesis.partitions.empty());

    EXPECT_THROW(fault::clusterTrialConfig(cfg, 2), FatalError);
}

TEST(PartitionCampaign, NemesisTrialsReplayTheirGoldenStreams)
{
    // Pinned from the standalone partition sweep this ladder replaced
    // (seed 42, 20 seeds x intensities {1, 2, 3} x five modes at 3
    // replicas): a stream-tag or column-packing slip shows up here,
    // not only in a 300-trial bench.
    fault::ClusterCampaignConfig cfg;
    cfg.ladder = fault::Ladder::Nemesis;
    cfg.replicaCounts = {3};
    cfg.seedsPerCell = 20;
    struct Golden
    {
        std::uint64_t index;
        std::uint64_t seed;
        std::size_t storms;
        std::vector<Tick> partitionStarts;
    };
    const Golden goldens[] = {
        {0, 0x48b29205902e3d65ULL, 1, {}},
        {7, 0x275c10cf88818f69ULL, 1, {}},
        {45, 0x13243d53bd3bed03ULL, 1, {}},
        {119, 0x251a34a7fe68e950ULL, 1, {797633861445ULL}},
        {133, 0x8e47d02c6132e9d7ULL, 1, {687308820047ULL}},
        {201, 0xf1d84154540775d2ULL, 2,
         {992848766469ULL, 1450028536122ULL}},
        {222, 0x4faeafc4480133d0ULL, 2,
         {993252761020ULL, 1513427644286ULL}},
        {299, 0x4c44b28035e0673aULL, 2,
         {930693925814ULL, 1513452796940ULL}},
    };
    for (const Golden &g : goldens) {
        const ClusterConfig cc = fault::clusterTrialConfig(cfg, g.index);
        EXPECT_EQ(cc.seed, g.seed) << "trial " << g.index;
        EXPECT_EQ(cc.storms, g.storms) << "trial " << g.index;
        std::vector<Tick> starts;
        for (const PartitionSpec &p : cc.nemesis.partitions)
            starts.push_back(p.start);
        EXPECT_EQ(starts, g.partitionStarts) << "trial " << g.index;
    }

    // Flap pairs and windows of one compound trial, pinned too.
    const ClusterConfig compound = fault::clusterTrialConfig(cfg, 299);
    ASSERT_EQ(compound.nemesis.flaps.size(), 2u);
    EXPECT_EQ(compound.nemesis.flaps[0].a, 0u);
    EXPECT_EQ(compound.nemesis.flaps[0].b, 2u);
    EXPECT_EQ(compound.nemesis.flaps[0].start, 671981269098ULL);
    EXPECT_EQ(compound.nemesis.flaps[1].a, 1u);
    EXPECT_EQ(compound.nemesis.flaps[1].b, 2u);
    EXPECT_EQ(compound.nemesis.flaps[1].end, 1604924201449ULL);
}

TEST(PartitionCampaign, IntensityThreeOverlapsStormsWithPartitions)
{
    fault::ClusterCampaignConfig cfg = tinyPartitionCampaign();
    cfg.intensities = {3};
    const ClusterConfig trial = fault::clusterTrialConfig(cfg, 0);
    EXPECT_EQ(trial.storms, 2u);
    EXPECT_GE(trial.nemesis.partitions.size(), 1u);
    EXPECT_EQ(trial.nemesis.flaps.size(), 2u);
    EXPECT_GT(trial.nemesis.dropProb, 0.0);
    EXPECT_NO_THROW(cluster::validateClusterConfig(trial));

    // Distinct flap pairs (same-pair overlap would be rejected; the
    // generator must not rely on luck).
    const LinkFlap &f1 = trial.nemesis.flaps[0];
    const LinkFlap &f2 = trial.nemesis.flaps[1];
    EXPECT_FALSE(std::min(f1.a, f1.b) == std::min(f2.a, f2.b)
                 && std::max(f1.a, f1.b) == std::max(f2.a, f2.b));
}

TEST(PartitionCampaign, ThreadCountDoesNotChangeTheDigest)
{
    fault::ClusterCampaignConfig cfg = tinyPartitionCampaign();
    cfg.threads = 1;
    const fault::ClusterCampaignResult one =
        fault::runClusterCampaign(cfg);
    cfg.threads = 2;
    const fault::ClusterCampaignResult two =
        fault::runClusterCampaign(cfg);

    EXPECT_EQ(one.digest, two.digest);
    EXPECT_EQ(one.total.trials, 2u);
    for (const char *invariant :
         {"lost_acked_puts", "split_brain_epochs", "lost_updates",
          "order_inversions", "phantom_reads", "value_divergences",
          "violations"})
        EXPECT_EQ(one.total[invariant], 0.0) << invariant;
    ASSERT_EQ(one.cells.size(), 2u);
    // SnG above the cold-booting baseline under the same nemesis.
    EXPECT_GT(one.cells[0]["write_avail_mean"],
              one.cells[1]["write_avail_mean"]);
}

TEST(PartitionCampaign, RejectsDegenerateSweeps)
{
    fault::ClusterCampaignConfig cfg = tinyPartitionCampaign();
    cfg.seedsPerCell = 0;
    EXPECT_THROW(fault::runClusterCampaign(cfg), FatalError);

    cfg = tinyPartitionCampaign();
    cfg.intensities = {4};
    EXPECT_THROW(fault::runClusterCampaign(cfg), FatalError);

    // flapOnPair needs a second distinct pair: fewer than 3 replicas
    // stays fatal under the nemesis ladder, even beside a valid count.
    cfg = tinyPartitionCampaign();
    cfg.replicaCounts = {3, 2};
    EXPECT_THROW(fault::runClusterCampaign(cfg), FatalError);
    EXPECT_THROW(fault::clusterTrialConfig(cfg, 0), FatalError);
}

} // namespace
