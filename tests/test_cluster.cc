/**
 * @file
 * Replicated-KV cluster: config validation, rack-correlated storm
 * schedules, concurrent per-replica recovery supervision, fleet
 * availability merging, client jitter streams, and the cluster /
 * campaign end-to-end invariants (no lost acked PUTs, no split
 * brain, mode separation, determinism).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/cluster.hh"
#include "fault/cluster_campaign.hh"
#include "fault/compound.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "net/availability.hh"
#include "net/client_fleet.hh"
#include "pecos/sng.hh"
#include "psm/psm.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using cluster::ClusterConfig;
using cluster::ClusterResult;
using fault::CorrelatedStorm;
using fault::CutStorm;
using fault::RecoverySupervisor;
using fault::SupervisorConfig;
using fault::SupervisorOutcome;

// --- ClusterConfig validation --------------------------------------

ClusterConfig
validConfig()
{
    ClusterConfig cfg;  // defaults are a valid 3-replica cluster
    return cfg;
}

TEST(ClusterConfigValidation, DefaultsPass)
{
    EXPECT_NO_THROW(cluster::validateClusterConfig(validConfig()));
}

TEST(ClusterConfigValidation, RejectsDegenerateFleetShape)
{
    ClusterConfig cfg = validConfig();
    cfg.replicas = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.replicas = 65;  // vote/ack masks are 64-wide
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.racks = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.racks = cfg.replicas + 1;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);
}

TEST(ClusterConfigValidation, RejectsDegenerateStorms)
{
    ClusterConfig cfg = validConfig();
    cfg.stormRackSpan = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.stormRackSpan = cfg.racks + 1;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.storms = 1;
    cfg.stormWindow = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.storms = 1;
    cfg.offDwell = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    // ...but a stormless run needs neither window nor dwell.
    cfg = validConfig();
    cfg.storms = 0;
    cfg.stormWindow = 0;
    cfg.offDwell = 0;
    EXPECT_NO_THROW(cluster::validateClusterConfig(cfg));
}

TEST(ClusterConfigValidation, RejectsDegenerateControlPlane)
{
    ClusterConfig cfg = validConfig();
    cfg.heartbeatInterval = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    // An election timeout a heartbeat can't beat elects forever.
    cfg = validConfig();
    cfg.electionTimeout = cfg.heartbeatInterval;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.linkGbitPerSec = 0.0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.replRecordBytes = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.journalRetain = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.supervisor.maxAttempts = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);
}

TEST(ClusterConfigValidation, RejectsDegenerateServiceKnobs)
{
    ClusterConfig cfg = validConfig();
    cfg.runFor = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.goodputWindow = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.fleet.clients = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.fleet.arrivalsPerSec = 0.0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.fleet.maxAttempts = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.nic.ringEntries = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);

    cfg = validConfig();
    cfg.kv.queueCapacity = 0;
    EXPECT_THROW(cluster::validateClusterConfig(cfg), FatalError);
}

// --- ServiceConfig validation (single-node plane) ------------------

TEST(ServiceConfigValidation, RejectsEveryDegenerateKnob)
{
    auto reject = [](auto &&mutate) {
        net::ServiceConfig cfg;
        mutate(cfg);
        EXPECT_THROW(net::validateServiceConfig(cfg), FatalError);
    };
    EXPECT_NO_THROW(net::validateServiceConfig(net::ServiceConfig{}));
    reject([](net::ServiceConfig &c) { c.fleet.clients = 0; });
    reject([](net::ServiceConfig &c) { c.fleet.arrivalsPerSec = 0.0; });
    reject([](net::ServiceConfig &c) { c.fleet.maxAttempts = 0; });
    reject([](net::ServiceConfig &c) { c.nic.ringEntries = 0; });
    reject([](net::ServiceConfig &c) { c.kv.queueCapacity = 0; });
    reject([](net::ServiceConfig &c) { c.runFor = 0; });
    reject([](net::ServiceConfig &c) { c.goodputWindow = 0; });
    reject([](net::ServiceConfig &c) {
        c.cuts = 0;
        c.stormFollowUps = 2;
    });
    reject([](net::ServiceConfig &c) {
        c.cuts = 100;
        c.runFor = 50;
    });
}

// --- CutStorm rack correlation -------------------------------------

TEST(CorrelatedStorms, RackAssignmentIsContiguousAndComplete)
{
    // 3 replicas over 2 racks: rack 0 holds the majority {0, 1}.
    EXPECT_EQ(CutStorm::rackOf(0, 3, 2), 0u);
    EXPECT_EQ(CutStorm::rackOf(1, 3, 2), 0u);
    EXPECT_EQ(CutStorm::rackOf(2, 3, 2), 1u);

    // Every rack is populated, assignments are monotone.
    for (std::uint32_t replicas = 1; replicas <= 8; ++replicas) {
        for (std::uint32_t racks = 1; racks <= replicas; ++racks) {
            std::vector<bool> seen(racks, false);
            std::uint32_t prev = 0;
            for (std::uint32_t r = 0; r < replicas; ++r) {
                const std::uint32_t rack =
                    CutStorm::rackOf(r, replicas, racks);
                ASSERT_LT(rack, racks);
                EXPECT_GE(rack, prev);
                prev = rack;
                seen[rack] = true;
            }
            EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                                    [](bool b) { return b; }));
        }
    }
}

TEST(CorrelatedStorms, ScheduleIsAPureFunctionOfTheSeed)
{
    CutStorm a(77), b(77), c(78);
    const auto argsRun = [](CutStorm &gen) {
        return gen.correlated(100 * tickMs, 900 * tickMs, 3, 5, 2, 1,
                              8 * tickMs);
    };
    const std::vector<CorrelatedStorm> s1 = argsRun(a);
    const std::vector<CorrelatedStorm> s2 = argsRun(b);
    const std::vector<CorrelatedStorm> s3 = argsRun(c);

    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_EQ(s1[i].startAt, s2[i].startAt);
        EXPECT_EQ(s1[i].racks, s2[i].racks);
        ASSERT_EQ(s1[i].cuts.size(), s2[i].cuts.size());
        for (std::size_t j = 0; j < s1[i].cuts.size(); ++j) {
            EXPECT_EQ(s1[i].cuts[j].replica, s2[i].cuts[j].replica);
            EXPECT_EQ(s1[i].cuts[j].at, s2[i].cuts[j].at);
        }
    }
    // A different seed moves at least one cut instant.
    bool differs = s1.size() != s3.size();
    for (std::size_t i = 0; !differs && i < s1.size(); ++i)
        differs = s1[i].startAt != s3[i].startAt
                  || s1[i].cuts.size() != s3[i].cuts.size()
                  || (s1[i].cuts.size() == s3[i].cuts.size()
                      && !std::equal(
                          s1[i].cuts.begin(), s1[i].cuts.end(),
                          s3[i].cuts.begin(),
                          [](const fault::ReplicaCut &x,
                             const fault::ReplicaCut &y) {
                              return x.at == y.at
                                     && x.replica == y.replica;
                          }));
    EXPECT_TRUE(differs);
}

TEST(CorrelatedStorms, FirstStormStrikesTheBootstrapRackInWindow)
{
    CutStorm gen(5);
    const std::vector<CorrelatedStorm> storms =
        gen.correlated(200 * tickMs, 1800 * tickMs, 2, 3, 2, 1,
                       8 * tickMs);
    ASSERT_EQ(storms.size(), 2u);

    // First storm targets rack 0 — the bootstrap leader's rack.
    ASSERT_EQ(storms[0].racks.size(), 1u);
    EXPECT_EQ(storms[0].racks[0], 0u);

    for (const CorrelatedStorm &s : storms) {
        EXPECT_GE(s.startAt, 200 * tickMs);
        for (const fault::ReplicaCut &cut : s.cuts) {
            // Every cut inside the storm window, and only replicas
            // living in a struck rack take one.
            EXPECT_GE(cut.at, s.startAt);
            EXPECT_LT(cut.at, s.startAt + 8 * tickMs);
            const std::uint32_t rack =
                CutStorm::rackOf(cut.replica, 3, 2);
            EXPECT_TRUE(std::count(s.racks.begin(), s.racks.end(),
                                   rack) == 1);
        }
        // Struck racks contribute all their replicas exactly once.
        std::size_t expected = 0;
        for (std::uint32_t r = 0; r < 3; ++r)
            if (std::count(s.racks.begin(), s.racks.end(),
                           CutStorm::rackOf(r, 3, 2)))
                ++expected;
        EXPECT_EQ(s.cuts.size(), expected);
    }
}

// --- concurrent multi-replica recovery supervision -----------------

struct SupRig
{
    kernel::Kernel kern;
    psm::Psm psm;
    mem::BackingStore store;
    pecos::Sng sng{kern, psm, store, {}};
};

/**
 * Three replicas struck inside one storm window, each supervised
 * independently; a follow-up cut lands inside every first resume
 * attempt, so each supervisor retries through its capped backoff.
 */
TEST(ConcurrentRecovery, StormWindowReplicasConvergeIndependently)
{
    CutStorm gen(9);
    const std::vector<CorrelatedStorm> storms =
        gen.correlated(100 * tickMs, 200 * tickMs, 1, 3, 3, 3,
                       8 * tickMs);
    ASSERT_EQ(storms.size(), 1u);
    ASSERT_EQ(storms[0].cuts.size(), 3u);

    std::vector<SupervisorOutcome> outs(3);
    std::vector<std::uint64_t> digests(3);
    for (std::size_t i = 0; i < 3; ++i) {
        const fault::ReplicaCut &cut = storms[0].cuts[i];
        SupRig rig;
        rig.sng.stop(0);
        Rng rng(Rng::streamSeed(31, cut.replica));
        rig.kern.scramble(rng);
        RecoverySupervisor sup(rig.sng, rig.kern, rig.store);
        // The follow-up cut lands 1 ms into the first resume.
        outs[i] = sup.supervise(cut.at, {cut.at + tickMs}, rng);
        digests[i] =
            fault::machineStateDigest(rig.kern, rig.store);

        EXPECT_TRUE(outs[i].converged);
        EXPECT_FALSE(outs[i].coldBoot);
        EXPECT_EQ(outs[i].attempts, 2u);
        EXPECT_EQ(outs[i].cutsConsumed, 1u);
        // The retry waited out at least the first backoff rung.
        EXPECT_GE(outs[i].convergedAt,
                  cut.at + SupervisorConfig{}.retryBackoff);
    }

    // Re-supervise the same storm in reverse order: each replica's
    // outcome and final machine state must be byte-identical — the
    // supervisors share nothing.
    for (std::size_t i = 0; i < 3; ++i) {
        const std::size_t j = 2 - i;
        const fault::ReplicaCut &cut = storms[0].cuts[j];
        SupRig rig;
        rig.sng.stop(0);
        Rng rng(Rng::streamSeed(31, cut.replica));
        rig.kern.scramble(rng);
        RecoverySupervisor sup(rig.sng, rig.kern, rig.store);
        const SupervisorOutcome out =
            sup.supervise(cut.at, {cut.at + tickMs}, rng);
        EXPECT_EQ(out.attempts, outs[j].attempts);
        EXPECT_EQ(out.convergedAt, outs[j].convergedAt);
        EXPECT_EQ(fault::machineStateDigest(rig.kern, rig.store),
                  digests[j]);
    }
}

TEST(ConcurrentRecovery, OneLivelockedReplicaEscalatesAlone)
{
    // Replica 1's watchdog deadline is impossibly tight: it must
    // escalate to a degraded cold boot without disturbing its
    // neighbours' warm convergence.
    for (std::uint32_t id = 0; id < 3; ++id) {
        SupRig rig;
        rig.sng.stop(0);
        Rng rng(Rng::streamSeed(47, id));
        rig.kern.scramble(rng);
        SupervisorConfig cfg;
        if (id == 1) {
            cfg.resumeDeadline = 10 * tickUs;
            cfg.maxAttempts = 2;
        }
        RecoverySupervisor sup(rig.sng, rig.kern, rig.store, cfg);
        const SupervisorOutcome out =
            sup.supervise(150 * tickMs, {}, rng);
        EXPECT_TRUE(out.converged);
        if (id == 1) {
            EXPECT_TRUE(out.degradedColdBoot);
            EXPECT_EQ(out.livelocks, 2u);
            EXPECT_FALSE(rig.sng.hasCommit());
        } else {
            EXPECT_FALSE(out.coldBoot);
            EXPECT_EQ(out.attempts, 1u);
        }
    }
}

// --- AvailabilityRecorder::merge order independence ----------------

net::AvailabilityRecorder
replicaView(std::uint64_t salt)
{
    net::AvailabilityRecorder rec(10 * tickMs);
    Rng rng(Rng::streamSeed(12, salt));
    Tick now = tickMs + salt * 17;
    for (int i = 0; i < 40; ++i) {
        const Tick issued = now - rng.below(2 * tickMs) - 1;
        rec.onSuccess(now, issued, now - rng.below(tickMs));
        if (i == 15 || i == 30)
            rec.outageBegin(now + 1);
        now += tickMs + rng.below(3 * tickMs);
    }
    return rec;
}

TEST(AvailabilityMerge, FoldOrderDoesNotChangeTheMergedView)
{
    // Fold three replica recorders in two different orders; the
    // merged outage ledger, latency summary, and last-success stamp
    // must not depend on the order.
    const std::vector<std::vector<std::uint64_t>> orders = {
        {0, 1, 2}, {2, 0, 1}};
    std::vector<net::AvailabilityRecorder> merged;
    for (const auto &order : orders) {
        net::AvailabilityRecorder acc(10 * tickMs);
        for (const std::uint64_t id : order) {
            const net::AvailabilityRecorder view = replicaView(id);
            acc.merge(view);
        }
        merged.push_back(acc);
    }

    const auto &a = merged[0];
    const auto &b = merged[1];
    EXPECT_EQ(a.lastSuccessAt(), b.lastSuccessAt());
    EXPECT_DOUBLE_EQ(a.latencySummaryUs().mean(),
                     b.latencySummaryUs().mean());
    ASSERT_EQ(a.outageRecords().size(), b.outageRecords().size());
    for (std::size_t i = 0; i < a.outageRecords().size(); ++i) {
        EXPECT_EQ(a.outageRecords()[i].eventAt,
                  b.outageRecords()[i].eventAt);
        EXPECT_EQ(a.outageRecords()[i].lastSuccessBefore,
                  b.outageRecords()[i].lastSuccessBefore);
        EXPECT_EQ(a.outageRecords()[i].firstSuccessAfter,
                  b.outageRecords()[i].firstSuccessAfter);
        EXPECT_EQ(a.outageRecords()[i].closed,
                  b.outageRecords()[i].closed);
    }
}

TEST(AvailabilityMerge, MismatchedWindowsAreFatal)
{
    net::AvailabilityRecorder a(10 * tickMs);
    const net::AvailabilityRecorder b(20 * tickMs);
    EXPECT_THROW(a.merge(b), FatalError);
}

// --- per-client jitter streams -------------------------------------

TEST(ClientJitter, TimeoutStreamsAreSeededPerClient)
{
    net::FleetParams params;
    params.retryJitter = 5 * tickMs;
    params.seed = 1234;

    // Same seed, same draw sequence: bit-identical timeouts.
    net::ClientFleet a(params), b(params);
    std::vector<Tick> firstPass;
    for (std::uint32_t client = 0; client < 8; ++client)
        for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
            const Tick ta = a.timeoutFor(client, attempt);
            EXPECT_EQ(ta, b.timeoutFor(client, attempt));
            firstPass.push_back(ta);
        }

    // Re-drawing the same (client, attempt) sweep advances both
    // streams in lockstep; the jitter must actually move somewhere.
    bool anyJitter = false;
    std::size_t at = 0;
    for (std::uint32_t client = 0; client < 8; ++client)
        for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
            const Tick ta = a.timeoutFor(client, attempt);
            EXPECT_EQ(ta, b.timeoutFor(client, attempt));
            anyJitter = anyJitter || ta != firstPass[at++];
        }

    // Draw-order independence: client 7's stream is its own, so
    // burning client 3's stream first must not shift client 7's
    // draws (the lockstep-retry regression).
    net::ClientFleet fresh(params), burned(params);
    for (int i = 0; i < 10; ++i)
        (void)burned.timeoutFor(3, 2);
    for (std::uint32_t attempt = 1; attempt <= 4; ++attempt)
        EXPECT_EQ(fresh.timeoutFor(7, attempt),
                  burned.timeoutFor(7, attempt));

    // And the jitter actually jitters somewhere in the sweep.
    EXPECT_TRUE(anyJitter);
}

TEST(ClientJitter, DistinctClientsDecorrelate)
{
    net::FleetParams params;
    params.retryJitter = 8 * tickMs;
    params.seed = 99;
    net::ClientFleet fleet(params);

    // With 8 ms of jitter, 16 clients drawing the same attempt all
    // landing on one tick would mean the streams collapsed.
    std::vector<Tick> first;
    for (std::uint32_t client = 0; client < 16; ++client)
        first.push_back(fleet.timeoutFor(client, 2));
    const bool allEqual =
        std::all_of(first.begin(), first.end(),
                    [&](Tick t) { return t == first[0]; });
    EXPECT_FALSE(allEqual);
}

// --- cluster end to end --------------------------------------------

ClusterConfig
tinyCluster(net::PersistMode mode, std::size_t storms,
            std::uint64_t seed)
{
    ClusterConfig cfg;
    cfg.mode = mode;
    cfg.replicas = 3;
    cfg.racks = 2;
    cfg.storms = storms;
    cfg.runFor = 800 * tickMs;
    cfg.drainGrace = 2500 * tickMs;
    cfg.fleet.clients = 80;
    cfg.fleet.arrivalsPerSec = 1200.0;
    cfg.userProcesses = 6;
    cfg.kernelThreads = 4;
    cfg.deviceCount = 12;
    cfg.seed = seed;
    return cfg;
}

TEST(ClusterPlane, CalmFleetHoldsInvariantsInEveryMode)
{
    const net::PersistMode modes[] = {
        net::PersistMode::SnG,      net::PersistMode::OpLog,
        net::PersistMode::SysPc,    net::PersistMode::SCheckPc,
        net::PersistMode::ACheckPc,
    };
    for (const net::PersistMode mode : modes) {
        const ClusterResult r =
            cluster::runCluster(tinyCluster(mode, 0, 21));
        EXPECT_EQ(r.cutsInjected, 0u) << r.modeName;
        EXPECT_TRUE(r.violations.empty()) << r.modeName;
        EXPECT_EQ(r.lostAckedPuts, 0u) << r.modeName;
        EXPECT_EQ(r.splitBrainEpochs, 0u) << r.modeName;
        EXPECT_EQ(r.divergentCommits, 0u) << r.modeName;
        EXPECT_GT(r.completed, 0u) << r.modeName;
        EXPECT_GT(r.ackedPuts, 0u) << r.modeName;
        EXPECT_EQ(r.coldBoots, 0u) << r.modeName;
        EXPECT_DOUBLE_EQ(r.readAvailability, 1.0) << r.modeName;
        if (mode == net::PersistMode::SCheckPc) {
            // An S-CheckPC leader stalls the whole machine for each
            // periodic dump — longer than the election timeout, so
            // its silence reads as death and the fleet churns
            // leaders even on a calm day. The invariants hold; the
            // write availability pays for the churn.
            EXPECT_GT(r.leaderChanges, 1u) << r.modeName;
            EXPECT_GT(r.writeAvailability, 0.5) << r.modeName;
        } else {
            // Exactly the bootstrap election; no churn without
            // storms.
            EXPECT_EQ(r.leaderChanges, 1u) << r.modeName;
            EXPECT_GT(r.writeAvailability, 0.99) << r.modeName;
        }
    }
}

TEST(ClusterPlane, StormFailoverKeepsDurabilityAndElectsLeaders)
{
    const ClusterResult r = cluster::runCluster(
        tinyCluster(net::PersistMode::SnG, 2, 33));
    EXPECT_GT(r.cutsInjected, 0u);
    EXPECT_GT(r.elections, 1u);      // failover actually happened
    EXPECT_GT(r.leaderChanges, 1u);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.lostAckedPuts, 0u);
    EXPECT_EQ(r.splitBrainEpochs, 0u);
    EXPECT_EQ(r.divergentCommits, 0u);
    EXPECT_EQ(r.coldBoots, 0u);      // SnG rode the storms warm
    EXPECT_GT(r.resumes, 0u);
    EXPECT_GT(r.syncDeltas, 0u);     // rejoin was a delta, not a copy
    EXPECT_EQ(r.syncFulls, 0u);
}

TEST(ClusterPlane, SnGOutlivesColdBootingBaselineUnderOneStormSeed)
{
    const ClusterResult sng = cluster::runCluster(
        tinyCluster(net::PersistMode::SnG, 2, 33));
    const ClusterResult syspc = cluster::runCluster(
        tinyCluster(net::PersistMode::SysPc, 2, 33));

    // The identical storm schedule replayed against both modes.
    EXPECT_EQ(sng.cutsInjected, syspc.cutsInjected);
    EXPECT_GT(syspc.coldBoots, 0u);
    EXPECT_GT(sng.writeAvailability, syspc.writeAvailability);
    EXPECT_LT(sng.worstWriteGap, syspc.worstWriteGap);
    EXPECT_TRUE(syspc.violations.empty());
    EXPECT_EQ(syspc.lostAckedPuts, 0u);
}

TEST(ClusterPlane, QuorumLossDegradesToReadOnlyNotDark)
{
    // Intensity-3 shape: both racks struck, the whole fleet rides
    // one storm — writes pause, reads outlive them.
    ClusterConfig cfg = tinyCluster(net::PersistMode::SnG, 1, 52);
    cfg.stormRackSpan = 2;
    const ClusterResult r = cluster::runCluster(cfg);
    EXPECT_GT(r.readOnlySpans, 0u);
    EXPECT_GT(r.readAvailability, r.writeAvailability);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.lostAckedPuts, 0u);
}

TEST(ClusterPlane, ColdBootingLeadersNeverRegressTheDurableTail)
{
    // SysPC cold-boots on every cut, so this is the regression
    // stress for the becomeLeader watermark: a new leader adopts
    // the previous epoch's staged tail (records possibly committed
    // and client-acked under that epoch), is struck before the
    // re-commit, and must still find the records after recovery —
    // they stay mirrored in the durable staged map, never moved
    // into volatile pendingOps.
    for (const std::uint64_t seed : {33ull, 52ull, 63ull}) {
        const ClusterResult r = cluster::runCluster(
            tinyCluster(net::PersistMode::SysPc, 2, seed));
        EXPECT_GT(r.cutsInjected, 0u) << seed;
        EXPECT_GT(r.coldBoots, 0u) << seed;
        EXPECT_EQ(r.lostAckedPuts, 0u) << seed;
        EXPECT_EQ(r.splitBrainEpochs, 0u) << seed;
        EXPECT_EQ(r.divergentCommits, 0u) << seed;
        EXPECT_TRUE(r.violations.empty()) << seed;
    }
}

TEST(ClusterPlane, DeterministicUnderFixedSeed)
{
    const ClusterResult a = cluster::runCluster(
        tinyCluster(net::PersistMode::OpLog, 2, 63));
    const ClusterResult b = cluster::runCluster(
        tinyCluster(net::PersistMode::OpLog, 2, 63));
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.elections, b.elections);
    EXPECT_EQ(a.writeUnavailableTicks, b.writeUnavailableTicks);
}

// --- campaign ------------------------------------------------------

fault::ClusterCampaignConfig
tinyCampaign()
{
    fault::ClusterCampaignConfig cfg;
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

TEST(ClusterCampaign, TrialConfigIsAPureFunctionOfTheIndex)
{
    const fault::ClusterCampaignConfig cfg = tinyCampaign();
    EXPECT_EQ(fault::clusterCampaignTrials(cfg), 2u);
    const ClusterConfig a = fault::clusterTrialConfig(cfg, 1);
    const ClusterConfig b = fault::clusterTrialConfig(cfg, 1);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.replicas, b.replicas);

    // Modes within one cell column share the seed (paired storms).
    const ClusterConfig sng = fault::clusterTrialConfig(cfg, 0);
    EXPECT_EQ(sng.seed, a.seed);
    EXPECT_NE(sng.mode, a.mode);

    EXPECT_THROW(fault::clusterTrialConfig(cfg, 2), FatalError);
}

TEST(ClusterCampaign, SeedColumnsDoNotCollidePastTheOldPacking)
{
    // The old packing gave seedIdx 64 slots before it bled into the
    // neighbouring intensity column; sweep past that boundary and
    // require every (intensity, seedIdx) stream to stay distinct.
    fault::ClusterCampaignConfig cfg = tinyCampaign();
    cfg.seedsPerCell = 70;
    cfg.intensities = {1, 2, 3};
    cfg.modes = {net::PersistMode::SnG};
    const std::uint64_t trials = fault::clusterCampaignTrials(cfg);
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < trials; ++i)
        seeds.insert(fault::clusterTrialConfig(cfg, i).seed);
    EXPECT_EQ(seeds.size(), trials);  // one mode: all trials distinct

    // Bounds on the packed fields are enforced, not assumed.
    cfg = tinyCampaign();
    cfg.seedsPerCell = (std::uint64_t(1) << 32) + 1;
    EXPECT_THROW(fault::clusterTrialConfig(cfg, 0), FatalError);
}

TEST(ClusterCampaign, ThreadCountDoesNotChangeTheDigest)
{
    fault::ClusterCampaignConfig cfg = tinyCampaign();
    cfg.threads = 1;
    const fault::ClusterCampaignResult one =
        fault::runClusterCampaign(cfg);
    cfg.threads = 2;
    const fault::ClusterCampaignResult two =
        fault::runClusterCampaign(cfg);

    EXPECT_EQ(one.digest, two.digest);
    EXPECT_EQ(one.total.trials, 2u);
    EXPECT_EQ(one.total["lost_acked_puts"], 0.0);
    EXPECT_EQ(one.total["split_brain_epochs"], 0.0);
    EXPECT_EQ(one.total["divergent_commits"], 0.0);
    EXPECT_EQ(one.total["violations"], 0.0);
    ASSERT_EQ(one.cells.size(), 2u);
    // SnG above the cold-booting baseline even in one paired seed.
    EXPECT_GT(one.cells[0]["write_avail_mean"],
              one.cells[1]["write_avail_mean"]);
}

// --- counter table -------------------------------------------------

/** A hand-built trial result with every table counter distinct. */
ClusterResult
syntheticRun(std::uint64_t base)
{
    ClusterResult r;
    for (const auto &c : fault::clusterCounters().rows()) {
        if (c.count)
            c.countOf(r) = base++ * tickMs;
        else if (c.real)
            c.realOf(r) = 0.5 + 0.01 * double(base++);
    }
    r.violations.assign(base % 3, "synthetic");
    r.digest = base;
    return r;
}

/** Bump one table counter of @p r by a unit of its kind. */
void
bump(ClusterResult &r, const stats::Counter<ClusterResult> &c)
{
    if (c.count)
        c.countOf(r) += tickMs;
    else if (c.real)
        c.realOf(r) += 0.125;
    else
        r.violations.push_back("bumped");
}

TEST(ClusterCampaign, EveryTableCounterMovesTheDigest)
{
    // Two one-trial cells: any change to one trial's counter changes
    // its cell's folded value whatever the fold kind.
    fault::ClusterCampaignConfig cfg = tinyCampaign();
    const std::vector<ClusterResult> runs = {syntheticRun(1),
                                             syntheticRun(100)};
    const std::uint64_t base =
        fault::foldClusterCampaign(cfg, runs).digest;
    EXPECT_EQ(fault::foldClusterCampaign(cfg, runs).digest, base);

    for (const auto &c : fault::clusterCounters().rows()) {
        for (std::size_t which = 0; which < runs.size(); ++which) {
            std::vector<ClusterResult> changed = runs;
            bump(changed[which], c);
            EXPECT_NE(fault::foldClusterCampaign(cfg, changed).digest,
                      base)
                << c.key << " in trial " << which;
        }
    }
}

TEST(ClusterCampaign, EachFoldKindFoldsItsTrials)
{
    fault::ClusterCampaignConfig cfg = tinyCampaign();
    cfg.seedsPerCell = 2;
    cfg.modes = {net::PersistMode::OpLog};
    const ClusterResult a = syntheticRun(1);
    const ClusterResult b = syntheticRun(200);
    const fault::ClusterCampaignResult res =
        fault::foldClusterCampaign(cfg, {b, a});
    ASSERT_EQ(res.cells.size(), 1u);
    const fault::ClusterCell &cell = res.cells[0];
    EXPECT_EQ(cell.trials, 2u);
    EXPECT_EQ(cell.replicas, 3u);
    EXPECT_EQ(cell.intensity, 2u);
    EXPECT_EQ(cell.modeName, "SnG-OpLog");

    std::set<stats::Fold> kinds;
    for (const auto &c : fault::clusterCounters().rows()) {
        kinds.insert(c.fold);
        const double x = c.read(a), y = c.read(b);
        double want = 0.0;
        switch (c.fold) {
        case stats::Fold::Sum: want = x + y; break;
        case stats::Fold::Min: want = std::min(x, y); break;
        case stats::Fold::Max: want = std::max(x, y); break;
        case stats::Fold::Mean: want = (y + x) / 2.0; break;
        }
        EXPECT_DOUBLE_EQ(cell[c.key], want) << c.key;
        EXPECT_DOUBLE_EQ(res.total[c.key], want) << c.key;
    }
    // The table exercises every fold kind.
    EXPECT_EQ(kinds.size(), 4u);

    // Units: tick spans report in ms, the violation row counts notes.
    const auto &table = fault::clusterCounters();
    auto row = [&table](const char *key) {
        return table.rows()[table.indexOf(key)];
    };
    EXPECT_DOUBLE_EQ(row("worst_write_gap_ms").read(a),
                     double(a.worstWriteGap) / double(tickMs));
    EXPECT_DOUBLE_EQ(row("violations").read(a),
                     double(a.violations.size()));
    EXPECT_THROW(row("no_such_counter"), FatalError);
    EXPECT_THROW(fault::foldClusterCampaign(cfg, {a}), FatalError);
}

TEST(ClusterCampaign, RejectsDegenerateSweeps)
{
    fault::ClusterCampaignConfig cfg = tinyCampaign();
    cfg.seedsPerCell = 0;
    EXPECT_THROW(fault::runClusterCampaign(cfg), FatalError);

    cfg = tinyCampaign();
    cfg.intensities = {4};
    EXPECT_THROW(fault::runClusterCampaign(cfg), FatalError);

    cfg = tinyCampaign();
    cfg.modes.clear();
    EXPECT_THROW(fault::runClusterCampaign(cfg), FatalError);

    cfg = tinyCampaign();
    cfg.clients = 0;
    EXPECT_THROW(fault::runClusterCampaign(cfg), FatalError);
}

} // namespace
