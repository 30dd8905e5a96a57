/**
 * @file
 * Randomized fuzzing of stateful components whose invariants must
 * hold for arbitrary operation sequences: the persistent object
 * pool's allocator, the event queue's schedule/cancel machinery, and
 * the full RAS pipeline under composed media faults and power cuts.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "fault/ras_campaign.hh"
#include "mem/backing_store.hh"
#include "net/service_plane.hh"
#include "persist/object_pool.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::persist;

class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorFuzz, RandomAllocFreeKeepsContentsIntact)
{
    Rng rng(GetParam());
    mem::BackingStore store;
    ObjectPool pool(store, 0, 8 << 20);
    Tick t = 0;

    // Live objects with their expected fill pattern.
    std::map<std::uint64_t, std::pair<ObjectId, std::uint8_t>> live;
    std::uint64_t next_tag = 1;

    for (int op = 0; op < 2000; ++op) {
        const bool do_alloc = live.size() < 4 || rng.chance(0.55);
        if (do_alloc) {
            const std::uint64_t bytes = rng.between(1, 4096);
            const ObjectId oid = pool.allocate(t, bytes);
            ASSERT_TRUE(oid.valid());
            ASSERT_GE(pool.sizeOf(oid), bytes);
            const auto tag =
                static_cast<std::uint8_t>(next_tag * 37 + 11);
            std::vector<std::uint8_t> fill(bytes, tag);
            pool.writeObject(oid, 0, fill.data(), bytes);
            live[next_tag++] = {oid, tag};
        } else {
            auto it = live.begin();
            std::advance(it,
                         static_cast<long>(rng.below(live.size())));
            pool.free(t, it->second.first);
            live.erase(it);
        }

        // Spot-check a random survivor for corruption.
        if (!live.empty() && rng.chance(0.2)) {
            auto it = live.begin();
            std::advance(it,
                         static_cast<long>(rng.below(live.size())));
            std::uint8_t byte = 0;
            pool.readObject(it->second.first, 0, &byte, 1);
            ASSERT_EQ(byte, it->second.second)
                << "object corrupted after op " << op;
        }
    }

    // Full verification of every survivor.
    for (const auto &[tag, entry] : live) {
        const std::uint64_t bytes = pool.sizeOf(entry.first);
        std::vector<std::uint8_t> back(bytes);
        pool.readObject(entry.first, 0, back.data(), bytes);
        // Only the originally-written prefix is guaranteed; the
        // allocator rounds sizes up, so check the first byte and a
        // middle byte of the written range.
        EXPECT_EQ(back[0], entry.second);
    }

    // Reopen: the allocator metadata itself must be durable.
    ObjectPool reopened(store, 0, 8 << 20);
    EXPECT_TRUE(reopened.openedExisting());
    for (const auto &[tag, entry] : live) {
        std::uint8_t byte = 0;
        reopened.readObject(entry.first, 0, &byte, 1);
        EXPECT_EQ(byte, entry.second);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz,
                         ::testing::Values(11, 22, 33, 44));

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueFuzz, ScheduleCancelOrderInvariant)
{
    Rng rng(GetParam());
    EventQueue eq;

    // Fire times must be observed in non-decreasing order, and
    // cancelled events must never fire.
    Tick last_fired = 0;
    std::uint64_t fired = 0;
    std::vector<std::pair<EventId, bool>> cancelled_flags;
    std::vector<EventId> pending;
    std::uint64_t scheduled = 0, cancelled = 0;

    std::function<void(Tick)> schedule_one = [&](Tick when) {
        const EventId id = eq.schedule(when, [&, when] {
            ASSERT_GE(when, last_fired);
            last_fired = when;
            ++fired;
            // Occasionally schedule follow-up work from inside an
            // event.
            if (rng.chance(0.3) && scheduled < 3000) {
                ++scheduled;
                schedule_one(when + 1 + rng.below(1000));
            }
        });
        pending.push_back(id);
    };

    for (int i = 0; i < 1000; ++i) {
        ++scheduled;
        schedule_one(1 + rng.below(100000));
        if (!pending.empty() && rng.chance(0.25)) {
            const std::size_t idx = rng.below(pending.size());
            eq.deschedule(pending[idx]);
            pending.erase(pending.begin()
                          + static_cast<long>(idx));
            ++cancelled;
        }
    }

    eq.run();
    EXPECT_TRUE(eq.empty());
    EXPECT_LE(fired, scheduled - cancelled);
    EXPECT_GE(fired + cancelled, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(7, 77, 777));

class RasFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Compose the two fault models: high-BER media faults plus
 * wear-driven stuck bits during demand traffic, then a power cut
 * armed during half the SnG stops. Whatever the seed, the pipeline
 * must hold both invariants at once — zero silent data corruption
 * (every decode checked against ground truth) and exact durability
 * (resume iff the commit point landed before the cut).
 */
TEST_P(RasFuzz, CombinedPowerCutAndMediaFaultsHoldInvariants)
{
    fault::RasCampaignConfig config;
    config.seed = GetParam();
    config.bers = {1e-4, 1e-3};
    config.wearLevels = {0.9};
    config.seedsPerCell = 2;
    config.opsPerTrial = 400;
    config.powerCutEvery = 2;

    const fault::RasCampaignResult r = fault::runRasCampaign(config);

    EXPECT_EQ(r.trials, 8u);
    EXPECT_GT(r.checkedReads, 0u);
    EXPECT_EQ(r.sdcEvents, 0u);
    for (const std::string &note : r.violationNotes)
        ADD_FAILURE() << note;
    EXPECT_EQ(r.violations, 0u);
    EXPECT_GT(r.cutTrials, 0u);
    EXPECT_EQ(r.resumes + r.coldBootResumes, r.trials);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RasFuzz,
                         ::testing::Values(3, 212, 4099));

class ServiceFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Live KV traffic with power cuts landing at seed-random points
 * mid-flight (the plane probes each cut onto a busy instant, and the
 * seed moves where the busy instants are). Whatever the seed and
 * persistence mode, the service-level invariants must hold: no
 * acknowledged PUT lost, no PUT double-applied under retries that
 * race the cut, and every bounded queue within its capacity.
 */
TEST_P(ServiceFuzz, TrafficAndPowerCutsHoldInvariants)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);

    net::ServiceConfig cfg;
    const net::PersistMode modes[] = {
        net::PersistMode::SnG, net::PersistMode::OpLog,
        net::PersistMode::SysPc, net::PersistMode::SCheckPc,
        net::PersistMode::ACheckPc};
    cfg.mode = modes[rng.below(5)];
    cfg.runFor = (300 + rng.below(400)) * tickMs;
    cfg.drainGrace = 2500 * tickMs;
    cfg.cuts = 1 + static_cast<std::uint32_t>(rng.below(2));
    cfg.offDwell = 50 * tickMs;
    cfg.fleet.clients = 200;
    cfg.fleet.arrivalsPerSec = 1000.0;
    cfg.seed = seed;

    const net::ServiceResult r = net::runService(cfg);

    for (const std::string &note : r.violations)
        ADD_FAILURE() << r.modeName << ": " << note;
    EXPECT_EQ(r.lostAckedPuts, 0u) << r.modeName;
    EXPECT_EQ(r.duplicateApplied, 0u) << r.modeName;
    EXPECT_EQ(r.outages.size(), cfg.cuts) << r.modeName;
    EXPECT_GT(r.fleet.completed, 0u) << r.modeName;

    // Bounded queues stayed bounded.
    EXPECT_LE(r.kv.maxQueueDepth, cfg.kv.queueCapacity);
    EXPECT_LE(r.nic.maxRxOccupancy, cfg.nic.ringEntries);
    EXPECT_LE(r.nic.maxTxOccupancy, cfg.nic.ringEntries);

    // SnG (either write path) never cold-boots; every baseline
    // outage costs one.
    if (cfg.mode == net::PersistMode::SnG
        || cfg.mode == net::PersistMode::OpLog)
        EXPECT_EQ(r.machine.coldBoots, 0u);
    else
        EXPECT_EQ(r.machine.coldBoots, r.outages.size()) << r.modeName;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceFuzz,
                         ::testing::Values(7, 101, 555, 2025, 31337,
                                           900913));

class ServiceStormFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Seeded random cut *storms*: after each scheduled cut, follow-up
 * cuts chase the recovery and land as soon as the service is back
 * up. Whatever the spacing and persistence mode, no acknowledged PUT
 * may be lost, no PUT double-applied, and every outage — including
 * the ones that interrupt a recovery — must converge to a served
 * request again.
 */
TEST_P(ServiceStormFuzz, StormSchedulesHoldInvariantsInEveryMode)
{
    const std::uint64_t seed = GetParam();
    const net::PersistMode modes[] = {
        net::PersistMode::SnG, net::PersistMode::OpLog,
        net::PersistMode::SysPc, net::PersistMode::SCheckPc,
        net::PersistMode::ACheckPc};

    for (std::size_t m = 0; m < 5; ++m) {
        Rng rng(seed * 5 + m);

        net::ServiceConfig cfg;
        cfg.mode = modes[m];
        cfg.runFor = (300 + rng.below(300)) * tickMs;
        cfg.drainGrace = 5000 * tickMs;
        cfg.cuts = 1;
        cfg.stormFollowUps =
            1 + static_cast<std::uint32_t>(rng.below(2));
        cfg.stormSpacing = (10 + rng.below(40)) * tickMs;
        cfg.offDwell = 50 * tickMs;
        cfg.fleet.clients = 150;
        cfg.fleet.arrivalsPerSec = 1000.0;
        cfg.seed = seed * 5 + m;

        const net::ServiceResult r = net::runService(cfg);

        for (const std::string &note : r.violations)
            ADD_FAILURE() << r.modeName << ": " << note;
        EXPECT_EQ(r.lostAckedPuts, 0u) << r.modeName;
        EXPECT_EQ(r.duplicateApplied, 0u) << r.modeName;
        EXPECT_GT(r.fleet.completed, 0u) << r.modeName;

        // Every follow-up fired, each producing its own outage.
        EXPECT_EQ(r.stormFollowUpCuts,
                  std::uint64_t(cfg.cuts) * cfg.stormFollowUps)
            << r.modeName;
        EXPECT_EQ(r.outages.size(), cfg.cuts + r.stormFollowUpCuts)
            << r.modeName;

        EXPECT_LE(r.kv.maxQueueDepth, cfg.kv.queueCapacity);
        EXPECT_LE(r.nic.maxRxOccupancy, cfg.nic.ringEntries);
        EXPECT_LE(r.nic.maxTxOccupancy, cfg.nic.ringEntries);

        // Convergence. The 16 ms hold-up covers the Stop even under
        // the storm, so SnG resumes warm from every outage — in
        // milliseconds, fast enough that the preserved rings serve
        // traffic again after each one. The baselines' recoveries
        // take seconds (the remaining arrivals die out first), so
        // their convergence signal is one completed cold recovery
        // per outage, with the durability audit run at each
        // service-up.
        ASSERT_FALSE(r.outages.empty()) << r.modeName;
        if (cfg.mode == net::PersistMode::SnG
            || cfg.mode == net::PersistMode::OpLog) {
            EXPECT_EQ(r.machine.coldBoots, 0u);
            for (const net::ServiceOutage &o : r.outages)
                EXPECT_NE(o.downtime, maxTick) << r.modeName;
        } else {
            EXPECT_EQ(r.machine.coldBoots, r.outages.size()) << r.modeName;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceStormFuzz,
                         ::testing::Values(11, 404, 80211));

} // namespace
