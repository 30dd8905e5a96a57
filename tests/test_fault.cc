/**
 * @file
 * Power-cut fault injection: PowerRail analytics, the BackingStore
 * durability cursor, SnG prefix durability under a mid-Stop cut, the
 * resume payload-address regression, and the campaign invariant fuzz
 * across every persistence mode.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "energy/storage.hh"
#include "fault/campaign.hh"
#include "fault/power_rail.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "pecos/layout.hh"
#include "pecos/sng.hh"
#include "persist/checkpoint.hh"
#include "power/psu.hh"
#include "psm/psm.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using fault::PowerRail;
using mem::BackingStore;
using power::PsuModel;

// --- PowerRail -----------------------------------------------------

TEST(PowerRail, ConstantLoadMatchesPsuHoldup)
{
    const PsuModel psu = PsuModel::atx();
    for (const double watts : {5.0, 18.9, 40.0}) {
        PowerRail rail(psu, watts);
        const Tick expected = psu.holdupTime(watts);
        const Tick got = rail.holdupFrom(0);
        // Identical formula modulo double rounding.
        EXPECT_NEAR(static_cast<double>(got),
                    static_cast<double>(expected),
                    static_cast<double>(2 * tickNs))
            << "load " << watts << " W";
    }
}

TEST(PowerRail, ZeroLoadNeverFails)
{
    PowerRail rail(PsuModel::atx(), 0.0);
    EXPECT_EQ(rail.failTick(123), maxTick);
    EXPECT_EQ(rail.holdupFrom(123), maxTick);
}

TEST(PowerRail, StepProfileIntegratesPiecewise)
{
    // 1 J budget: 100 W for 5 ms burns 0.5 J, then 50 W drains the
    // remaining 0.5 J in exactly 10 ms.
    power::PsuSpec spec{"unit", 1.0, 100.0, 0};
    PowerRail rail(PsuModel(spec), 100.0);
    rail.addStep(5 * tickMs, 50.0);

    EXPECT_EQ(rail.loadAt(0), 100.0);
    EXPECT_EQ(rail.loadAt(5 * tickMs), 50.0);

    const Tick fail = rail.failTick(0);
    EXPECT_NEAR(static_cast<double>(fail),
                static_cast<double>(15 * tickMs),
                static_cast<double>(tickUs));

    // AC lost mid-way through the first step: 100 W over [2, 5) ms
    // burns 0.3 J, the remaining 0.7 J lasts 14 ms at 50 W.
    const Tick fail2 = rail.failTick(2 * tickMs);
    EXPECT_NEAR(static_cast<double>(fail2),
                static_cast<double>(19 * tickMs),
                static_cast<double>(2 * tickUs));
}

TEST(PowerRail, EnergyIntegralMatchesProfile)
{
    PowerRail rail(PsuModel::atx(), 10.0);
    rail.addStep(1 * tickMs, 4.0);
    // 10 W over 1 ms + 4 W over 2 ms = 0.018 J.
    EXPECT_NEAR(rail.energyUsedBy(0, 3 * tickMs), 0.018, 1e-9);
    // Window inside the second step only.
    EXPECT_NEAR(rail.energyUsedBy(2 * tickMs, 3 * tickMs), 0.004,
                1e-9);
}

TEST(PowerRail, PlaneRailMatchesThePsuRail)
{
    // A plane of one ideal cell holding the PSU's stored energy, with
    // the charger at the PSU's recharge rate, is the PSU: both rails
    // give the same fail tick and the same sag outcome, to the bit.
    // The first sag draws 0.45 J: more than the ATX unit holds, well
    // inside the server unit's reserve.
    const struct
    {
        PsuModel psu;
        bool failsInSags;
    } units[] = {{PsuModel::atx(), true}, {PsuModel::dellServer(), false}};
    for (const auto &unit : units) {
        const power::PsuSpec &spec = unit.psu.spec();
        energy::EnergyConfig config;
        config.tiers.push_back(energy::legacyCell(
            spec.name, spec.storedJoules, spec.rechargeWatts));
        config.policy.chargerWatts = spec.rechargeWatts;

        PowerRail from_psu(unit.psu, 40.0);
        PowerRail from_plane(energy::StoragePlane(config), 40.0);
        for (PowerRail *rail : {&from_psu, &from_plane}) {
            rail->addStep(5 * tickMs, 25.0);
            rail->addStep(20 * tickMs, 12.0);
            rail->addSag(0, 15 * tickMs, 0.0);
            rail->addSag(20 * tickMs, 20 * tickMs, 0.0);
        }
        EXPECT_EQ(from_plane.failTick(tickMs), from_psu.failTick(tickMs))
            << spec.name;

        const fault::SagOutcome want = from_psu.evaluateSags();
        const fault::SagOutcome got = from_plane.evaluateSags();
        EXPECT_EQ(want.railsFailed, unit.failsInSags) << spec.name;
        EXPECT_EQ(got.railsFailed, want.railsFailed) << spec.name;
        EXPECT_EQ(got.failTick, want.failTick) << spec.name;
        EXPECT_EQ(got.recoveredAt, want.recoveredAt) << spec.name;
        EXPECT_EQ(got.minJoules, want.minJoules) << spec.name;
    }
}

// --- BackingStore durability cursor --------------------------------

TEST(DurabilityCursor, UnarmedWritesAreUnfiltered)
{
    BackingStore store;
    const std::uint64_t v = 0xabcdef;
    store.writeTimed(100, 200, 0x1000, &v, sizeof(v));
    EXPECT_EQ(store.readValue<std::uint64_t>(0x1000), v);
    EXPECT_FALSE(store.powerCutArmed());
}

TEST(DurabilityCursor, DurableDroppedAndDisarm)
{
    BackingStore store;
    store.armPowerCut(1000, 42);

    std::uint8_t buf[256];
    std::memset(buf, 0x5a, sizeof(buf));

    // Completes before the cut: durable.
    store.writeTimed(0, 999, 0x0, buf, sizeof(buf));
    // Starts at the cut: dropped entirely.
    store.writeTimed(1000, 1200, 0x1000, buf, sizeof(buf));

    EXPECT_EQ(store.readValue<std::uint8_t>(0x0), 0x5a);
    EXPECT_EQ(store.readValue<std::uint8_t>(0xff), 0x5a);
    EXPECT_EQ(store.readValue<std::uint8_t>(0x1000), 0);
    EXPECT_EQ(store.cutStats().durableWrites, 1u);
    EXPECT_EQ(store.cutStats().droppedWrites, 1u);
    EXPECT_EQ(store.cutStats().durableBytes, sizeof(buf));
    EXPECT_EQ(store.cutStats().droppedBytes, sizeof(buf));

    // Power restored: the same write lands.
    store.disarmPowerCut();
    store.writeTimed(1000, 1200, 0x1000, buf, sizeof(buf));
    EXPECT_EQ(store.readValue<std::uint8_t>(0x1000), 0x5a);
}

TEST(DurabilityCursor, SmallWritesAreAtomic)
{
    BackingStore store;
    store.armPowerCut(1000, 7);

    const std::uint64_t v = 0x1122334455667788ULL;
    // Completion exactly at the cut: the store never landed.
    store.writeTimed(900, 1000, 0x40, &v, sizeof(v));
    EXPECT_EQ(store.readValue<std::uint64_t>(0x40), 0u);
    // One tick earlier: fully durable — an 8-byte store is never
    // torn.
    store.writeTimed(900, 999, 0x80, &v, sizeof(v));
    EXPECT_EQ(store.readValue<std::uint64_t>(0x80), v);
    EXPECT_EQ(store.cutStats().tornWrites, 0u);
}

TEST(DurabilityCursor, StraddlingWriteKeepsLinePrefixAndTearsOne)
{
    // 16 lines over [0, 1600), cut at 800 -> 8 durable lines, one
    // torn line, the rest dropped.
    BackingStore store;
    store.armPowerCut(800, 99);

    std::vector<std::uint8_t> buf(16 * 64);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i % 251 + 1);
    store.writeTimed(0, 1600, 0x2000, buf.data(), buf.size());

    EXPECT_EQ(store.cutStats().tornWrites, 1u);
    const std::uint64_t torn = store.cutStats().lastTornBytes;
    EXPECT_LE(torn, 64u);
    EXPECT_EQ(store.cutStats().lastTornLine, 0x2000u + 8 * 64);

    std::vector<std::uint8_t> got(buf.size());
    store.read(0x2000, got.data(), got.size());

    const std::uint64_t durable = 8 * 64 + torn;
    // Byte-exact durable prefix...
    EXPECT_EQ(std::memcmp(got.data(), buf.data(), durable), 0);
    // ...and nothing after it.
    for (std::uint64_t i = durable; i < got.size(); ++i)
        ASSERT_EQ(got[i], 0u) << "byte " << i << " leaked past cut";
}

TEST(DurabilityCursor, WriteClockGatesInstantWrites)
{
    BackingStore store;
    store.armPowerCut(500, 3);

    const std::array<std::uint8_t, 32> a{{1, 2, 3}};
    store.setWriteClock(499);
    store.write(0x0, a.data(), a.size());
    store.setWriteClock(500);
    store.write(0x100, a.data(), a.size());

    EXPECT_EQ(store.readValue<std::uint8_t>(0x0), 1);
    EXPECT_EQ(store.readValue<std::uint8_t>(0x100), 0);
    // Instant writes never straddle, so they never tear.
    EXPECT_EQ(store.cutStats().tornWrites, 0u);
}

TEST(DurabilityCursor, EpochFloorBlocksResurrectionAcrossCuts)
{
    // The single-epoch bug: bytes dropped by cut #1 must not be
    // resurrected by replaying the same timed interval under cut #2.
    BackingStore store;
    const std::uint64_t v = 0xfeedfacecafef00dULL;

    store.armPowerCut(1000, 11);
    store.writeTimed(1100, 1200, 0x3000, &v, sizeof(v));  // dropped
    EXPECT_EQ(store.readValue<std::uint64_t>(0x3000), 0u);
    store.disarmPowerCut();
    EXPECT_EQ(store.epochFloor(), 1000u);

    // Second epoch: a replay of the pre-floor interval is stale and
    // must be rejected even though it now ends before the new cut.
    store.armPowerCut(5000, 12);
    store.writeTimed(900, 980, 0x3000, &v, sizeof(v));
    EXPECT_EQ(store.readValue<std::uint64_t>(0x3000), 0u);
    EXPECT_EQ(store.cutStats().staleWrites, 1u);
    EXPECT_EQ(store.cutStats().staleBytes, sizeof(v));

    // Post-floor writes land as usual.
    store.writeTimed(1500, 1600, 0x3000, &v, sizeof(v));
    EXPECT_EQ(store.readValue<std::uint64_t>(0x3000), v);
    store.disarmPowerCut();
    EXPECT_EQ(store.cutEpoch(), 2u);
    EXPECT_EQ(store.epochFloor(), 5000u);
}

TEST(DurabilityCursor, CancelledCutDoesNotAdvanceTheFloor)
{
    // An armed cut that never fired (AC back before the deadline)
    // must not push the epoch floor into the future.
    BackingStore store;
    store.armPowerCut(1000, 13);
    store.disarmPowerCut();
    EXPECT_EQ(store.epochFloor(), 1000u);

    store.armPowerCut(1'000'000, 14);
    store.cancelPowerCut();
    EXPECT_EQ(store.epochFloor(), 1000u);

    // A write the continuing execution issues before the cancelled
    // instant is perfectly legitimate.
    const std::uint64_t v = 0x1234;
    store.writeTimed(2000, 2100, 0x4000, &v, sizeof(v));
    EXPECT_EQ(store.readValue<std::uint64_t>(0x4000), v);
}

// --- PowerRail brownout sags ---------------------------------------

TEST(PowerRailSag, ZeroLoadDroopNeverFails)
{
    PowerRail rail(PsuModel::atx(), 0.0);
    rail.addSag(0, 10 * tickSec, 0.0);  // total blackout, no load
    const fault::SagOutcome out = rail.evaluateSags();
    EXPECT_FALSE(out.railsFailed);
    EXPECT_EQ(out.recoveredAt, 10 * tickSec);
    EXPECT_DOUBLE_EQ(out.minJoules, PsuModel::atx().spec().storedJoules);
}

TEST(PowerRailSag, SagExactlyAtTheHoldupFloorSurvives)
{
    // A full blackout lasting exactly the hold-up drains the reserve
    // to the floor but the rails never leave specification: failure
    // requires running dry strictly inside the sag.
    const PsuModel psu = PsuModel::atx();
    const double watts = 18.9;
    const Tick holdup = psu.holdupTime(watts);

    PowerRail rail(psu, watts);
    rail.addSag(0, holdup, 0.0);
    const fault::SagOutcome at_floor = rail.evaluateSags();
    EXPECT_FALSE(at_floor.railsFailed);
    EXPECT_NEAR(at_floor.minJoules, 0.0, 1e-6);
    EXPECT_EQ(at_floor.recoveredAt, holdup);

    // One microsecond longer and the reserve runs dry mid-sag.
    PowerRail over(psu, watts);
    over.addSag(0, holdup + tickUs, 0.0);
    const fault::SagOutcome failed = over.evaluateSags();
    EXPECT_TRUE(failed.railsFailed);
    EXPECT_NEAR(static_cast<double>(failed.failTick),
                static_cast<double>(holdup),
                static_cast<double>(tickUs));
    EXPECT_EQ(failed.minJoules, 0.0);
}

TEST(PowerRailSag, PartialSagScalesTheEffectiveDrain)
{
    // At 60 % supply the PSU bridges only 40 % of the load, so the
    // survivable duration stretches by 1/0.4.
    const PsuModel psu = PsuModel::atx();
    const double watts = 18.9;
    const Tick holdup = psu.holdupTime(watts);
    const Tick stretched = holdup * 5 / 2;

    PowerRail rail(psu, watts);
    rail.addSag(0, stretched - tickMs, 0.6);
    EXPECT_FALSE(rail.evaluateSags().railsFailed);

    PowerRail deeper(psu, watts);
    deeper.addSag(0, stretched + tickMs, 0.6);
    EXPECT_TRUE(deeper.evaluateSags().railsFailed);
}

TEST(PowerRailSag, TwoSagsInOneWindowShareTheReserve)
{
    // Two back-to-back half-hold-up blackouts with a gap too short
    // to recharge: the second runs the shared reserve dry. The same
    // pair spaced far apart survives on the recharge between them.
    const PsuModel psu = PsuModel::atx();  // 25 W recharge
    const double watts = 18.9;
    const Tick holdup = psu.holdupTime(watts);
    const Tick sag = (holdup * 2) / 3;

    PowerRail tight(psu, watts);
    tight.addSag(0, sag, 0.0);
    tight.addSag(sag + tickUs, sag, 0.0);
    const fault::SagOutcome crashed = tight.evaluateSags();
    EXPECT_TRUE(crashed.railsFailed);
    // It dies inside the *second* sag.
    EXPECT_GT(crashed.failTick, sag + tickUs);

    PowerRail spaced(psu, watts);
    spaced.addSag(0, sag, 0.0);
    spaced.addSag(sag + tickSec, sag, 0.0);
    const fault::SagOutcome ok = spaced.evaluateSags();
    EXPECT_FALSE(ok.railsFailed);
    EXPECT_EQ(ok.recoveredAt, sag + tickSec + sag);
}

TEST(PowerRailSag, AdjacentSagsEarnNoRechargeCredit)
{
    // Back-to-back sags — the second starting exactly where the
    // first ends — must not accrue recharge credit: the input stage
    // never saw nominal AC between them. A one-tick gap earns
    // exactly one tick of charger credit, pinning the accounting to
    // the boundary.
    const PsuModel psu = PsuModel::atx();
    const double watts = 18.9;
    const Tick sag = psu.holdupTime(watts) / 4;

    PowerRail adjacent(psu, watts);
    adjacent.addSag(0, sag, 0.0);
    adjacent.addSag(sag, sag, 0.0);
    const fault::SagOutcome no_credit = adjacent.evaluateSags();
    EXPECT_FALSE(no_credit.railsFailed);
    const double stored = psu.spec().storedJoules;
    EXPECT_NEAR(no_credit.minJoules,
                stored - 2.0 * watts * ticksToSec(sag), 1e-9);

    PowerRail gapped(psu, watts);
    gapped.addSag(0, sag, 0.0);
    gapped.addSag(sag + 1, sag, 0.0);
    const fault::SagOutcome credit = gapped.evaluateSags();
    EXPECT_FALSE(credit.railsFailed);
    EXPECT_GT(credit.minJoules, no_credit.minJoules);
    EXPECT_NEAR(credit.minJoules - no_credit.minJoules,
                psu.spec().rechargeWatts * ticksToSec(1), 1e-13);
}

TEST(PowerRailSag, OverlappingOrOutOfOrderSagsAreRejected)
{
    PowerRail rail(PsuModel::atx(), 18.9);
    rail.addSag(tickMs, tickMs, 0.5);

    // Overlapping the live window, or starting before it, is a
    // schedule bug and must be rejected loudly.
    EXPECT_THROW(rail.addSag(tickMs + tickMs / 2, tickMs, 0.0),
                 FatalError);
    EXPECT_THROW(rail.addSag(0, tickUs, 0.0), FatalError);

    // Abutting exactly at the end is legal: adjacent, not
    // overlapping (and earns no recharge credit, per above).
    EXPECT_NO_THROW(rail.addSag(2 * tickMs, tickMs, 0.5));

    // Supply fraction outside [0, 1] is rejected too.
    EXPECT_THROW(rail.addSag(10 * tickMs, tickMs, 1.5), FatalError);
    EXPECT_THROW(rail.addSag(20 * tickMs, tickMs, -0.1), FatalError);
}

TEST(PowerRailSag, RechargeBetweenSagsIsCappedAtTheFullReserve)
{
    // A 10 s gap at the 25 W charger would bank 250 J if uncapped —
    // 600x the 0.42 J reserve. The refill must cap at full: after
    // the gap the rail behaves exactly like a fresh one, surviving a
    // sag of precisely the hold-up and dying one microsecond past
    // it.
    const PsuModel psu = PsuModel::atx();
    const double watts = 18.9;
    const Tick holdup = psu.holdupTime(watts);
    const Tick second_at = holdup / 4 + 10 * tickSec;

    PowerRail refilled(psu, watts);
    refilled.addSag(0, holdup / 4, 0.0);
    refilled.addSag(second_at, holdup, 0.0);
    EXPECT_FALSE(refilled.evaluateSags().railsFailed);

    PowerRail over(psu, watts);
    over.addSag(0, holdup / 4, 0.0);
    over.addSag(second_at, holdup + tickUs, 0.0);
    const fault::SagOutcome failed = over.evaluateSags();
    EXPECT_TRUE(failed.railsFailed);
    EXPECT_NEAR(static_cast<double>(failed.failTick - second_at),
                static_cast<double>(holdup),
                static_cast<double>(tickUs));
}

// --- SnG under the cursor ------------------------------------------

struct SngRig
{
    SngRig()
    {
        kern = std::make_unique<kernel::Kernel>();
        psm = std::make_unique<psm::Psm>();
        sng = std::make_unique<pecos::Sng>(
            *kern, *psm, pmem, std::vector<cache::L1Cache *>{});
    }

    std::unique_ptr<kernel::Kernel> kern;
    std::unique_ptr<psm::Psm> psm;
    mem::BackingStore pmem;
    std::unique_ptr<pecos::Sng> sng;
};

TEST(SngFault, HoldupViolationKeepsAByteExactSubset)
{
    // Reference run: an identically-seeded rig with unlimited
    // hold-up. Its reserved-region image is what the cut run's
    // writes would have produced had the rails survived.
    SngRig full;
    const auto full_report = full.sng->stop(0);
    ASSERT_FALSE(full_report.commitFailed);

    // Cut run: the rails die halfway through Drive-to-Idle.
    SngRig rig;
    const Tick holdup = full_report.processStopDone / 2;
    const auto report = rig.sng->stop(0, holdup);

    EXPECT_TRUE(report.commitFailed);
    EXPECT_EQ(report.cutTick, holdup);
    EXPECT_FALSE(rig.sng->hasCommit());
    EXPECT_GT(report.writesDropped, 0u);

    // Byte-exact prefix durability: every reserved-region byte
    // either matches the reference image (it landed before the cut,
    // including the durable prefix of the torn line) or reads as
    // zero (it was dropped). A third value would mean a write after
    // the cut leaked to media.
    const pecos::ReservedLayout layout(rig.psm->capacityBytes());
    const std::uint64_t span = std::uint64_t(16) << 20;
    std::vector<std::uint8_t> a(1 << 20), b(1 << 20);
    std::uint64_t kept = 0, lost = 0;
    for (std::uint64_t off = 0; off < span; off += a.size()) {
        full.pmem.read(layout.base + off, a.data(), a.size());
        rig.pmem.read(layout.base + off, b.data(), b.size());
        for (std::uint64_t i = 0; i < a.size(); ++i) {
            if (b[i] == a[i]) {
                kept += a[i] != 0;
            } else {
                ASSERT_EQ(b[i], 0u)
                    << "byte " << off + i
                    << " leaked past the cut";
                ++lost;
            }
        }
    }
    EXPECT_GT(kept, 0u) << "no write before the cut persisted";
    EXPECT_GT(lost, 0u) << "no write after the cut was dropped";

    // The next boot is cold.
    const auto go = rig.sng->resume(report.offlineDone + tickSec);
    EXPECT_TRUE(go.coldBoot);
}

TEST(SngFault, StopDisarmsItsOwnCut)
{
    SngRig rig;
    rig.sng->stop(0, tickMs);
    EXPECT_FALSE(rig.pmem.powerCutArmed());
}

TEST(SngFault, ExternallyArmedCutTakesPrecedence)
{
    SngRig rig;
    rig.pmem.armPowerCut(2 * tickMs, 5);

    // stop() is told the PSU would last 16 ms, but the campaign's
    // earlier cut wins — and stop() must leave it armed.
    const auto report = rig.sng->stop(0, 16 * tickMs);
    EXPECT_EQ(report.cutTick, 2 * tickMs);
    EXPECT_TRUE(report.commitFailed);
    EXPECT_TRUE(rig.pmem.powerCutArmed());
}

TEST(SngFault, GenerousHoldupCommitsDurably)
{
    SngRig rig;
    const auto report = rig.sng->stop(0, 55 * tickMs);
    EXPECT_FALSE(report.commitFailed);
    EXPECT_LT(report.commitAt, report.cutTick);
    EXPECT_TRUE(rig.sng->hasCommit());
    EXPECT_EQ(report.writesDropped, 0u);
    EXPECT_EQ(report.writesTorn, 0u);
}

// --- resume payload addressing (regression) ------------------------

TEST(SngFault, ResumeReadsPayloadFromTheSerializedRegion)
{
    SngRig rig;
    rig.sng->stop(0, 55 * tickMs);

    const pecos::ReservedLayout layout(rig.psm->capacityBytes());
    const auto go = rig.sng->resume(tickSec);
    ASSERT_FALSE(go.coldBoot);

    // Go must charge its context/MMIO reads against the payload
    // region Auto-Stop serialized — packed after the DCB entry
    // array — not against the entry array itself.
    EXPECT_EQ(go.payloadBase, layout.dcbPayloadAddr());
    std::uint64_t payload = 0;
    for (const auto &dev : rig.kern->devices().list())
        payload += dev->contextBytes() + dev->mmioBytes();
    EXPECT_EQ(go.payloadEnd, layout.dcbPayloadAddr() + payload);
    EXPECT_EQ(go.payloadBytesRead, payload);
    EXPECT_EQ(go.payloadBytesRead,
              rig.kern->devices().totalContextBytes()
                  + rig.kern->devices().totalMmioBytes());
}

TEST(SngFault, ResumeIssuesPsmTrafficForTheMmioImages)
{
    // The saved MMIO images flow back through the PSM: resume must
    // read at least payload/64 lines beyond what a payload-free
    // resume would.
    SngRig rig;
    rig.sng->stop(0, 55 * tickMs);

    const std::uint64_t reads_before = rig.psm->stats().reads;
    const auto go = rig.sng->resume(tickSec);
    ASSERT_FALSE(go.coldBoot);
    const std::uint64_t read_lines =
        rig.psm->stats().reads - reads_before;
    EXPECT_GE(read_lines, go.payloadBytesRead / 64);
}

// --- checkpoint ledger ---------------------------------------------

TEST(CheckpointLedgerTest, TornRecordReadsAsNoCommit)
{
    using persist::CheckpointLedger;

    BackingStore store;
    CheckpointLedger::Record record;
    record.magic = CheckpointLedger::recordMagic;
    record.seq = 3;
    record.slot = 1;
    record.bytes = 4096;
    record.bodySeed = 77;
    record.checksum = CheckpointLedger::checksumOf(record);
    EXPECT_TRUE(record.valid());

    // Any torn byte invalidates it.
    CheckpointLedger::Record torn = record;
    torn.bytes ^= 1;
    EXPECT_FALSE(torn.valid());
    torn = record;
    torn.checksum ^= 0x100;
    EXPECT_FALSE(torn.valid());
    CheckpointLedger::Record zero;
    EXPECT_FALSE(zero.valid());
}

TEST(CheckpointLedgerTest, BodyPatternRoundTrips)
{
    BackingStore store;
    psm::Psm psm;
    struct Port : mem::MemoryPort
    {
        explicit Port(psm::Psm &p) : p(p) {}
        mem::AccessResult
        access(const mem::MemRequest &req, Tick when) override
        {
            return p.access(req, when);
        }
        Tick fence(Tick when) override { return p.flush(when); }
        psm::Psm &p;
    } port(psm);
    mem::TimedMem pmem(port, &store);

    const mem::Addr addr = 0x10000;
    persist::writeBodyPattern(pmem, 0, addr, 12345, 9);
    EXPECT_TRUE(persist::verifyBodyPattern(store, addr, 12345, 9));
    // Wrong seed or a flipped byte must fail.
    EXPECT_FALSE(persist::verifyBodyPattern(store, addr, 12345, 10));
    std::uint8_t b;
    store.read(addr + 7777, &b, 1);
    b ^= 0x40;
    store.write(addr + 7777, &b, 1);
    EXPECT_FALSE(persist::verifyBodyPattern(store, addr, 12345, 9));
}

// --- campaign invariant fuzz ---------------------------------------

/**
 * 25 cuts x 5 modes x 2 PSUs = 250 seeded cut ticks, every one
 * required to resolve to resume-from-durable-commit or cold boot.
 */
TEST(CampaignFuzz, TwoHundredFiftyCutsZeroViolations)
{
    using Runner =
        fault::CampaignResult (*)(const fault::CampaignConfig &);
    const Runner runners[] = {
        fault::runSngCampaign,
        fault::runSysPcCampaign,
        fault::runSCheckPcCampaign,
        fault::runACheckPcCampaign,
        fault::runOpLogCampaign,
    };
    const PsuModel psus[] = {PsuModel::atx(), PsuModel::dellServer()};

    for (const Runner run : runners) {
        for (const PsuModel &psu : psus) {
            fault::CampaignConfig config;
            config.cuts = 25;
            config.seed = 20260807;
            config.psu = psu;
            const auto result = run(config);
            EXPECT_EQ(result.violations, 0u)
                << result.mode << "/" << result.psu << ": "
                << (result.violationNotes.empty()
                        ? std::string("(no notes)")
                        : result.violationNotes.front());
            EXPECT_EQ(result.cuts, config.cuts);
            EXPECT_EQ(result.resumes + result.coldBoots, result.cuts);
        }
    }
}

TEST(CampaignFuzz, SngSweepCoversEveryStopPhase)
{
    fault::CampaignConfig config;
    config.cuts = 40;
    config.seed = 5;
    const auto result = fault::runSngCampaign(config);
    EXPECT_EQ(result.violations, 0u);
    EXPECT_GT(result.phaseCount(fault::CutPhase::ProcessStop), 0u);
    EXPECT_GT(result.phaseCount(fault::CutPhase::DeviceStop), 0u);
    EXPECT_GT(result.phaseCount(fault::CutPhase::EpCut), 0u);
    EXPECT_GT(result.phaseCount(fault::CutPhase::PostCommit), 0u);
    // Cuts inside Stop really dropped bytes on the floor.
    EXPECT_GT(result.droppedWrites, 0u);
}

TEST(CampaignFuzz, OpLogSweepCoversAppendCommitAndAftermath)
{
    fault::CampaignConfig config;
    config.cuts = 40;
    config.seed = 5;
    const auto result = fault::runOpLogCampaign(config);
    EXPECT_EQ(result.violations, 0u)
        << (result.violationNotes.empty()
                ? std::string("(no notes)")
                : result.violationNotes.front());
    EXPECT_GT(result.phaseCount(fault::CutPhase::MidDump), 0u);
    EXPECT_GT(result.phaseCount(fault::CutPhase::CommitWindow), 0u);
    EXPECT_GT(result.phaseCount(fault::CutPhase::PostCommit), 0u);
    // Cuts mid-stream really dropped log writes on the floor. (Tears
    // need the cut strictly inside one line store's ~40 ns window —
    // too rare for 40 uniform cuts; the byte-offset property test in
    // test_net.cc owns that coverage.)
    EXPECT_GT(result.droppedWrites, 0u);
}

} // namespace
