/**
 * @file
 * Heterogeneous energy-storage plane: config validation, the
 * state-of-charge integrator's conservation / monotonicity / CC-CV /
 * aging properties, the legacy bit-compat cells behind the 22/55 ms
 * hold-up constants, EnergyGuard Stop admission, and the fleet
 * energy-provisioning campaign (grid validation, cell ordering, and
 * digest invariance across thread counts).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "energy/storage.hh"
#include "fault/energy_campaign.hh"
#include "pecos/energy_guard.hh"
#include "power/psu.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using energy::EnergyConfig;
using energy::StorageCell;
using energy::StorageCellSpec;
using energy::StoragePlane;
using fault::EnergyCampaignConfig;
using fault::EnergyCampaignResult;
using fault::EnergyCellStats;
using pecos::AdmissionReport;
using pecos::DrainEstimate;
using pecos::EnergyGuard;
using pecos::StopAdmission;

// --- EnergyConfig validation ---------------------------------------

EnergyConfig
validPlane()
{
    return energy::serverHierarchy(1.0);
}

TEST(EnergyConfigValidation, ReferenceHierarchyPasses)
{
    EXPECT_NO_THROW(energy::validateEnergyConfig(validPlane()));
}

TEST(EnergyConfigValidation, RejectsEmptyTierList)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers.clear();
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
    EXPECT_THROW(StoragePlane{cfg}, FatalError);
}

TEST(EnergyConfigValidation, RejectsNonPositiveCapacity)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers[0].capacityJoules = 0.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
    cfg.tiers[0].capacityJoules = -1.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsEfficiencyOutsideUnitInterval)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers[1].nominalEfficiency = 0.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
    cfg.tiers[1].nominalEfficiency = 1.2;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);

    cfg = validPlane();
    cfg.tiers[1].minEfficiency = 0.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
    cfg.tiers[1].minEfficiency = 1.2;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsFloorAboveNominalEfficiency)
{
    EnergyConfig cfg = validPlane();
    // atx-bulk is 0.97 nominal; a 0.99 floor inverts the curve.
    cfg.tiers[0].minEfficiency = 0.99;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsNegativeEsrSlope)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers[2].esrSlopePerWatt = -0.001;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsNegativeChargeAcceptance)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers[2].maxChargeWatts = -1.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsTaperKneeOutsideUnitInterval)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers[2].chargeTaperKnee = 0.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
    cfg.tiers[2].chargeTaperKnee = 1.5;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsZeroRatedCycles)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers[2].ratedCycles = 0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsEndOfLifeOutsideUnitInterval)
{
    EnergyConfig cfg = validPlane();
    cfg.tiers[2].endOfLifeFraction = 0.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
    cfg.tiers[2].endOfLifeFraction = 1.5;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

TEST(EnergyConfigValidation, RejectsNegativeChargerBudget)
{
    EnergyConfig cfg = validPlane();
    cfg.policy.chargerWatts = -1.0;
    EXPECT_THROW(energy::validateEnergyConfig(cfg), FatalError);
}

// --- StorageCell properties ----------------------------------------

TEST(StorageCellProperty, DischargeRechargeConservationRoundTrip)
{
    // Ideal cell: the store drains exactly what the rails receive,
    // and a discharge/recharge round-trip restores the exact SoC.
    StorageCell ideal(energy::legacyCell("ideal", 2.0, 10.0));
    ideal.deliver(4.0, tickSec / 4);  // 1 J out
    EXPECT_NEAR(ideal.socJoules(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(ideal.drawnJoules(), ideal.deliveredJoules());
    ideal.recharge(10.0, tickSec / 10);  // 1 J back
    EXPECT_NEAR(ideal.socJoules(), 2.0, 1e-12);
    EXPECT_NEAR(ideal.rechargedJoules(), 1.0, 1e-12);

    // Lossy cell: the store drains faster than the rails receive by
    // exactly the inverse discharge efficiency, and SoC + lifetime
    // draw conserves the starting energy.
    StorageCell lossy(energy::supercapCell(3.0));
    const double watts = 6.0;
    lossy.deliver(watts, tickSec / 8);
    const double delivered = watts * 0.125;
    EXPECT_NEAR(lossy.deliveredJoules(), delivered, 1e-12);
    EXPECT_NEAR(lossy.drawnJoules(),
                delivered / lossy.efficiencyAt(watts), 1e-12);
    EXPECT_NEAR(lossy.socJoules() + lossy.drawnJoules(), 3.0, 1e-12);
}

TEST(StorageCellProperty, SocIsMonotoneUnderPureLoad)
{
    StorageCell cell(energy::lifepo4Cell(5.0));
    double prev_soc = cell.soc();
    double prev_ticks = cell.ticksDeliverable(3.0);
    for (int i = 0; i < 50; ++i) {
        cell.deliver(3.0, 20 * tickMs);
        EXPECT_LT(cell.soc(), prev_soc);
        EXPECT_LT(cell.ticksDeliverable(3.0), prev_ticks);
        prev_soc = cell.soc();
        prev_ticks = cell.ticksDeliverable(3.0);
    }
    EXPECT_GT(cell.socJoules(), 0.0);
}

TEST(StorageCellProperty, EfficiencyFallsWithLoadAndClampsAtFloor)
{
    const StorageCell cell(energy::lifepo4Cell(5.0));
    EXPECT_DOUBLE_EQ(cell.efficiencyAt(0.0), 0.92);
    EXPECT_NEAR(cell.efficiencyAt(10.0), 0.92 - 0.004 * 10.0, 1e-12);
    EXPECT_DOUBLE_EQ(cell.efficiencyAt(1000.0), 0.70);  // floor
    // The draw needed to deliver grows accordingly.
    EXPECT_GT(cell.drawWattsFor(10.0), 10.0 / 0.92);
}

TEST(StorageCellProperty, CcCvRechargeTapersAboveTheKnee)
{
    // Below the knee the cell charges at the full CC rate; above it
    // the acceptance tapers and the SoC approaches — never exceeds —
    // the capacity.
    const StorageCellSpec spec = energy::lifepo4Cell(4.0);
    StorageCell cell(spec);
    cell.setSocJoules(0.0);

    const double rate = spec.maxChargeWatts;
    cell.recharge(rate, 100 * tickMs);  // well below the 80 % knee
    EXPECT_NEAR(cell.socJoules(), rate * 0.1, 1e-12);

    // Equal time spent above the knee banks strictly less.
    cell.setSocJoules(spec.chargeTaperKnee * 4.0);
    const double at_knee = cell.socJoules();
    cell.recharge(rate, 100 * tickMs);
    const double above = cell.socJoules() - at_knee;
    EXPECT_GT(above, 0.0);
    EXPECT_LT(above, rate * 0.1);

    // Saturating: a huge recharge asymptotes to capacity.
    cell.recharge(rate, 1000 * tickSec);
    EXPECT_LE(cell.socJoules(), 4.0);
    EXPECT_NEAR(cell.socJoules(), 4.0, 1e-6);
}

TEST(StorageCellProperty, CycleAgingShrinksEffectiveCapacity)
{
    // lifepo4: 2000 rated cycles, end-of-life fraction 0.80 — the
    // capacity degrades linearly and floors there.
    StorageCell cell(energy::lifepo4Cell(4.0));
    EXPECT_DOUBLE_EQ(cell.effectiveCapacityJoules(), 4.0);

    cell.applyAgingCycles(1000.0);
    EXPECT_NEAR(cell.cyclesUsed(), 1000.0, 1e-9);
    EXPECT_NEAR(cell.effectiveCapacityJoules(), 4.0 * 0.90, 1e-9);
    // The SoC clamps into the shrunk capacity.
    EXPECT_NEAR(cell.socJoules(), 4.0 * 0.90, 1e-9);

    cell.applyAgingCycles(100000.0);
    EXPECT_NEAR(cell.effectiveCapacityJoules(), 4.0 * 0.80, 1e-9);
}

TEST(StorageCellProperty, SeededAgingSpreadIsDeterministic)
{
    // The fleet aging draw is a pure function of the stream seed:
    // same seed, same spread; different seed, different fleet.
    auto aged_capacity = [](std::uint64_t seed, std::uint64_t id) {
        Rng rng(Rng::streamSeed(seed, 4000 + id));
        StoragePlane plane(energy::serverHierarchy(1.0));
        plane.applyAgingCycles(rng.uniform() * 600.0);
        return plane.totalEffectiveCapacityJoules();
    };
    for (std::uint64_t id = 0; id < 8; ++id)
        EXPECT_DOUBLE_EQ(aged_capacity(7, id), aged_capacity(7, id));
    bool any_differ = false;
    for (std::uint64_t id = 0; id < 8; ++id)
        any_differ |= aged_capacity(7, id) != aged_capacity(8, id);
    EXPECT_TRUE(any_differ);
}

TEST(StorageCellProperty, LegacyCellReproducesFixedEnergyArithmetic)
{
    // The ideal cell must reproduce the fixed-PsuSpec expressions
    // bit for bit — this is what keeps every pre-existing campaign
    // digest stable under the storage-plane refactor.
    const double joules = 0.022 * 18.9;
    StorageCell cell(energy::legacyCell("ATX", joules, 25.0));
    const double watts = 18.9;
    EXPECT_DOUBLE_EQ(cell.ticksDeliverable(watts),
                     joules / watts * static_cast<double>(tickSec));
    cell.deliver(watts, 5 * tickMs);
    EXPECT_DOUBLE_EQ(cell.socJoules(),
                     joules - watts * ticksToSec(5 * tickMs));
    cell.recharge(25.0, tickSec);  // min(full, soc + rate * dt)
    EXPECT_DOUBLE_EQ(cell.socJoules(), joules);
}

TEST(LegacyHoldupConstants, FromStoragePreservesTheLegacyConstants)
{
    // Satellite check: the 22 / 55 ms hold-up constants now come out
    // of PsuSpec::fromStorage over the ideal legacy cells — and the
    // derived numbers are the identical doubles.
    const power::PsuModel atx = power::PsuModel::atx();
    EXPECT_DOUBLE_EQ(atx.spec().storedJoules, 0.022 * 18.9);
    EXPECT_NEAR(static_cast<double>(atx.holdupTime(18.9)),
                static_cast<double>(22 * tickMs),
                static_cast<double>(2 * tickNs));

    const power::PsuModel dell = power::PsuModel::dellServer();
    EXPECT_DOUBLE_EQ(dell.spec().storedJoules, 0.055 * 18.9);
    EXPECT_NEAR(static_cast<double>(dell.holdupTime(18.9)),
                static_cast<double>(55 * tickMs),
                static_cast<double>(2 * tickNs));

    // fromStorage on an ideal cell is an identity on the energy.
    const power::PsuSpec spec = power::PsuSpec::fromStorage(
        energy::legacyCell("unit", 1.7, 40.0), 20.0, 10 * tickMs);
    EXPECT_DOUBLE_EQ(spec.storedJoules, 1.7);
    EXPECT_DOUBLE_EQ(spec.rechargeWatts, 40.0);
    EXPECT_EQ(spec.specHoldup, 10 * tickMs);
}

// --- StoragePlane --------------------------------------------------

TEST(StoragePlane, DeliversInDischargeOrderAndRefillsEveryTier)
{
    StoragePlane plane(energy::serverHierarchy(1.0));
    const double full = plane.totalSocJoules();
    EXPECT_DOUBLE_EQ(plane.soc(), 1.0);

    // Drain the fast tier: declared discharge order empties the ATX
    // bulk cap before the supercap sees any draw.
    const double atx_cap = plane.cells()[0].socJoules();
    const double load = 10.0;
    const double atx_ticks = plane.cells()[0].ticksDeliverable(load);
    plane.deliver(load, static_cast<Tick>(atx_ticks / 2));
    EXPECT_LT(plane.cells()[0].socJoules(), atx_cap);
    EXPECT_DOUBLE_EQ(plane.cells()[1].soc(), 1.0);
    EXPECT_DOUBLE_EQ(plane.cells()[2].soc(), 1.0);

    // Recharge restores every tier to full — full being the *aged*
    // effective capacity: the delivery above consumed a fraction of
    // a cycle, so the refill lands epsilon below the rated capacity.
    plane.recharge(10 * tickSec);
    EXPECT_NEAR(plane.totalSocJoules(),
                plane.totalEffectiveCapacityJoules(), 1e-12);
    EXPECT_NEAR(plane.totalSocJoules(), full, 1e-6);
    EXPECT_LT(plane.totalSocJoules(), full);
}

TEST(StoragePlane, ChargerSurplusFlowsPastFullTiers)
{
    // With the fast tiers full, the entire charger budget must reach
    // the deep LiFePO4 reserve instead of being burned on reserved
    // CC rates for tiers that accept nothing.
    StoragePlane plane(energy::serverHierarchy(1.0));
    plane.setTierSocJoules(2, 0.0);  // deep tier empty, others full

    const double before = plane.cells()[2].socJoules();
    plane.recharge(100 * tickMs);
    const double banked = plane.cells()[2].socJoules() - before;
    // The tier's own 15 W acceptance is the binding limit — not the
    // 60 W charger minus the idle tiers' reservations.
    EXPECT_NEAR(banked, 15.0 * 0.1, 1e-9);
}

// --- EnergyGuard admission -----------------------------------------

DrainEstimate
drainOf(double joules, double peak_watts)
{
    DrainEstimate est;
    est.joules = joules;
    est.peakWatts = peak_watts;
    est.ticks = tickMs;
    return est;
}

TEST(EnergyGuardAdmission, AdmitsAFullPlane)
{
    StoragePlane plane(energy::serverHierarchy(1.0));
    const EnergyGuard guard(plane, drainOf(0.05, 20.0));
    const AdmissionReport rep = guard.admitStop();
    EXPECT_EQ(rep.decision, StopAdmission::Admit);
    EXPECT_DOUBLE_EQ(rep.socFraction, 1.0);
    EXPECT_GT(rep.deliverableJoules, rep.requiredJoules);
    EXPECT_FALSE(guard.lowChargeWarning());
}

TEST(EnergyGuardAdmission, DefersBelowTheSocThreshold)
{
    StoragePlane plane(energy::serverHierarchy(1.0));
    // Push the plane to ~30 % — below the 0.50 defer threshold but
    // above the 0.20 warning floor.
    for (std::size_t i = 0; i < plane.cells().size(); ++i) {
        plane.setTierSocJoules(
            i, 0.3 * plane.cells()[i].effectiveCapacityJoules());
    }
    const EnergyGuard guard(plane, drainOf(0.05, 20.0));
    const AdmissionReport rep = guard.admitStop();
    EXPECT_EQ(rep.decision, StopAdmission::Defer);
    EXPECT_GT(rep.retryAfter, 0u);
    EXPECT_LT(rep.retryAfter, maxTick);
    EXPECT_FALSE(guard.lowChargeWarning());
}

TEST(EnergyGuardAdmission, DefersWhenTheDrainStarvesTheReserve)
{
    // Full charge is not enough: the margin-scaled worst-case drain
    // must fit the deliverable energy at the peak load.
    StoragePlane plane(energy::serverHierarchy(1.0));
    const EnergyGuard guard(plane, drainOf(100.0, 20.0));
    const AdmissionReport rep = guard.admitStop();
    EXPECT_EQ(rep.decision, StopAdmission::Defer);
    // Every tier is already full, so no recharge can ever close the
    // shortfall: the retry hint saturates.
    EXPECT_EQ(rep.retryAfter, maxTick);
}

TEST(EnergyGuardAdmission, RetryLoopConvergesToAdmission)
{
    // Drain the plane, then follow the guard's own retry hints:
    // recharge for retryAfter and re-admit. The loop must converge
    // (CC estimate, CV reality — hence re-admission, not trust).
    StoragePlane plane(energy::serverHierarchy(1.0));
    for (std::size_t i = 0; i < plane.cells().size(); ++i)
        plane.setTierSocJoules(i, 0.0);

    const EnergyGuard guard(plane, drainOf(0.05, 20.0));
    AdmissionReport rep = guard.admitStop();
    EXPECT_EQ(rep.decision, StopAdmission::Defer);
    EXPECT_TRUE(guard.lowChargeWarning());

    int retries = 0;
    while (rep.decision == StopAdmission::Defer && retries < 16) {
        plane.recharge(rep.retryAfter);
        rep = guard.admitStop();
        ++retries;
    }
    EXPECT_EQ(rep.decision, StopAdmission::Admit);
    EXPECT_GE(rep.socFraction, energy::GuardConfig::deferSoc);
}

TEST(EnergyGuardAdmission, WarningTracksTheLiveStateOfCharge)
{
    StoragePlane plane(energy::serverHierarchy(1.0));
    const EnergyGuard guard(plane, drainOf(0.05, 20.0));
    const double warn = energy::GuardConfig::warnSoc;
    for (std::size_t i = 0; i < plane.cells().size(); ++i) {
        plane.setTierSocJoules(
            i, (warn + 0.05)
                   * plane.cells()[i].effectiveCapacityJoules());
    }
    EXPECT_FALSE(guard.lowChargeWarning());
    for (std::size_t i = 0; i < plane.cells().size(); ++i) {
        plane.setTierSocJoules(
            i, (warn - 0.05)
                   * plane.cells()[i].effectiveCapacityJoules());
    }
    EXPECT_TRUE(guard.lowChargeWarning());
}

// --- Energy campaign -----------------------------------------------

TEST(EnergyCampaignValidation, RejectsMalformedGrids)
{
    const EnergyCampaignConfig good;
    EXPECT_NO_THROW(fault::validateEnergyCampaignConfig(good));

    EnergyCampaignConfig cfg = good;
    cfg.sizingScales.clear();
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    cfg = good;
    cfg.sizingScales = {0.1, 0.1};  // not strictly increasing
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    cfg = good;
    cfg.sizingScales = {-0.5, 1.0};
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    cfg = good;
    cfg.modes.clear();
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    cfg = good;
    cfg.intensities.clear();
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    cfg = good;
    cfg.intensities = {0};
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);
    cfg.intensities = {4};
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    cfg = good;
    cfg.seedsPerCell = 0;
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    // The stream column's 32-bit seed field holds 0 .. 2^32 - 1.
    cfg.seedsPerCell = std::uint64_t(1) << 32;
    EXPECT_NO_THROW(fault::validateEnergyCampaignConfig(cfg));
    cfg.seedsPerCell = (std::uint64_t(1) << 32) + 1;
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);

    cfg = good;
    cfg.agingSpreadCycles = -1.0;
    EXPECT_THROW(fault::validateEnergyCampaignConfig(cfg), FatalError);
}

EnergyCampaignConfig
smallCampaign()
{
    EnergyCampaignConfig cfg;
    cfg.sizingScales = {0.05, 0.30};
    cfg.modes = {net::PersistMode::SnG, net::PersistMode::SysPc};
    cfg.intensities = {1};
    cfg.seedsPerCell = 2;
    cfg.seed = 42;
    cfg.agingSpreadCycles = 300.0;
    return cfg;
}

TEST(EnergyCampaign, CellGridFollowsConfigOrder)
{
    EnergyCampaignConfig cfg = smallCampaign();
    const EnergyCampaignResult res = fault::runEnergyCampaign(cfg);

    ASSERT_EQ(res.total.trials, fault::energyCampaignTrials(cfg));
    ASSERT_EQ(res.cells.size(),
              cfg.sizingScales.size() * cfg.modes.size()
                  * cfg.intensities.size());

    // Scale-major, then intensity, then mode — and every cell ran
    // its full seed allocation.
    std::size_t idx = 0;
    for (const double scale : cfg.sizingScales) {
        for (const std::uint32_t intensity : cfg.intensities) {
            for (const net::PersistMode mode : cfg.modes) {
                const EnergyCellStats &cell = res.cells[idx++];
                EXPECT_DOUBLE_EQ(cell.scale, scale);
                EXPECT_EQ(cell.intensity, intensity);
                EXPECT_EQ(cell.mode, mode);
                EXPECT_EQ(cell.trials, cfg.seedsPerCell);
                EXPECT_GT(cell.provisionedJoules, 0.0);
            }
        }
    }

    // Provisioning rows are modes-major and scales are from the
    // sweep when met.
    ASSERT_EQ(res.provisioning.size(),
              cfg.modes.size() * cfg.intensities.size());
    for (const fault::EnergyProvision &prov : res.provisioning) {
        if (!prov.met)
            continue;
        EXPECT_TRUE(prov.scale == 0.05 || prov.scale == 0.30);
        EXPECT_GT(prov.joules, 0.0);
    }
}

TEST(EnergyCampaign, DigestIsInvariantAcrossThreadCounts)
{
    EnergyCampaignConfig cfg = smallCampaign();
    cfg.modes = EnergyCampaignConfig().modes;
    cfg.threads = 1;
    const EnergyCampaignResult one = fault::runEnergyCampaign(cfg);
    cfg.threads = 3;
    const EnergyCampaignResult three = fault::runEnergyCampaign(cfg);

    EXPECT_EQ(one.digest, three.digest);
    ASSERT_EQ(one.cells.size(), three.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
        EXPECT_EQ(one.cells[i].cuts, three.cells[i].cuts);
        EXPECT_EQ(one.cells[i].commitsDurable,
                  three.cells[i].commitsDurable);
        EXPECT_EQ(one.cells[i].survivedTrials,
                  three.cells[i].survivedTrials);
        EXPECT_EQ(one.cells[i].minSocPermille,
                  three.cells[i].minSocPermille);
    }
}

TEST(EnergyCampaign, GenerouslyProvisionedSnGSurvivesCleanly)
{
    // At a deliberately oversized plane a single cut is never fatal
    // for Stop-and-Go, and no trial may report a durability
    // violation.
    EnergyCampaignConfig cfg;
    cfg.sizingScales = {1.90};
    cfg.modes = {net::PersistMode::SnG};
    cfg.intensities = {1};
    cfg.seedsPerCell = 3;
    cfg.seed = 99;
    const EnergyCampaignResult res = fault::runEnergyCampaign(cfg);

    ASSERT_EQ(res.cells.size(), 1u);
    EXPECT_EQ(res.cells[0].survivedTrials, res.cells[0].trials);
    EXPECT_EQ(res.total.violations, 0u);
    ASSERT_EQ(res.provisioning.size(), 1u);
    EXPECT_TRUE(res.provisioning[0].met);
}

} // namespace
