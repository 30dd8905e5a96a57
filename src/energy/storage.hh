/**
 * @file
 * Heterogeneous energy-storage plane: cells, charge control, and
 * state of charge.
 *
 * The paper budgets Stop against two fixed PSU hold-up constants
 * (22/55 ms). A real deployment sits behind a *hierarchy* of energy
 * stores — ATX bulk capacitors, supercap banks, battery UPS — each
 * with its own capacity, discharge efficiency (ESR losses grow with
 * draw), charge-acceptance curve (constant-current up to a knee,
 * then taper), and rated-cycle aging that shrinks the capacity it
 * can still hold. This module models that hierarchy:
 *
 *  - StorageCell: one tier's state-of-charge integrator. Delivering
 *    P watts to the rails draws P / eff(P) from the store; eff(P)
 *    falls linearly with the delivered power (an ESR-style model)
 *    down to a floor. Lifetime discharged energy counts equivalent
 *    full cycles, and effective capacity degrades linearly to an
 *    end-of-life fraction at the rated cycle count.
 *  - ChargeController: the policy that orders discharge and
 *    recharge across tiers and splits a finite charger input budget.
 *  - StoragePlane: the composition (e.g. ATX cap ⊕ supercap ⊕
 *    LiFePO4 UPS) the PowerRail drains and recharges.
 *
 * The plane is deliberately bit-compatible with the fixed-energy
 * model it replaces: an *ideal* single tier (efficiency exactly 1,
 * no taper, no aging) reproduces `storedJoules / watts` hold-ups and
 * `min(full, joules + recharge * dt)` refills with the identical
 * floating-point expressions, so legacy campaigns renumber nothing.
 */

#ifndef LIGHTPC_ENERGY_STORAGE_HH
#define LIGHTPC_ENERGY_STORAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace lightpc::energy
{

/** One storage tier's electrical and aging parameters. */
struct StorageCellSpec
{
    std::string name;

    /** Rated (fresh) usable capacity. */
    double capacityJoules = 0.0;

    /** Delivered/drawn energy ratio at zero load. */
    double nominalEfficiency = 1.0;

    /**
     * ESR-style efficiency loss per delivered watt: eff(P) =
     * max(minEfficiency, nominalEfficiency - esrSlopePerWatt * P).
     */
    double esrSlopePerWatt = 0.0;

    /** Efficiency floor of the discharge curve. */
    double minEfficiency = 1.0;

    /** Constant-current charge acceptance below the taper knee. */
    double maxChargeWatts = 0.0;

    /**
     * State-of-charge fraction where constant-current charging ends
     * and the acceptance tapers toward zero at full (CC/CV). 1.0
     * charges at full rate all the way (the ideal legacy model).
     */
    double chargeTaperKnee = 1.0;

    /** Equivalent full cycles to reach end-of-life capacity. */
    std::uint64_t ratedCycles = 1;

    /**
     * Effective-capacity fraction remaining at ratedCycles; capacity
     * degrades linearly from 1.0 to this and is floored there. 1.0
     * disables aging entirely.
     */
    double endOfLifeFraction = 1.0;
};

/**
 * One tier's runtime state: a state-of-charge integrator with
 * efficiency-lossy discharge, CC/CV recharge, and cycle aging.
 */
class StorageCell
{
  public:
    /** Starts full (at the aged effective capacity). */
    explicit StorageCell(const StorageCellSpec &spec);

    const StorageCellSpec &spec() const { return _spec; }

    /** Aging-degraded capacity the cell can hold today. */
    double effectiveCapacityJoules() const;

    /** Stored energy right now. */
    double socJoules() const { return _soc; }

    /** Stored energy as a fraction of the effective capacity. */
    double soc() const;

    /** Equivalent full cycles consumed so far. */
    double cyclesUsed() const;

    /** Discharge efficiency at @p deliver_watts of rail load. */
    double efficiencyAt(double deliver_watts) const;

    /** Store-side draw needed to deliver @p deliver_watts. */
    double drawWattsFor(double deliver_watts) const;

    /**
     * Ticks (as a double, not truncated) this cell alone can sustain
     * @p deliver_watts. HUGE_VAL when the load is non-positive.
     */
    double ticksDeliverable(double deliver_watts) const;

    /**
     * Deliver @p deliver_watts for @p dt. The caller must not exceed
     * ticksDeliverable(); the SoC floor is clamped at zero.
     */
    void deliver(double deliver_watts, Tick dt);

    /**
     * Recharge for @p dt with at most @p budget_watts of charger
     * input: constant current (capped by maxChargeWatts) below the
     * taper knee, exponential taper above it.
     */
    void recharge(double budget_watts, Tick dt);

    /** Force the stored energy (clamped to the effective capacity). */
    void setSocJoules(double joules);

    /**
     * Pre-age the cell by @p cycles equivalent full cycles (fleet
     * aging spread); clamps the SoC into the shrunk capacity.
     */
    void applyAgingCycles(double cycles);

    /** Total energy drawn from the store since construction. */
    double drawnJoules() const { return _drawn; }

    /** Total energy delivered to the rails since construction. */
    double deliveredJoules() const { return _delivered; }

    /** Total charger energy accepted since construction. */
    double rechargedJoules() const { return _recharged; }

  private:
    StorageCellSpec _spec;
    double _soc = 0.0;
    double _dischargedJoules = 0.0;  ///< lifetime, for cycle count
    double _drawn = 0.0;
    double _delivered = 0.0;
    double _recharged = 0.0;
};

/**
 * The charger input budget the recharge path splits across tiers.
 * Both paths visit the tiers in declaration order: the fast transient
 * tiers supply the rails first and are refilled first.
 */
struct ChargePolicy
{
    /**
     * Total charger input power split across tiers while AC is
     * present. 0 means unlimited: every tier charges at its own
     * maxChargeWatts concurrently.
     */
    double chargerWatts = 0.0;
};

/** Admission thresholds the Sng energy guard enforces. */
struct GuardConfig
{
    /**
     * Defer a *voluntary* Stop while the plane's state of charge is
     * below this fraction (it recovers by recharging first).
     */
    static constexpr double deferSoc = 0.50;

    /**
     * Proactive EP-cut floor: at or below this state of charge the
     * machine persists immediately, before the budget is gone.
     */
    static constexpr double warnSoc = 0.20;

    /** Safety multiplier over the worst-case drain estimate. */
    static constexpr double drainMargin = 1.25;

    static_assert(deferSoc > 0.0 && deferSoc < 1.0);
    static_assert(warnSoc > 0.0 && warnSoc < 1.0);
    static_assert(warnSoc < deferSoc);
    static_assert(drainMargin >= 1.0);
};

/** A full energy-plane configuration. */
struct EnergyConfig
{
    /** The tiers, fast transient stores first. */
    std::vector<StorageCellSpec> tiers;

    ChargePolicy policy;
};

/**
 * Reject malformed configurations with fatal(): non-positive
 * capacities, efficiencies outside (0, 1], a zero rated-cycle count,
 * a negative charger budget, and friends.
 */
void validateEnergyConfig(const EnergyConfig &config);

/**
 * The composed energy-storage hierarchy behind one machine's rails.
 */
class StoragePlane
{
  public:
    /** Validates @p config; every tier starts full. */
    explicit StoragePlane(const EnergyConfig &config);

    /**
     * Build without validation. Internal legacy-compatibility path:
     * a PowerRail wrapping a zero-energy PsuSpec (campaigns scale
     * stored energy through zero) must keep its drained-at-AC-loss
     * semantics rather than reject the config.
     */
    static StoragePlane unchecked(const EnergyConfig &config);

    const EnergyConfig &config() const { return cfg; }
    const std::vector<StorageCell> &cells() const { return tiers; }

    /** Rated (fresh) capacity summed over tiers. */
    double totalCapacityJoules() const;

    /** Aging-degraded capacity summed over tiers. */
    double totalEffectiveCapacityJoules() const;

    /** Stored energy summed over tiers. */
    double totalSocJoules() const;

    /** Stored energy as a fraction of the effective capacity. */
    double soc() const;

    /**
     * Ticks (as a double) the plane can sustain @p deliver_watts,
     * draining tiers in declaration order. HUGE_VAL when the load is
     * non-positive.
     */
    double ticksDeliverable(double deliver_watts) const;

    /**
     * Rail-side energy the plane can still deliver at
     * @p deliver_watts (each tier's SoC scaled by its discharge
     * efficiency at that load).
     */
    double deliverableJoules(double deliver_watts) const;

    /**
     * Deliver @p deliver_watts for @p dt, draining tiers in
     * declaration order. The caller must not exceed ticksDeliverable().
     */
    void deliver(double deliver_watts, Tick dt);

    /**
     * Recharge every tier for @p dt, splitting the charger budget in
     * declaration order.
     */
    void recharge(Tick dt);

    /** Pre-age every tier by @p cycles equivalent full cycles. */
    void applyAgingCycles(double cycles);

    /** Force one tier's stored energy (test/benchmark hook). */
    void setTierSocJoules(std::size_t tier, double joules);

  private:
    StoragePlane() = default;

    EnergyConfig cfg;
    std::vector<StorageCell> tiers;
};

// --- presets ------------------------------------------------------

/**
 * The ideal single-tier equivalent of a legacy PsuSpec: efficiency
 * exactly 1, no taper, no aging — the plane that reproduces the
 * fixed-energy PowerRail bit for bit.
 */
StorageCellSpec legacyCell(const std::string &name, double joules,
                           double recharge_watts);

/** The legacy ATX unit (22 ms at 18.9 W) as an ideal cell. */
StorageCellSpec legacyAtxCell();

/** The legacy Dell server unit (55 ms at 18.9 W) as an ideal cell. */
StorageCellSpec legacyServerCell();

/** A realistic ATX bulk-capacitor tier (fast, small, lossy at load). */
StorageCellSpec atxBulkCell();

/** A supercap bank scaled to @p joules. */
StorageCellSpec supercapCell(double joules);

/** A LiFePO4 UPS tier scaled to @p joules (CC/CV, cycle aging). */
StorageCellSpec lifepo4Cell(double joules);

/**
 * The reference hierarchy: ATX bulk cap ⊕ supercap ⊕ LiFePO4 UPS
 * with every tier's capacity scaled by @p scale (the provisioning
 * axis energy campaigns sweep; scale 1.0 rates ~6.4 J total).
 */
EnergyConfig serverHierarchy(double scale);

} // namespace lightpc::energy

#endif // LIGHTPC_ENERGY_STORAGE_HH
