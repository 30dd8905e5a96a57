/**
 * @file
 * Power-rail droop model for fault-injection campaigns.
 *
 * PsuModel::holdupTime() answers "how long do the rails stay in
 * specification under a constant load?". During a real Stop the load
 * is anything but constant: Drive-to-Idle still runs every core hot,
 * Auto-Stop leaves only the master active, and the EP-cut runs from
 * the bootloader with the workers offlined. PowerRail integrates a
 * piecewise-constant load profile against the PSU's stored energy
 * and reports the exact tick the rails fall out of specification —
 * the power-cut tick a campaign arms on the store
 * (mem::BackingStore::armPowerCut).
 *
 * The energy source behind the rail is an energy::StoragePlane. A
 * rail built from a PsuModel wraps the spec in an ideal single-tier
 * plane whose arithmetic is bit-identical to the fixed-energy
 * integral it replaces; a rail built from an energy::StoragePlane
 * drains a heterogeneous hierarchy (ATX cap ⊕ supercap ⊕ battery)
 * through the same sag/cut semantics.
 */

#ifndef LIGHTPC_FAULT_POWER_RAIL_HH
#define LIGHTPC_FAULT_POWER_RAIL_HH

#include <vector>

#include "energy/storage.hh"
#include "power/psu.hh"
#include "sim/ticks.hh"

namespace lightpc::fault
{

/** One piecewise-constant load step: @p watts from @p at onwards. */
struct LoadStep
{
    Tick at = 0;
    double watts = 0.0;
};

/**
 * One mains sag (brownout): for [at, at + duration) the input stage
 * only covers @p supplyFraction of the platform load, and the bulk
 * capacitors make up the difference. 0.0 is a full outage, 1.0 no
 * sag at all.
 */
struct SagEvent
{
    Tick at = 0;
    Tick duration = 0;
    double supplyFraction = 0.0;
};

/** What a sequence of sags did to the reserve. */
struct SagOutcome
{
    bool railsFailed = false;  ///< reserve hit zero inside a sag
    Tick failTick = maxTick;   ///< the tick it hit zero
    Tick recoveredAt = 0;      ///< end of the last sag when survived
    double minJoules = 0.0;    ///< reserve low-water mark
};

/**
 * Integrates the platform load against the PSU's bulk-capacitor
 * energy after AC loss.
 */
class PowerRail
{
  public:
    /**
     * Legacy fixed-energy rail: wraps @p psu's spec in an ideal
     * single-tier storage plane (bit-identical drain/refill).
     *
     * @param initial_watts The load from tick 0 onwards.
     */
    PowerRail(const power::PsuModel &psu, double initial_watts);

    /**
     * A rail fed by an existing plane (carries its state of charge
     * and aging — the storm-survival path where a later cut meets a
     * partially recharged hierarchy).
     */
    PowerRail(const energy::StoragePlane &plane,
              double initial_watts);

    /**
     * Append a load change. Steps must be added in increasing @p at
     * order; a step at or before the previous one replaces it from
     * that point on.
     */
    void addStep(Tick at, double watts);

    /** The load drawn at tick @p t. */
    double loadAt(Tick t) const;

    /**
     * The tick the rails fall out of specification when AC is
     * removed at @p ac_loss. maxTick when the profile never drains
     * the stored energy (zero load).
     */
    Tick failTick(Tick ac_loss) const;

    /** Hold-up interval from @p ac_loss (failTick - ac_loss). */
    Tick
    holdupFrom(Tick ac_loss) const
    {
        const Tick fail = failTick(ac_loss);
        return fail == maxTick ? maxTick : fail - ac_loss;
    }

    /**
     * Energy the profile consumes between @p ac_loss and @p until,
     * ignoring the PSU's actual reserve (campaigns scale stored
     * energy against this integral to place cuts).
     */
    double energyUsedBy(Tick ac_loss, Tick until) const;

    /** The load profile, in increasing-tick order. */
    const std::vector<LoadStep> &profile() const { return steps; }

    // --- brownout (partial sag) model -----------------------------

    /**
     * Append a mains sag. Sags must be added in increasing @p at
     * order and must not overlap.
     */
    void addSag(Tick at, Tick duration, double supply_fraction);

    /**
     * Run the reserve through every registered sag. During a sag the
     * capacitors drain at load * (1 - supplyFraction); between sags
     * the AC input recharges them at the PSU's rechargeWatts, capped
     * at the full reserve. The rails fail the instant the reserve
     * reaches zero *strictly inside* a sag — a sag whose duration is
     * exactly the hold-up floor is the boundary case that just
     * barely survives (the supply returns the same instant the
     * reserve empties).
     */
    SagOutcome evaluateSags() const;

  private:
    energy::StoragePlane _plane;
    std::vector<LoadStep> steps;
    std::vector<SagEvent> _sags;
};

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_POWER_RAIL_HH
