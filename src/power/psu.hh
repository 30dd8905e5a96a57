/**
 * @file
 * Power supply unit hold-up model (Fig. 8a / Fig. 20).
 *
 * When AC is removed, the PSU's bulk capacitors keep the rails in
 * specification for the hold-up time; SnG must finish within it. The
 * hold-up time depends on the load: the paper measures 22 ms on a
 * standard ATX unit and 55 ms on a Dell server unit with the
 * processor fully utilized, both longer than the 16 ms the ATX
 * specification guarantees (which is what SnG is engineered
 * against).
 */

#ifndef LIGHTPC_POWER_PSU_HH
#define LIGHTPC_POWER_PSU_HH

#include <string>

#include "energy/storage.hh"
#include "sim/ticks.hh"

namespace lightpc::power
{

/** One PSU's stored-energy model. */
struct PsuSpec
{
    std::string name;

    /** Usable energy in the bulk capacitors at nominal rail droop. */
    double storedJoules = 0.0;

    /** The load at which the vendor/measured hold-up was taken. */
    double referenceLoadWatts = 0.0;

    /** Hold-up time documented by the relevant specification. */
    Tick specHoldup = 0;

    /**
     * Recharge rate of the bulk capacitors while AC is present (the
     * inrush/PFC stage limits it). Brownout models use it to refill
     * the reserve between sags; 0 keeps the reserve frozen.
     */
    double rechargeWatts = 0.0;

    /**
     * Derive a fixed-energy spec from a storage cell: the usable
     * energy is the cell's rated capacity scaled by its discharge
     * efficiency at the reference load, and the refill rate is its
     * charge acceptance. The legacy 22/55 ms hold-up constants come
     * out of the ideal legacy cells bit-for-bit (efficiency exactly
     * 1), so campaigns built on the old fixed budgets renumber
     * nothing.
     */
    static PsuSpec
    fromStorage(const energy::StorageCellSpec &cell,
                double reference_load_watts, Tick spec_holdup)
    {
        const energy::StorageCell fresh(cell);
        PsuSpec spec;
        spec.name = cell.name;
        spec.storedJoules = cell.capacityJoules
            * fresh.efficiencyAt(reference_load_watts);
        spec.referenceLoadWatts = reference_load_watts;
        spec.specHoldup = spec_holdup;
        spec.rechargeWatts = cell.maxChargeWatts;
        return spec;
    }
};

/**
 * PSU hold-up calculator.
 */
class PsuModel
{
  public:
    explicit PsuModel(const PsuSpec &spec) : _spec(spec) {}

    const PsuSpec &spec() const { return _spec; }

    /** Hold-up time at @p loadWatts. */
    Tick
    holdupTime(double load_watts) const
    {
        if (load_watts <= 0.0)
            return maxTick;
        const double seconds = _spec.storedJoules / load_watts;
        return static_cast<Tick>(seconds
                                 * static_cast<double>(tickSec));
    }

    /**
     * The standard ATX unit (Super Flower SF-600R12A class):
     * measured 22 ms hold-up fully loaded, 16 ms per specification.
     */
    static PsuModel
    atx()
    {
        // 22 ms at the prototype's fully-utilized 18.9 W load; the
        // PFC stage refills the bulk caps in tens of milliseconds
        // once AC returns. Derived through the ideal storage cell —
        // the same 0.022 * 18.9 J of usable energy as ever.
        return PsuModel(PsuSpec::fromStorage(
            energy::legacyAtxCell(), 18.9, 16 * tickMs));
    }

    /** The Dell server unit: measured 55 ms fully loaded. */
    static PsuModel
    dellServer()
    {
        return PsuModel(PsuSpec::fromStorage(
            energy::legacyServerCell(), 18.9, 55 * tickMs));
    }

  private:
    PsuSpec _spec;
};

} // namespace lightpc::power

#endif // LIGHTPC_POWER_PSU_HH
