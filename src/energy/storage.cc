#include "energy/storage.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace lightpc::energy
{

// --- StorageCell --------------------------------------------------

StorageCell::StorageCell(const StorageCellSpec &spec) : _spec(spec)
{
    _soc = effectiveCapacityJoules();
}

double
StorageCell::effectiveCapacityJoules() const
{
    // endOfLifeFraction == 1.0 must short-circuit: the legacy ideal
    // cell's capacity may never pick up a `* 1.0` rounding term.
    if (_spec.endOfLifeFraction >= 1.0)
        return _spec.capacityJoules;
    const double wear =
        cyclesUsed() / static_cast<double>(_spec.ratedCycles);
    const double floor = _spec.endOfLifeFraction;
    const double frac = std::max(floor, 1.0 - (1.0 - floor) * wear);
    return _spec.capacityJoules * frac;
}

double
StorageCell::soc() const
{
    const double cap = effectiveCapacityJoules();
    return cap > 0.0 ? std::max(0.0, _soc) / cap : 0.0;
}

double
StorageCell::cyclesUsed() const
{
    return _spec.capacityJoules > 0.0
        ? _dischargedJoules / _spec.capacityJoules : 0.0;
}

double
StorageCell::efficiencyAt(double deliver_watts) const
{
    if (deliver_watts <= 0.0)
        return _spec.nominalEfficiency;
    return std::max(_spec.minEfficiency,
                    _spec.nominalEfficiency
                        - _spec.esrSlopePerWatt * deliver_watts);
}

double
StorageCell::drawWattsFor(double deliver_watts) const
{
    return deliver_watts / efficiencyAt(deliver_watts);
}

double
StorageCell::ticksDeliverable(double deliver_watts) const
{
    if (deliver_watts <= 0.0)
        return HUGE_VAL;
    const double draw = drawWattsFor(deliver_watts);
    // Exactly the legacy PowerRail expression (seconds first, then
    // ticks): an ideal tier reproduces its fail ticks bit for bit.
    const double seconds = _soc / draw;
    return seconds * static_cast<double>(tickSec);
}

void
StorageCell::deliver(double deliver_watts, Tick dt)
{
    if (deliver_watts <= 0.0 || dt == 0)
        return;
    const double draw = drawWattsFor(deliver_watts);
    const double used = draw * ticksToSec(dt);
    // No clamp: the legacy integrator lets a boundary segment leave
    // an epsilon-negative residue, and the fail-tick arithmetic
    // depends on reproducing it exactly.
    _soc -= used;
    _drawn += used;
    _dischargedJoules += used;
    _delivered += deliver_watts * ticksToSec(dt);
}

void
StorageCell::recharge(double budget_watts, Tick dt)
{
    const double rate = std::min(budget_watts, _spec.maxChargeWatts);
    if (rate <= 0.0 || dt == 0)
        return;
    const double cap = effectiveCapacityJoules();
    const double before = _soc;

    if (_spec.chargeTaperKnee >= 1.0) {
        // Pure constant-current, one-expression refill — identical
        // to the legacy `min(full, joules + recharge * dt)`.
        _soc = std::min(cap, _soc + rate * ticksToSec(dt));
        _recharged += _soc - before;
        return;
    }

    // CC up to the knee, then CV: acceptance decays linearly with
    // the remaining headroom, i.e. exponentially in time.
    const double knee = _spec.chargeTaperKnee * cap;
    double sec = ticksToSec(dt);
    if (_soc < knee) {
        const double to_knee = (knee - _soc) / rate;
        if (sec <= to_knee) {
            _soc += rate * sec;
            _recharged += _soc - before;
            return;
        }
        _soc = knee;
        sec -= to_knee;
    }
    const double span = cap - knee;
    if (span > 0.0 && _soc < cap) {
        const double headroom = cap - _soc;
        _soc = cap - headroom * std::exp(-rate * sec / span);
    }
    _soc = std::min(cap, _soc);
    _recharged += _soc - before;
}

void
StorageCell::setSocJoules(double joules)
{
    _soc = std::clamp(joules, 0.0, effectiveCapacityJoules());
}

void
StorageCell::applyAgingCycles(double cycles)
{
    if (cycles <= 0.0)
        return;
    _dischargedJoules += cycles * _spec.capacityJoules;
    _soc = std::min(_soc, effectiveCapacityJoules());
}

// --- validation ---------------------------------------------------

void
validateEnergyConfig(const EnergyConfig &config)
{
    if (config.tiers.empty())
        fatal("energy config: no storage tiers");
    for (const StorageCellSpec &tier : config.tiers) {
        if (tier.capacityJoules <= 0.0)
            fatal("energy config: tier '", tier.name,
                  "' capacity must be positive, got ",
                  tier.capacityJoules);
        if (tier.nominalEfficiency <= 0.0
            || tier.nominalEfficiency > 1.0)
            fatal("energy config: tier '", tier.name,
                  "' nominal efficiency ", tier.nominalEfficiency,
                  " outside (0, 1]");
        if (tier.minEfficiency <= 0.0 || tier.minEfficiency > 1.0)
            fatal("energy config: tier '", tier.name,
                  "' efficiency floor ", tier.minEfficiency,
                  " outside (0, 1]");
        if (tier.minEfficiency > tier.nominalEfficiency)
            fatal("energy config: tier '", tier.name,
                  "' efficiency floor above its nominal efficiency");
        if (tier.esrSlopePerWatt < 0.0)
            fatal("energy config: tier '", tier.name,
                  "' ESR slope must be non-negative");
        if (tier.maxChargeWatts < 0.0)
            fatal("energy config: tier '", tier.name,
                  "' charge acceptance must be non-negative");
        if (tier.chargeTaperKnee <= 0.0 || tier.chargeTaperKnee > 1.0)
            fatal("energy config: tier '", tier.name,
                  "' charge taper knee ", tier.chargeTaperKnee,
                  " outside (0, 1]");
        if (tier.ratedCycles == 0)
            fatal("energy config: tier '", tier.name,
                  "' rated cycle count must be nonzero");
        if (tier.endOfLifeFraction <= 0.0
            || tier.endOfLifeFraction > 1.0)
            fatal("energy config: tier '", tier.name,
                  "' end-of-life fraction ", tier.endOfLifeFraction,
                  " outside (0, 1]");
    }
    if (config.policy.chargerWatts < 0.0)
        fatal("energy config: charger input power must be "
              "non-negative");
}

// --- StoragePlane -------------------------------------------------

StoragePlane::StoragePlane(const EnergyConfig &config) : cfg(config)
{
    validateEnergyConfig(cfg);
    tiers.reserve(cfg.tiers.size());
    for (const StorageCellSpec &spec : cfg.tiers)
        tiers.emplace_back(spec);
}

StoragePlane
StoragePlane::unchecked(const EnergyConfig &config)
{
    StoragePlane plane;
    plane.cfg = config;
    plane.tiers.reserve(config.tiers.size());
    for (const StorageCellSpec &spec : config.tiers)
        plane.tiers.emplace_back(spec);
    return plane;
}

double
StoragePlane::totalCapacityJoules() const
{
    double joules = 0.0;
    for (const StorageCell &cell : tiers)
        joules += cell.spec().capacityJoules;
    return joules;
}

double
StoragePlane::totalEffectiveCapacityJoules() const
{
    double joules = 0.0;
    for (const StorageCell &cell : tiers)
        joules += cell.effectiveCapacityJoules();
    return joules;
}

double
StoragePlane::totalSocJoules() const
{
    double joules = 0.0;
    for (const StorageCell &cell : tiers)
        joules += cell.socJoules();
    return joules;
}

double
StoragePlane::soc() const
{
    const double cap = totalEffectiveCapacityJoules();
    return cap > 0.0 ? std::max(0.0, totalSocJoules()) / cap : 0.0;
}

double
StoragePlane::ticksDeliverable(double deliver_watts) const
{
    if (deliver_watts <= 0.0)
        return HUGE_VAL;
    double ticks = 0.0;
    for (const StorageCell &cell : tiers) {
        if (cell.socJoules() <= 0.0)
            continue;
        ticks += cell.ticksDeliverable(deliver_watts);
    }
    return ticks;
}

double
StoragePlane::deliverableJoules(double deliver_watts) const
{
    double joules = 0.0;
    for (const StorageCell &cell : tiers) {
        if (cell.socJoules() <= 0.0)
            continue;
        joules += cell.socJoules() * cell.efficiencyAt(deliver_watts);
    }
    return joules;
}

void
StoragePlane::deliver(double deliver_watts, Tick dt)
{
    if (deliver_watts <= 0.0 || dt == 0)
        return;
    Tick left = dt;
    for (std::size_t pos = 0; pos < tiers.size() && left > 0; ++pos) {
        StorageCell &cell = tiers[pos];
        if (cell.socJoules() <= 0.0)
            continue;
        const double sustain = cell.ticksDeliverable(deliver_watts);
        if (sustain >= static_cast<double>(left)) {
            // This tier carries the rest of the interval — for the
            // single-tier legacy plane, the only path ever taken.
            cell.deliver(deliver_watts, left);
            return;
        }
        const Tick held = static_cast<Tick>(std::max(0.0, sustain));
        cell.deliver(deliver_watts, held);
        cell.setSocJoules(0.0);
        left -= std::min(left, held);
    }
}

void
StoragePlane::recharge(Tick dt)
{
    if (dt == 0)
        return;
    double budget = cfg.policy.chargerWatts;
    const bool unlimited = budget <= 0.0;
    for (StorageCell &cell : tiers) {
        // Charge-terminated tiers release their allocation to the
        // rest of the chain (the controller switches that output
        // off); a full tier refilled by the legacy one-expression
        // path lands on exactly its capacity, so skipping it is
        // arithmetically identical.
        if (cell.socJoules() >= cell.effectiveCapacityJoules())
            continue;
        const double rate = unlimited
            ? cell.spec().maxChargeWatts
            : std::min(budget, cell.spec().maxChargeWatts);
        if (rate <= 0.0)
            continue;
        const double before = cell.socJoules();
        cell.recharge(rate, dt);
        if (!unlimited) {
            // The controller charges the budget for the power the
            // tier actually absorbed over the interval, so a tier
            // that fills (or tapers) early releases its surplus
            // down-chain instead of starving the deep tiers.
            budget -= (cell.socJoules() - before) / ticksToSec(dt);
            if (budget <= 0.0)
                break;
        }
    }
}

void
StoragePlane::applyAgingCycles(double cycles)
{
    for (StorageCell &cell : tiers)
        cell.applyAgingCycles(cycles);
}

void
StoragePlane::setTierSocJoules(std::size_t tier, double joules)
{
    if (tier >= tiers.size())
        fatal("energy plane: tier ", tier, " out of range");
    tiers[tier].setSocJoules(joules);
}

// --- presets ------------------------------------------------------

StorageCellSpec
legacyCell(const std::string &name, double joules,
           double recharge_watts)
{
    StorageCellSpec spec;
    spec.name = name;
    spec.capacityJoules = joules;
    spec.nominalEfficiency = 1.0;
    spec.esrSlopePerWatt = 0.0;
    spec.minEfficiency = 1.0;
    spec.maxChargeWatts = recharge_watts;
    spec.chargeTaperKnee = 1.0;
    spec.ratedCycles = 1'000'000'000ULL;
    spec.endOfLifeFraction = 1.0;
    return spec;
}

StorageCellSpec
legacyAtxCell()
{
    // 22 ms at the prototype's fully-utilized 18.9 W load — the
    // same compile-time product the fixed PsuSpec used, so the
    // derived storedJoules is the identical double.
    return legacyCell("ATX", 0.022 * 18.9, 25.0);
}

StorageCellSpec
legacyServerCell()
{
    return legacyCell("Server", 0.055 * 18.9, 60.0);
}

StorageCellSpec
atxBulkCell()
{
    StorageCellSpec spec;
    spec.name = "atx-bulk";
    spec.capacityJoules = 0.022 * 18.9;
    spec.nominalEfficiency = 0.97;
    spec.esrSlopePerWatt = 0.002;
    spec.minEfficiency = 0.80;
    spec.maxChargeWatts = 25.0;
    spec.chargeTaperKnee = 1.0;   // caps accept full current to full
    spec.ratedCycles = 200'000;
    spec.endOfLifeFraction = 0.90;
    return spec;
}

StorageCellSpec
supercapCell(double joules)
{
    StorageCellSpec spec;
    spec.name = "supercap";
    spec.capacityJoules = joules;
    spec.nominalEfficiency = 0.98;
    spec.esrSlopePerWatt = 0.001;
    spec.minEfficiency = 0.85;
    spec.maxChargeWatts = 40.0;
    spec.chargeTaperKnee = 0.95;
    spec.ratedCycles = 500'000;
    spec.endOfLifeFraction = 0.80;
    return spec;
}

StorageCellSpec
lifepo4Cell(double joules)
{
    StorageCellSpec spec;
    spec.name = "lifepo4";
    spec.capacityJoules = joules;
    spec.nominalEfficiency = 0.92;
    spec.esrSlopePerWatt = 0.004;
    spec.minEfficiency = 0.70;
    spec.maxChargeWatts = 15.0;
    spec.chargeTaperKnee = 0.80;  // CC/CV knee at 80 % SoC
    spec.ratedCycles = 2'000;
    spec.endOfLifeFraction = 0.80;
    return spec;
}

EnergyConfig
serverHierarchy(double scale)
{
    if (scale <= 0.0)
        fatal("energy hierarchy: scale must be positive, got ",
              scale);
    EnergyConfig config;
    // All three tiers ride the sizing axis: the provisioning sweep
    // asks how much total storage a design point buys, and a fixed
    // bulk-cap floor would hide the scales where an emergency dump
    // no longer fits the hold-up.
    StorageCellSpec bulk = atxBulkCell();
    bulk.capacityJoules *= scale;
    config.tiers.push_back(bulk);
    config.tiers.push_back(supercapCell(1.2 * scale));
    config.tiers.push_back(lifepo4Cell(4.8 * scale));
    config.policy.chargerWatts = 60.0;
    return config;
}

} // namespace lightpc::energy
