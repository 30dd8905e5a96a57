#include "fault/power_rail.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lightpc::fault
{

namespace
{

/** The ideal single-tier plane equivalent to a fixed PsuSpec. */
energy::EnergyConfig
legacyPlaneConfig(const power::PsuSpec &spec)
{
    energy::EnergyConfig config;
    config.tiers.push_back(energy::legacyCell(
        spec.name, spec.storedJoules, spec.rechargeWatts));
    config.policy.chargerWatts = spec.rechargeWatts;
    return config;
}

} // namespace

PowerRail::PowerRail(const power::PsuModel &psu, double initial_watts)
    : _plane(energy::StoragePlane::unchecked(
          legacyPlaneConfig(psu.spec())))
{
    steps.push_back({0, initial_watts});
}

PowerRail::PowerRail(const energy::StoragePlane &plane,
                     double initial_watts)
    : _plane(plane)
{
    steps.push_back({0, initial_watts});
}

void
PowerRail::addStep(Tick at, double watts)
{
    // Replace any step at or after `at` (profiles are rebuilt from
    // phase boundaries; out-of-order inserts are a caller bug except
    // for exact-tick replacement).
    while (!steps.empty() && steps.back().at >= at)
        steps.pop_back();
    if (steps.empty() && at != 0)
        fatal("PowerRail profile must start at tick 0");
    steps.push_back({at, watts});
}

double
PowerRail::loadAt(Tick t) const
{
    double watts = steps.front().watts;
    for (const LoadStep &step : steps) {
        if (step.at > t)
            break;
        watts = step.watts;
    }
    return watts;
}

double
PowerRail::energyUsedBy(Tick ac_loss, Tick until) const
{
    double joules = 0.0;
    Tick t = ac_loss;
    for (std::size_t i = 0; i < steps.size() && t < until; ++i) {
        const Tick seg_end = std::min(
            until, i + 1 < steps.size() ? steps[i + 1].at : maxTick);
        if (seg_end <= t)
            continue;
        joules += steps[i].watts * ticksToSec(seg_end - t);
        t = seg_end;
    }
    return joules;
}

Tick
PowerRail::failTick(Tick ac_loss) const
{
    energy::StoragePlane reserve = _plane;
    if (reserve.totalSocJoules() <= 0.0)
        return ac_loss;

    Tick t = ac_loss;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Tick seg_end =
            i + 1 < steps.size() ? steps[i + 1].at : maxTick;
        if (seg_end <= t)
            continue;

        const double watts = steps[i].watts;
        if (watts <= 0.0) {
            if (seg_end == maxTick)
                return maxTick;  // the residual charge never drains
            t = seg_end;
            continue;
        }

        const double ticks_left = reserve.ticksDeliverable(watts);
        const double seg_ticks = static_cast<double>(seg_end - t);
        if (ticks_left < seg_ticks)
            return t + static_cast<Tick>(ticks_left);

        reserve.deliver(watts, seg_end - t);
        t = seg_end;
    }
    return t;
}

void
PowerRail::addSag(Tick at, Tick duration, double supply_fraction)
{
    if (!_sags.empty()
        && at < _sags.back().at + _sags.back().duration)
        fatal("sags must be added in order and must not overlap");
    if (supply_fraction < 0.0 || supply_fraction > 1.0)
        fatal("sag supply fraction must be within [0, 1]");
    _sags.push_back({at, duration, supply_fraction});
}

SagOutcome
PowerRail::evaluateSags() const
{
    energy::StoragePlane reserve = _plane;

    SagOutcome out;
    out.minJoules = reserve.totalSocJoules();

    Tick prev_end = 0;
    for (const SagEvent &sag : _sags) {
        // AC is nominal between sags: refill through the charge
        // controller, capped at each tier's capacity. Adjacent sags
        // (sag.at == prev_end) accrue no credit — the input stage
        // never saw nominal AC between them.
        if (sag.at > prev_end)
            reserve.recharge(sag.at - prev_end);

        // Drain through the sag, segmented by the load profile.
        const Tick sag_end = sag.at + sag.duration;
        Tick t = sag.at;
        for (std::size_t i = 0; i < steps.size() && t < sag_end;
             ++i) {
            const Tick seg_end = std::min(
                sag_end,
                i + 1 < steps.size() ? steps[i + 1].at : maxTick);
            if (seg_end <= t)
                continue;

            const double drain =
                steps[i].watts * (1.0 - sag.supplyFraction);
            if (drain <= 0.0) {
                t = seg_end;
                continue;
            }

            const double ticks_left = reserve.ticksDeliverable(drain);
            const double seg_ticks = static_cast<double>(seg_end - t);
            if (ticks_left < seg_ticks) {
                out.railsFailed = true;
                out.failTick = t + static_cast<Tick>(ticks_left);
                out.minJoules = 0.0;
                return out;
            }
            reserve.deliver(drain, seg_end - t);
            t = seg_end;
        }

        out.minJoules =
            std::min(out.minJoules, reserve.totalSocJoules());
        prev_end = sag_end;
    }
    out.recoveredAt = prev_end;
    return out;
}

} // namespace lightpc::fault
