#include "pecos/energy_guard.hh"

#include <algorithm>

namespace lightpc::pecos
{

DrainEstimate
estimateStopDrain(const StopReport &dry, double all_cores_watts,
                  double master_only_watts, double offline_watts)
{
    DrainEstimate est;
    est.joules =
        all_cores_watts * ticksToSec(dry.processStopDone - dry.start)
        + master_only_watts
              * ticksToSec(dry.workerOfflineDone - dry.processStopDone)
        + offline_watts
              * ticksToSec(dry.commitAt - dry.workerOfflineDone);
    est.peakWatts = std::max(
        {all_cores_watts, master_only_watts, offline_watts});
    est.ticks = dry.commitAt - dry.start;
    return est;
}

AdmissionReport
EnergyGuard::admitStop() const
{
    using Guard = energy::GuardConfig;

    AdmissionReport rep;
    rep.socFraction = _plane.soc();
    rep.requiredJoules = Guard::drainMargin * _drain.joules;
    rep.deliverableJoules = _plane.deliverableJoules(_drain.peakWatts);

    const bool starved = rep.deliverableJoules < rep.requiredJoules;
    if (rep.socFraction >= Guard::deferSoc && !starved)
        return rep;

    rep.decision = StopAdmission::Defer;

    // Recharge-time hint: close both the energy shortfall and the
    // SoC gap to the defer threshold at the charger's CC rate. The
    // CV taper can stretch the real refill, so callers re-admit at
    // retryAfter instead of trusting it blindly.
    const double soc_gap =
        std::max(0.0, Guard::deferSoc - rep.socFraction)
        * _plane.totalEffectiveCapacityJoules();
    const double energy_gap = std::max(
        0.0, rep.requiredJoules - rep.deliverableJoules);
    const double shortfall = std::max(soc_gap, energy_gap);

    // Sustained acceptance: full tiers draw nothing, so the refill
    // rate is bounded by the tiers that still have headroom (and by
    // the charger, when it is the bottleneck).
    double acceptance = 0.0;
    for (const energy::StorageCell &cell : _plane.cells()) {
        if (cell.socJoules() < cell.effectiveCapacityJoules())
            acceptance += cell.spec().maxChargeWatts;
    }
    const double charger = _plane.config().policy.chargerWatts;
    const double rate =
        charger > 0.0 ? std::min(charger, acceptance) : acceptance;
    if (rate <= 0.0) {
        rep.retryAfter = maxTick;  // no charge path: deferred forever
        return rep;
    }

    const double ticks =
        shortfall / rate * static_cast<double>(tickSec);
    rep.retryAfter =
        ticks >= static_cast<double>(maxTick)
            ? maxTick
            : static_cast<Tick>(ticks) + 1;
    return rep;
}

bool
EnergyGuard::lowChargeWarning() const
{
    return _plane.soc() <= energy::GuardConfig::warnSoc;
}

} // namespace lightpc::pecos
