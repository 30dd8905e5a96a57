#include "fault/energy_campaign.hh"

#include <algorithm>
#include <cmath>

#include "energy/storage.hh"
#include "fault/persist_probe.hh"
#include "fault/power_rail.hh"
#include "pecos/energy_guard.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/trial_grid.hh"

namespace lightpc::fault
{

const stats::CounterSet<EnergyCellStats> &
energyCounters()
{
    using R = EnergyCellStats;
    using stats::counter;
    static const stats::CounterSet<R> set(
        counter<&R::trials>("trials"),
        counter<&R::cuts>("cuts"),
        counter<&R::commitsDurable>("commits_durable"),
        counter<&R::resumes>("resumes"),
        counter<&R::coldBoots>("cold_boots"),
        counter<&R::survivedTrials>("survived"),
        counter<&R::stopsDeferred>("stops_deferred"),
        counter<&R::deferredStopsAdmitted>("deferred_stops_admitted"),
        counter<&R::proactiveStops>("proactive_stops"),
        counter<&R::proactiveSaves>("proactive_saves"),
        counter<&R::violations>("violations"),
        counter<&R::minSocPermille>("min_soc_permille",
                                    stats::Fold::Min));
    return set;
}

namespace
{

// Emergency-persist footprints. Unlike the commit-window campaigns
// (which scale their cut windows off the dump length and can use
// small images), the provisioning question is absolute: the
// checkpointing baselines must land a *machine-sized* image on AC
// loss, while Stop-and-Go persists only the bounded CPU/device
// state — that asymmetry is the headline.
constexpr std::uint64_t sysPcDumpBytes = 48 << 20;
constexpr std::uint64_t sCheckVmBytes = 24 << 20;

// A-CheckPC's AC-loss action: a sweep of per-function captures
// covering the dirty footprint, each body + fence + ledger record.
constexpr std::uint64_t acheckSweep = 96;
constexpr Tick acheckThink = 20 * tickUs;

// Pending op-log tail at the outage (un-acked until logCommit).
constexpr std::uint64_t oplogPuts = 12;
constexpr std::uint64_t oplogKeys = 4;

/** Post-commit trickle: the halted machine's retention load. */
constexpr double haltWatts = 0.2;

/** One mode's outage-relative load profile and commit deadline. */
struct ModeDry
{
    std::vector<LoadStep> steps;
    Tick commitLen = 0;  ///< durable iff the rails outlive this
};

/** Everything the trials share, computed once per campaign. */
struct DryData
{
    double busyWatts = 0.0;
    std::uint32_t cores = 0;
    std::uint32_t dimms = 0;
    Tick oplogLen = 0;  ///< emergency group-commit duration
    pecos::DrainEstimate sngDrain;
    pecos::DrainEstimate oplogDrain;
    ModeDry mode[5];
};

std::size_t
modeOrd(net::PersistMode mode)
{
    return static_cast<std::size_t>(mode);
}

bool
guardMode(net::PersistMode mode)
{
    return mode == net::PersistMode::SnG
        || mode == net::PersistMode::OpLog;
}

DryData
buildDry()
{
    const power::PowerModel power_model;
    DryData dry;

    // SnG phase boundaries (deterministic construction: every
    // trial's Stop timeline is identical to this one).
    pecos::StopReport stop;
    {
        SngRig rig;
        stop = rig.sng.stop(0);
        dry.cores = rig.kern.cores();
        dry.dimms = rig.psm.params().dimms;
    }
    const double w_all =
        phaseWatts(power_model, dry.cores, 0, dry.dimms);
    const double w_master =
        phaseWatts(power_model, 1, dry.cores - 1, dry.dimms);
    const double w_offline = phaseWatts(power_model, 1, 0, dry.dimms);
    dry.busyWatts = w_all;

    ModeDry &sng_md = dry.mode[modeOrd(net::PersistMode::SnG)];
    sng_md.steps = {{0, w_all},
                    {stop.processStopDone, w_master},
                    {stop.workerOfflineDone, w_offline},
                    {stop.commitAt, haltWatts}};
    sng_md.commitLen = stop.commitAt;
    dry.sngDrain =
        pecos::estimateStopDrain(stop, w_all, w_master, w_offline);

    // SnG + op-log: an emergency group commit of the pending tail
    // runs at full load before the Stop begins.
    {
        ImageRig rig;
        net::KvService svc(rig.store, rig.pmem, oplogKvParams(8));
        Tick t = 0;
        for (std::uint64_t p = 1; p <= oplogPuts; ++p)
            svc.execute(t, oplogPutReq(p, 1 + (p - 1) % oplogKeys, p));
        const Tick prep = t;
        svc.logCommit(t);
        dry.oplogLen = t - prep;
    }
    ModeDry &oplog_md = dry.mode[modeOrd(net::PersistMode::OpLog)];
    oplog_md.steps = {{0, w_all},
                      {dry.oplogLen + stop.processStopDone, w_master},
                      {dry.oplogLen + stop.workerOfflineDone,
                       w_offline},
                      {dry.oplogLen + stop.commitAt, haltWatts}};
    oplog_md.commitLen = dry.oplogLen + stop.commitAt;
    dry.oplogDrain = dry.sngDrain;
    dry.oplogDrain.joules += w_all * ticksToSec(dry.oplogLen);
    dry.oplogDrain.ticks += dry.oplogLen;

    // The checkpoint baselines: every core runs flat out until the
    // final commit lands (SysPC's hibernate image over a base image,
    // S-CheckPC's BLCR-style dump, A-CheckPC's decorator sweep).
    const DumpWindows syspc = imageWindows(sysPcRun(true, sysPcDumpBytes));
    const DumpWindows scheck =
        imageWindows(sCheckPcRun(1, sCheckVmBytes, tickMs));
    const std::pair<net::PersistMode, Tick> images[] = {
        {net::PersistMode::SysPc, syspc.commitAt - syspc.ac},
        {net::PersistMode::SCheckPc, scheck.commitAt - scheck.ac},
        {net::PersistMode::ACheckPc,
         aCheckPcLastCommit(acheckSweep, acheckThink)},
    };
    for (const auto &[mode, commit_len] : images) {
        ModeDry &md = dry.mode[modeOrd(mode)];
        md.commitLen = commit_len;
        md.steps = {{0, w_all}, {commit_len, haltWatts}};
    }

    return dry;
}

Tick
toTick(double ticks)
{
    if (!(ticks > 0.0))
        return 0;
    if (ticks >= static_cast<double>(maxTick))
        return maxTick;
    return static_cast<Tick>(ticks);
}

/** Rail fail tick of @p plane under @p md's outage profile. */
Tick
cutOffset(const ModeDry &md, const energy::StoragePlane &plane)
{
    PowerRail rail(plane, md.steps.front().watts);
    for (std::size_t i = 1; i < md.steps.size(); ++i)
        rail.addStep(md.steps[i].at, md.steps[i].watts);
    return rail.failTick(0);
}

/**
 * Rail fail tick when the outage profile runs *inside a sag* for its
 * first @p rest ticks: the plane only covers the (1 - supply)
 * deficit until the sag deepens into the full outage.
 */
Tick
sagCutOffset(const ModeDry &md, const energy::StoragePlane &plane,
             double supply_fraction, Tick rest)
{
    std::vector<LoadStep> steps;
    double last_watts = md.steps.front().watts;
    for (const LoadStep &step : md.steps) {
        if (step.at < rest) {
            steps.push_back(
                {step.at, step.watts * (1.0 - supply_fraction)});
            last_watts = step.watts;
        }
    }
    steps.push_back({rest, last_watts});
    for (const LoadStep &step : md.steps) {
        if (step.at > rest)
            steps.push_back(step);
        else if (step.at == rest)
            steps.back().watts = step.watts;
    }
    PowerRail rail(plane, steps.front().watts);
    for (std::size_t i = 1; i < steps.size(); ++i)
        rail.addStep(steps[i].at, steps[i].watts);
    return rail.failTick(0);
}

/** Drain @p plane along @p steps from tick 0 until @p until. */
void
deliverProfile(energy::StoragePlane &plane,
               const std::vector<LoadStep> &steps, Tick until)
{
    Tick t = 0;
    for (std::size_t i = 0; i < steps.size() && t < until; ++i) {
        const Tick seg_end = std::min(
            until, i + 1 < steps.size() ? steps[i + 1].at : maxTick);
        if (seg_end <= t)
            continue;
        if (steps[i].watts > 0.0)
            plane.deliver(steps[i].watts, seg_end - t);
        t = seg_end;
    }
}

void
zeroPlane(energy::StoragePlane &plane)
{
    for (std::size_t i = 0; i < plane.cells().size(); ++i)
        plane.setTierSocJoules(i, 0.0);
}

void
recordMinSoc(EnergyCellStats &cell, const energy::StoragePlane &plane)
{
    const double soc = std::clamp(plane.soc(), 0.0, 1.0);
    cell.minSocPermille =
        std::min(cell.minSocPermille,
                 static_cast<std::uint64_t>(soc * 1000.0));
}

/** One trial's counters and its violation notes. */
struct EnergyTrial : EnergyCellStats
{
    std::vector<std::string> violationNotes;
};

/**
 * SnG + op-log: the pending tail's emergency group commit runs
 * first, then the Stop rides whatever hold-up is left. Losing the
 * (un-acked) tail is legal; losing machine state is not. Returns the
 * Stop's cut tick.
 */
Tick
oplogEmergencyCommit(Tick cut, Rng &rng)
{
    ImageRig rig;
    net::KvService svc(rig.store, rig.pmem, oplogKvParams(8));
    Tick t = 0;
    for (std::uint64_t p = 1; p <= oplogPuts; ++p)
        svc.execute(t,
                    oplogPutReq(p, 1 + (p - 1) % oplogKeys,
                                rng.next()));
    const Tick prep = t;
    rig.store.armPowerCut(prep + cut, rng.next());
    svc.logCommit(t);
    const Tick spent = t - prep;
    return cut > spent ? cut - spent : 1;
}

/**
 * One emergency persist in @p mode racing rails that fail @p cut
 * ticks into the outage. Counts the commit/resume outcome; true when
 * the latest state committed and came back intact.
 */
bool
persistEvent(net::PersistMode mode, Tick cut, Rng &rng,
             EnergyTrial &cell)
{
    std::uint64_t &violations = cell.violations;
    std::vector<std::string> &notes = cell.violationNotes;
    const auto after_ac = [cut](Tick ac) { return ac + cut; };

    ProbeOutcome out;
    switch (mode) {
    case net::PersistMode::SnG:
        out = probeSng(cut, rng, violations, notes);
        break;
    case net::PersistMode::OpLog:
        out = probeSng(oplogEmergencyCommit(cut, rng), rng, violations,
                       notes);
        break;
    case net::PersistMode::SysPc:
        out = probeImage(sysPcRun(true, sysPcDumpBytes), rng, after_ac,
                         violations, notes);
        break;
    case net::PersistMode::SCheckPc:
        out = probeImage(sCheckPcRun(1, sCheckVmBytes, tickMs), rng,
                         after_ac, violations, notes);
        break;
    case net::PersistMode::ACheckPc:
        out = probeACheckPc(acheckSweep, acheckThink, cut, rng,
                            violations, notes);
        break;
    }
    if (out.durable)
        ++cell.commitsDurable;
    out.resumed ? ++cell.resumes : ++cell.coldBoots;
    return out.durable && out.intact;
}

/**
 * One full outage against the plane's current charge: the rails die
 * at the profile's fail tick and the plane is fully spent.
 */
bool
runOutageEvent(net::PersistMode mode, const DryData &dry,
               energy::StoragePlane &plane, Rng &rng,
               EnergyTrial &cell)
{
    recordMinSoc(cell, plane);
    const Tick off = std::max<Tick>(
        cutOffset(dry.mode[modeOrd(mode)], plane), 1);

    const bool survived = persistEvent(mode, off, rng, cell);
    ++cell.cuts;
    zeroPlane(plane);
    return survived;
}

/**
 * A mid-storm planned power-down gated by the EnergyGuard: deferred
 * while the half-charged plane cannot carry the Stop, retried as the
 * charger closes the shortfall, and — once admitted — raced against
 * the real rail fail tick (an admitted Stop that misses its commit
 * is a guard bug and flags a violation). Consumes @p gap ticks of
 * the recovery window.
 */
void
voluntaryAttempt(const DryData &dry, energy::StoragePlane &plane,
                 Rng &rng, EnergyTrial &cell, Tick gap,
                 const pecos::DrainEstimate &drain)
{
    const ModeDry &md = dry.mode[modeOrd(net::PersistMode::SnG)];

    bool was_deferred = false;
    Tick elapsed = 0;
    for (int attempt = 0; attempt < 6; ++attempt) {
        pecos::EnergyGuard guard(plane, drain);

        SngRig rig;
        rig.sng.bindEnergyGuard(&guard);

        const Tick off = std::max<Tick>(cutOffset(md, plane), 1);
        rig.store.armPowerCut(off, rng.next());

        const pecos::StopReport rep = rig.sng.stopVoluntary(0);
        if (rep.deferred) {
            ++cell.stopsDeferred;
            was_deferred = true;
            Tick wait = rep.retryAt == 0 ? tickMs : rep.retryAt;
            const Tick remaining = gap - elapsed;
            if (wait >= remaining) {
                // The storm window closes before the charger can
                // cover the Stop: stay deferred, keep recharging.
                elapsed = gap;
                plane.recharge(remaining);
                break;
            }
            plane.recharge(wait);
            elapsed += wait;
            continue;
        }

        if (was_deferred)
            ++cell.deferredStopsAdmitted;
        if (rep.commitFailed) {
            stats::flagViolation(cell, "energy guard admitted a Stop at "
                                 "soc ", rep.socAtStop, " whose commit "
                                 "missed the rails (cut@", off, ")");
        } else {
            ++cell.commitsDurable;
        }
        // The planned power-down rides the plane to the commit.
        deliverProfile(plane, md.steps, rep.commitAt);
        break;
    }
    if (elapsed < gap)
        plane.recharge(gap - elapsed);
}

/** Intensity 2: a three-cut storm with charge-limited gaps. */
bool
runStorm(net::PersistMode mode, const DryData &dry,
         energy::StoragePlane &plane, Rng &sched, Rng &mode_rng,
         EnergyTrial &cell)
{
    const double h0 = plane.ticksDeliverable(dry.busyWatts);
    bool all = true;
    for (int event = 0; event < 3; ++event) {
        const bool s =
            runOutageEvent(mode, dry, plane, mode_rng, cell);
        all = all && s;
        if (event == 2)
            break;
        // Charge-limited recovery gap before the next strike.
        const double frac = 0.35 + 0.60 * sched.uniform();
        const Tick gap = std::max<Tick>(toTick(h0 * frac), 1);
        if (guardMode(mode)) {
            // Attempt the planned power-down early in the window:
            // the barely-recharged plane defers, the charger closes
            // the shortfall, and the retry admits.
            const Tick lead = gap / 8;
            plane.recharge(lead);
            const pecos::DrainEstimate &drain =
                mode == net::PersistMode::OpLog ? dry.oplogDrain
                                                : dry.sngDrain;
            voluntaryAttempt(dry, plane, mode_rng, cell, gap - lead,
                             drain);
        } else {
            plane.recharge(gap);
        }
    }
    return all;
}

/**
 * Intensity 3: a brownout siege — a deep sag drains the plane until
 * it deepens into a full outage. Guarded modes fire the proactive
 * EP-cut at the low-charge warning; the in-trial counterfactual
 * (ride the sag to its end, then emergency-persist) decides whether
 * that saved the machine.
 */
bool
runSiege(net::PersistMode mode, const DryData &dry,
         energy::StoragePlane &plane, Rng &sched, Rng &mode_rng,
         EnergyTrial &cell)
{
    const ModeDry &md = dry.mode[modeOrd(mode)];

    const double supply = 0.35 + 0.30 * sched.uniform();
    const double drain_watts = dry.busyWatts * (1.0 - supply);
    const double to_warn =
        plane.ticksDeliverable(drain_watts) * 0.8;
    const Tick sag_len =
        std::max<Tick>(toTick(to_warn * (0.85 + 0.50
                                         * sched.uniform())),
                       1);

    const pecos::DrainEstimate &drain =
        mode == net::PersistMode::OpLog ? dry.oplogDrain
                                        : dry.sngDrain;
    const bool guarded = guardMode(mode);
    pecos::EnergyGuard guard(plane, drain);

    Tick t = 0;
    while (t < sag_len) {
        const Tick step = std::min<Tick>(tickMs, sag_len - t);
        if (plane.ticksDeliverable(drain_watts)
            < static_cast<double>(step)) {
            // The reserve dies inside the sag: rails fail with
            // nothing persisted.
            recordMinSoc(cell, plane);
            zeroPlane(plane);
            ++cell.cuts;
            ++cell.coldBoots;
            return false;
        }
        plane.deliver(drain_watts, step);
        t += step;
        if (guarded && guard.lowChargeWarning())
            break;
    }

    if (guarded && t < sag_len) {
        // Low-charge warning: persist *now*, on the remaining
        // charge, instead of racing a dead plane at the real cut.
        ++cell.proactiveStops;
        recordMinSoc(cell, plane);

        // Counterfactual: ride the sag to its end, then
        // emergency-persist with whatever is left.
        energy::StoragePlane counterfactual = plane;
        const Tick rest = sag_len - t;
        bool cf_commits = false;
        if (counterfactual.ticksDeliverable(drain_watts)
            >= static_cast<double>(rest)) {
            counterfactual.deliver(drain_watts, rest);
            cf_commits =
                cutOffset(md, counterfactual) > md.commitLen;
        }

        const Tick off = std::max<Tick>(
            sagCutOffset(md, plane, supply, rest), 1);
        const bool survived = persistEvent(mode, off, mode_rng, cell);
        ++cell.cuts;
        zeroPlane(plane);
        if (survived && !cf_commits)
            ++cell.proactiveSaves;
        return survived;
    }

    // The sag deepens into the outage with the plane run down.
    return runOutageEvent(mode, dry, plane, mode_rng, cell);
}

std::uint64_t
campaignBaseSeed(const EnergyCampaignConfig &config)
{
    std::uint64_t h = 0xcbf29ce484222325ULL ^ config.seed;
    for (const char c : std::string("energy-plane"))
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

/** Scale-major, then intensity, then mode, then seed. */
stats::TrialGrid<4>
energyGrid(const EnergyCampaignConfig &config)
{
    return {{config.sizingScales.size(), config.intensities.size(),
             config.modes.size(), config.seedsPerCell}};
}

/** Trial @p index: one aged plane facing its cell's outage. */
EnergyTrial
runTrial(const EnergyCampaignConfig &config, const DryData &dry,
         std::uint64_t index)
{
    const auto [s, iv, m, k] = energyGrid(config).decode(index);
    const net::PersistMode mode = config.modes[m];

    // Mode-independent stream: every mode faces the same machine aging
    // and the same outage schedule (paired comparison across the
    // provisioning sweep).
    const std::uint64_t base_seed = campaignBaseSeed(config);
    const std::uint64_t column = stats::streamColumn(s, iv, k);
    Rng sched(Rng::streamSeed(base_seed, column));
    Rng mode_rng(Rng::streamSeed(base_seed ^ modeSalt(mode), column));

    energy::StoragePlane plane(
        energy::serverHierarchy(config.sizingScales[s]));
    plane.applyAgingCycles(sched.uniform() * config.agingSpreadCycles);

    EnergyTrial trial;
    bool survived = false;
    switch (config.intensities[iv]) {
    case 1:
        survived = runOutageEvent(mode, dry, plane, mode_rng, trial);
        break;
    case 2:
        survived = runStorm(mode, dry, plane, sched, mode_rng, trial);
        break;
    case 3:
        survived = runSiege(mode, dry, plane, sched, mode_rng, trial);
        break;
    default: break;
    }
    ++trial.trials;
    if (survived)
        ++trial.survivedTrials;
    return trial;
}

} // namespace

void
validateEnergyCampaignConfig(const EnergyCampaignConfig &config)
{
    if (config.sizingScales.empty())
        fatal("energy campaign: no sizing scales");
    double prev = 0.0;
    for (const double scale : config.sizingScales) {
        if (!(scale > 0.0))
            fatal("energy campaign: sizing scale must be positive, "
                  "got ", scale);
        if (scale <= prev)
            fatal("energy campaign: sizing scales must be strictly "
                  "increasing");
        prev = scale;
    }
    if (config.modes.empty())
        fatal("energy campaign: no persistence modes");
    if (config.intensities.empty())
        fatal("energy campaign: no intensities");
    for (const std::uint32_t intensity : config.intensities) {
        if (intensity < 1 || intensity > 3)
            fatal("energy campaign: intensity ", intensity,
                  " outside [1, 3]");
    }
    if (config.seedsPerCell == 0)
        fatal("energy campaign: seedsPerCell must be >= 1");
    stats::checkStreamColumn("energy campaign", energyGrid(config));
    if (config.agingSpreadCycles < 0.0
        || !std::isfinite(config.agingSpreadCycles))
        fatal("energy campaign: agingSpreadCycles must be finite "
              "and non-negative");
}

std::uint64_t
energyCampaignTrials(const EnergyCampaignConfig &config)
{
    return energyGrid(config).trials();
}

EnergyCampaignResult
runEnergyCampaign(const EnergyCampaignConfig &config)
{
    validateEnergyCampaignConfig(config);

    const DryData dry = buildDry();
    const stats::TrialGrid<4> grid = energyGrid(config);

    // The result's cells carry the cell metadata; trials only add
    // counters.
    EnergyCampaignResult result;
    result.cells.resize(grid.cells());
    for (std::uint64_t c = 0; c < grid.cells(); ++c) {
        const auto [s, iv, m, k] = grid.cellAt(c);
        EnergyCellStats &cell = result.cells[c];
        cell.scale = config.sizingScales[s];
        cell.provisionedJoules =
            energy::StoragePlane(energy::serverHierarchy(cell.scale))
                .totalCapacityJoules();
        cell.mode = config.modes[m];
        cell.intensity = config.intensities[iv];
    }

    stats::runGrid(
        energyCounters(), config.threads, grid,
        [&config, &dry](std::uint64_t i) {
            return runTrial(config, dry, i);
        },
        stats::GridFold{result.total, result.violationNotes,
                        &result.cells},
        [&result, &grid](std::uint64_t i) {
            const EnergyCellStats &cell = result.cells[grid.cellOf(i)];
            return stats::streamed("scale ", cell.scale, " intensity ",
                                   cell.intensity, " ",
                                   net::persistModeName(cell.mode));
        });

    // The minimum-provisioning table, modes-major. Cells come
    // scale-major, so the first cell of a (mode, intensity) that
    // survived every trial has the smallest such scale.
    const std::size_t n_ints = config.intensities.size();
    result.provisioning.resize(config.modes.size() * n_ints);
    for (std::uint64_t c = 0; c < grid.cells(); ++c) {
        const auto [s, iv, m, k] = grid.cellAt(c);
        const EnergyCellStats &cell = result.cells[c];
        EnergyProvision &prov = result.provisioning[m * n_ints + iv];
        prov.mode = cell.mode;
        prov.intensity = cell.intensity;
        if (!prov.met && cell.trials > 0
            && cell.survivedTrials == cell.trials) {
            prov.met = true;
            prov.scale = cell.scale;
            prov.joules = cell.provisionedJoules;
        }
    }

    sim::Fnv64 digest;
    for (const EnergyCellStats &cell : result.cells)
        energyCounters().mix(digest, cell);
    for (const EnergyProvision &prov : result.provisioning) {
        digest.mix(prov.met ? 1 : 0);
        digest.mix(static_cast<std::uint64_t>(prov.scale * 1000.0));
    }
    result.digest = digest.h;
    return result;
}

} // namespace lightpc::fault
