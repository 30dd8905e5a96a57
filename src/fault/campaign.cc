#include "fault/campaign.hh"

#include <algorithm>

#include "fault/persist_probe.hh"
#include "fault/power_rail.hh"
#include "sim/digest.hh"
#include "sim/rng.hh"
#include "stats/trial_grid.hh"

namespace lightpc::fault
{

const char *
cutPhaseName(CutPhase phase)
{
    switch (phase) {
      case CutPhase::ProcessStop: return "process-stop";
      case CutPhase::DeviceStop: return "device-stop";
      case CutPhase::EpCut: return "ep-cut";
      case CutPhase::PostCommit: return "post-commit";
      case CutPhase::MidDump: return "mid-dump";
      case CutPhase::CommitWindow: return "commit-window";
      case CutPhase::Count: break;
    }
    return "?";
}

const stats::CounterSet<CampaignResult> &
campaignCounters()
{
    using R = CampaignResult;
    using stats::counter;
    static const stats::CounterSet<R> set(
        counter<&R::cuts>("cuts"),
        stats::histogram<&R::phaseCuts>(
            "phase_cuts",
            [](std::size_t p) { return cutPhaseName(CutPhase(p)); }),
        counter<&R::resumes>("resumes"),
        counter<&R::coldBoots>("cold_boots"),
        counter<&R::droppedWrites>("dropped_writes"),
        counter<&R::tornWrites>("torn_writes"),
        counter<&R::violations>("violations"));
    return set;
}

namespace
{

// Emergency-persist footprints. The cut windows scale off each dump's
// length, so small images reach every window.
constexpr std::uint64_t sysPcDumpBytes = 8 << 20;
constexpr std::uint64_t sCheckVmBytes = 6 << 20;
constexpr std::uint64_t aCheckCaptures = 6;
constexpr Tick aCheckThink = 200 * tickUs;

// The op-log campaign workload: enough PUTs to wrap a deliberately
// tiny ring several times (forcing stall drains), spread over few
// enough keys that every key sees multiple versions.
constexpr std::uint64_t oplogPuts = 32;
constexpr std::uint64_t oplogKeys = 8;

/** Hibernate and BLCR dumps run every core flat out. */
double
dumpWatts()
{
    return phaseWatts(power::PowerModel(), kernel::KernelParams().cores,
                      0, psm::PsmParams().dimms);
}

/**
 * The per-trial cut tick: drain a stored-energy budget that is
 * @p frac of what the load profile consumes over the window of
 * interest, capped by what the PSU can physically store.
 */
Tick
cutFromEnergyFraction(const CampaignConfig &config,
                      const PowerRail &profile, Tick ac_loss,
                      Tick window_end, double frac)
{
    const double budget = std::min(
        frac * profile.energyUsedBy(ac_loss, window_end),
        config.psu.spec().storedJoules);

    power::PsuSpec spec = config.psu.spec();
    spec.storedJoules = budget;
    PowerRail scaled(power::PsuModel(spec), profile.loadAt(0));
    for (const LoadStep &step : profile.profile()) {
        if (step.at != 0)
            scaled.addStep(step.at, step.watts);
    }
    return scaled.failTick(ac_loss);
}

/**
 * Campaign RNG seed: user seed + mode salt + PSU name, so the two
 * PSUs probe different cut ticks instead of replaying each other.
 */
std::uint64_t
campaignSeed(const CampaignConfig &config, std::uint64_t salt)
{
    std::uint64_t h = 0xcbf29ce484222325ULL ^ config.seed ^ salt;
    for (const char c : config.psu.spec().name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

/** Sweep position of trial @p i, jittered inside its stratum. */
double
sweepFraction(std::uint64_t i, std::uint64_t cuts, Rng &rng)
{
    const double lo = 0.02;
    const double hi = 1.25;
    return lo
        + (hi - lo) * (static_cast<double>(i) + rng.uniform())
              / static_cast<double>(std::max<std::uint64_t>(cuts, 1));
}

/**
 * The driver every mode shares: run config.cuts isolated trials on the
 * grid runner, count each outcome, stamp mode/PSU and digest the
 * folded counters. @p trial(i, rng, result) draws from rng, notes
 * violations in result and returns what its probe saw. Trial i draws
 * from the independent stream Rng(Rng::streamSeed(campaignSeed(...),
 * i)), a pure function of (config, i), so the campaign is
 * bit-identical at any thread count.
 */
template <typename Trial>
CampaignResult
runSeededTrials(const CampaignConfig &config, const char *mode,
                net::PersistMode salt, const Trial &trial)
{
    const std::uint64_t seed = campaignSeed(config, modeSalt(salt));
    CampaignResult result;
    result.mode = mode;
    result.psu = config.psu.spec().name;
    stats::runGrid(
        campaignCounters(), config.threads,
        stats::TrialGrid<1>{{config.cuts}},
        [&trial, seed](std::uint64_t i) {
            CampaignResult r;
            Rng rng(Rng::streamSeed(seed, i));
            const ProbeOutcome out = trial(i, rng, r);
            ++r.phaseCuts[static_cast<std::size_t>(out.phase)];
            r.droppedWrites += out.droppedWrites;
            r.tornWrites += out.tornWrites;
            out.resumed ? ++r.resumes : ++r.coldBoots;
            ++r.cuts;
            return r;
        },
        stats::GridFold{result, result.violationNotes},
        [&result](std::uint64_t) { return result.mode + " " + result.psu; });
    sim::Fnv64 digest;
    campaignCounters().mix(digest, result);
    result.digest = digest.h;
    return result;
}

} // namespace

CampaignResult
runSngCampaign(const CampaignConfig &config)
{
    const power::PowerModel power_model;

    // Dry run: phase boundaries (construction is deterministic, so
    // every trial's Stop timeline is identical to this one).
    pecos::StopReport dry;
    std::uint32_t cores = 0;
    std::uint32_t dimms = 0;
    {
        SngRig rig;
        dry = rig.sng.stop(0);
        cores = rig.kern.cores();
        dimms = rig.psm.params().dimms;
    }

    // Load profile over the Stop phases: Drive-to-Idle runs every
    // core hot, Auto-Stop leaves the master active, the EP-cut runs
    // with the workers offlined.
    PowerRail profile(config.psu,
                      phaseWatts(power_model, cores, 0, dimms));
    profile.addStep(dry.processStopDone,
                    phaseWatts(power_model, 1, cores - 1, dimms));
    profile.addStep(dry.deviceStopDone,
                    phaseWatts(power_model, 1, 0, dimms));
    const Tick window_end =
        dry.offlineDone + (dry.offlineDone - dry.start) / 4;

    return runSeededTrials(
        config, "SnG", net::PersistMode::SnG,
        [&config, &profile, window_end](std::uint64_t i, Rng &rng,
                                        CampaignResult &result) {
            const Tick cut = cutFromEnergyFraction(
                config, profile, 0, window_end,
                sweepFraction(i, config.cuts, rng));
            return probeSng(cut, rng, result.violations,
                            result.violationNotes);
        });
}

CampaignResult
runSysPcCampaign(const CampaignConfig &config)
{
    // Dry run (with a base image) for the dump/commit windows used
    // by the forced commit-window trials.
    const DumpWindows dry = imageWindows(sysPcRun(true, sysPcDumpBytes));
    const double dump_watts = dumpWatts();

    return runSeededTrials(
        config, "SysPC", net::PersistMode::SysPc,
        [&config, dry, dump_watts](std::uint64_t i, Rng &rng,
                                   CampaignResult &result) {
            // Every 8th trial aims inside the commit record's own
            // write — a window far too narrow for the energy sweep to
            // hit.
            const bool force_commit_window =
                i % 8 == 7 && dry.commitAt > dry.bodyDone;
            const bool have_base = force_commit_window || rng.chance(0.5);
            const auto pick = [&](Tick ac) -> Tick {
                if (force_commit_window)
                    return dry.bodyDone + 1
                        + rng.below(dry.commitAt - dry.bodyDone);
                const Tick span = dry.commitAt - dry.ac;
                return cutFromEnergyFraction(
                    config, PowerRail(config.psu, dump_watts), ac,
                    ac + span + span / 4,
                    sweepFraction(i, config.cuts, rng));
            };
            return probeImage(sysPcRun(have_base, sysPcDumpBytes), rng,
                              pick, result.violations,
                              result.violationNotes);
        });
}

CampaignResult
runSCheckPcCampaign(const CampaignConfig &config)
{
    const DumpWindows dry =
        imageWindows(sCheckPcRun(2, sCheckVmBytes, sCheckPcPeriod));
    const Tick window = dry.commitAt - dry.ac;
    const double dump_watts = dumpWatts();

    return runSeededTrials(
        config, "S-CheckPC", net::PersistMode::SCheckPc,
        [&config, window, dump_watts](std::uint64_t i, Rng &rng,
                                      CampaignResult &result) {
            const bool have_history = rng.chance(0.7);
            // The cut races the dump that is running when AC drops.
            const auto pick = [&](Tick ac) {
                return cutFromEnergyFraction(
                    config, PowerRail(config.psu, dump_watts), ac,
                    ac + window + window / 4,
                    sweepFraction(i, config.cuts, rng));
            };
            return probeImage(
                sCheckPcRun(have_history ? 2 : 0, sCheckVmBytes,
                            sCheckPcPeriod),
                rng, pick, result.violations, result.violationNotes);
        });
}

CampaignResult
runACheckPcCampaign(const CampaignConfig &config)
{
    const Tick dry_total = aCheckPcLastCommit(aCheckCaptures, aCheckThink);

    return runSeededTrials(
        config, "A-CheckPC", net::PersistMode::ACheckPc,
        [dry_total](std::uint64_t, Rng &rng, CampaignResult &result) {
            // A-CheckPC checkpoints continuously; the cut is uniform
            // over the run (plus a post-run margin), no rail profile
            // needed to reach every window.
            const Tick cut = 1 + rng.below(dry_total + dry_total / 8);
            return probeACheckPc(aCheckCaptures, aCheckThink, cut, rng,
                                 result.violations, result.violationNotes);
        });
}

CampaignResult
runOpLogCampaign(const CampaignConfig &config)
{
    // Dry run for the timeline length. Service times are independent
    // of payload seeds and of the cut (the media drops writes without
    // changing their timing), so every trial ends at this same tick.
    Tick dry_total = 0;
    std::vector<std::pair<Tick, Tick>> dry_commits;
    {
        ImageRig rig;
        net::KvService svc(rig.store, rig.pmem, oplogKvParams(8));
        Tick t = 0;
        for (std::uint64_t p = 1; p <= oplogPuts; ++p) {
            svc.execute(t, oplogPutReq(p, 1 + (p - 1) % oplogKeys, p));
            if (p % 4 == 0) {
                const Tick start = t;
                svc.logCommit(t);
                dry_commits.emplace_back(start, t);
            }
            if (p % 8 == 0)
                svc.logDrain(t, 2);
        }
        const Tick start = t;
        svc.logCommit(t);
        dry_commits.emplace_back(start, t);
        dry_total = t;
    }

    return runSeededTrials(config, "SnG-OpLog", net::PersistMode::OpLog,
                           [dry_total, &dry_commits](
                               std::uint64_t i, Rng &rng,
                               CampaignResult &result) {
        // The PUT stream checkpoints durability continuously (every
        // group commit, plus stall drains inside appends), so a
        // uniform cut reaches every window without a rail profile.
        // Every 8th trial aims inside a group commit's own tail
        // store + fence — a window far too narrow for the uniform
        // sweep to hit reliably.
        Tick cut = 1 + rng.below(dry_total + dry_total / 8);
        if (i % 8 == 7) {
            const auto &w = dry_commits[rng.below(dry_commits.size())];
            if (w.second > w.first + 1)
                cut = w.first + 1 + rng.below(w.second - w.first);
        }

        ImageRig rig;
        net::KvService svc(rig.store, rig.pmem, oplogKvParams(8));
        rig.store.armPowerCut(cut, rng.next());

        // Oracle bookkeeping (1-based by request ID).
        std::vector<std::uint64_t> keys(oplogPuts + 1, 0);
        std::vector<std::uint64_t> seeds(oplogPuts + 1, 0);
        std::vector<std::pair<Tick, Tick>> commit_windows;

        // Records guaranteed durable: covered by any commit (explicit
        // group commit or a stall drain's inline one) whose stores all
        // completed before the cut.
        std::uint64_t committed_min = 0;
        // Records that can possibly survive: append started pre-cut.
        std::uint64_t append_bound = 0;

        Tick t = 0;
        auto noteDurable = [&](Tick done) {
            if (done >= cut)
                return;
            committed_min = std::max(
                committed_min, svc.stats().logAppends
                                   - svc.logUncommittedRecords());
        };
        for (std::uint64_t p = 1; p <= oplogPuts; ++p) {
            keys[p] = 1 + (p - 1) % oplogKeys;
            seeds[p] = rng.next();
            if (t < cut)
                ++append_bound;
            svc.execute(t, oplogPutReq(p, keys[p], seeds[p]));
            noteDurable(t);
            if (p % 4 == 0) {
                const Tick start = t;
                svc.logCommit(t);
                commit_windows.emplace_back(start, t);
                noteDurable(t);
            }
            if (p % 8 == 0)
                svc.logDrain(t, 2);
        }
        {
            const Tick start = t;
            svc.logCommit(t);
            commit_windows.emplace_back(start, t);
            noteDurable(t);
        }

        ProbeOutcome out;
        out.droppedWrites = rig.store.cutStats().droppedWrites;
        out.tornWrites = rig.store.cutStats().tornWrites;
        if (cut <= commit_windows.back().second) {
            out.phase = CutPhase::MidDump;
            for (const auto &w : commit_windows) {
                if (cut > w.first && cut <= w.second) {
                    out.phase = CutPhase::CommitWindow;
                    break;
                }
            }
        }

        rig.store.disarmPowerCut();

        // Crash recovery on the same store: reopen the pool (rolling
        // back a torn apply transaction), scan the log from the
        // durable head, replay, then drain whatever the scan rebuilt.
        Tick rt = cut + 100 * tickMs;
        svc.recover(rt);
        svc.logDrainAll(rt);

        // The applied set must be an exact prefix of the append
        // sequence, bracketed by the durable-commit floor and the
        // appends-started ceiling.
        const std::uint64_t got = svc.appliedCount();
        bool ok = got >= committed_min && got <= append_bound
            && svc.compactedCount() == 0;
        if (ok) {
            std::vector<std::uint64_t> ids = svc.appliedIds();
            ok = ids.size() == got;
            if (ok) {
                std::sort(ids.begin(), ids.end());
                for (std::uint64_t p = 0; ok && p < got; ++p)
                    ok = ids[p] == p + 1;
            }
        }
        // Key table == the prefix's oracle, byte for byte.
        for (std::uint64_t k = 1; ok && k <= oplogKeys; ++k) {
            std::uint64_t version = 0;
            std::uint64_t last = 0;
            for (std::uint64_t p = 1; p <= got; ++p) {
                if (keys[p] == k) {
                    ++version;
                    last = p;
                }
            }
            const std::optional<net::KvKeyState> state = svc.lookup(k);
            if (version == 0)
                ok = !state.has_value();
            else
                ok = state && state->version == version
                    && state->lastReqId == last
                    && state->valueSeed == seeds[last];
        }

        if (!ok)
            stats::flagViolation(result, "SnG-OpLog cut@", cut, " ",
                                 cutPhaseName(out.phase), ": applied ", got,
                                 " records (floor ", committed_min,
                                 ", ceiling ", append_bound,
                                 ") or key table off-oracle");
        out.resumed = got != 0;
        return out;
    });
}

} // namespace lightpc::fault
