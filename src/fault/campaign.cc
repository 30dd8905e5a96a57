#include "fault/campaign.hh"

#include <algorithm>
#include <functional>

#include "fault/fault_injector.hh"
#include "fault/power_rail.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "pecos/sng.hh"
#include "persist/checkpoint.hh"
#include "power/power_model.hh"
#include "psm/psm.hh"
#include "sim/digest.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

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

/** A MemoryPort view over the PSM (TimedMem plumbing). */
class PsmMemPort : public mem::MemoryPort
{
  public:
    explicit PsmMemPort(psm::Psm &psm) : psm(psm) {}

    mem::AccessResult
    access(const mem::MemRequest &req, Tick when) override
    {
        return psm.access(req, when);
    }

    Tick fence(Tick when) override { return psm.flush(when); }

  private:
    psm::Psm &psm;
};

void
countPhase(CampaignResult &result, CutPhase phase)
{
    ++result.phaseCuts[static_cast<std::size_t>(phase)];
}

using stats::flagViolation;

/**
 * Static platform load while @p active cores compute and the rest
 * idle, with the OC-PMEM DIMMs always powered.
 */
double
phaseWatts(const power::PowerModel &model, std::uint32_t active,
           std::uint32_t idle, std::uint32_t pram_dimms)
{
    power::ActivitySample sample;
    sample.coresActive = active;
    sample.coresIdle = idle;
    sample.coreUtilization = 1.0;
    sample.pramDimms = pram_dimms;
    return model.staticWattsOf(sample);
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
 * Trial i draws from the independent stream
 * Rng(Rng::streamSeed(campaignSeed(...), i)) — a pure function of
 * (config, i), which is what lets the trial pool run seeds in any
 * order and still reproduce the sequential campaign bit-for-bit.
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
 * The deterministic reduction driver every mode shares: fan
 * config.cuts isolated trials across the pool, fold the per-trial
 * results in ascending seed order (tagging each violation note with
 * its trial index), stamp mode/PSU, and digest the folded counters.
 * @p trial must be a pure function of its index — it is invoked
 * concurrently from multiple workers.
 */
CampaignResult
runSeededTrials(const CampaignConfig &config, const char *mode,
                const std::function<CampaignResult(std::uint64_t)>
                    &trial)
{
    sim::ParallelExecutor pool(config.threads);
    const std::vector<CampaignResult> trials =
        pool.map<CampaignResult>(config.cuts, trial);

    CampaignResult result;
    result.mode = mode;
    result.psu = config.psu.spec().name;
    const std::string cell = result.mode + " " + result.psu;
    stats::foldTrials(
        campaignCounters(), result, trials,
        [&cell](std::uint64_t) -> std::string_view { return cell; });
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
        kernel::Kernel kern;
        psm::Psm psm;
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        dry = sng.stop(0);
        cores = kern.cores();
        dimms = psm.params().dimms;
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

    const std::uint64_t seed = campaignSeed(config, 0x536e47ULL);

    return runSeededTrials(config, "SnG", [&config, profile,
                                           window_end, seed](
                                              std::uint64_t i) {
        CampaignResult result;
        Rng rng(Rng::streamSeed(seed, i));

        const Tick cut = cutFromEnergyFraction(
            config, profile, 0, window_end,
            sweepFraction(i, config.cuts, rng));

        kernel::Kernel kern;
        psm::Psm psm;
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        FaultInjector injector(store);

        const kernel::SystemSnapshot before = kern.snapshot();
        injector.armCut(cut, rng.next());

        const pecos::StopReport stop = sng.stop(0);
        result.droppedWrites += stop.writesDropped;
        result.tornWrites += stop.writesTorn;

        const CutPhase phase = cut <= stop.processStopDone
            ? CutPhase::ProcessStop
            : cut <= stop.deviceStopDone ? CutPhase::DeviceStop
            : cut <= stop.commitAt ? CutPhase::EpCut
                                   : CutPhase::PostCommit;
        countPhase(result, phase);

        // Power loss: everything volatile is gone. The PCBs get
        // scrambled so a resume that "works" by reading stale DRAM
        // instead of OC-PMEM cannot pass the register check.
        kern.scramble(rng);
        injector.powerRestored();

        const bool expect_resume = stop.commitAt < cut;
        if (sng.hasCommit() != expect_resume)
            flagViolation(result, "SnG cut@", cut, " ", cutPhaseName(phase),
                          ": commit durable=", sng.hasCommit(), " expected=",
                          expect_resume);

        const pecos::GoReport go = sng.resume(cut + 100 * tickMs);
        if (go.coldBoot == expect_resume)
            flagViolation(result, "SnG cut@", cut, " ", cutPhaseName(phase),
                          ": coldBoot=", go.coldBoot, " but commit durable=",
                          expect_resume);

        if (!go.coldBoot) {
            // Byte-exact register + device-cookie round-trip through
            // OC-PMEM (the scramble above guarantees stale volatile
            // copies cannot pass).
            if (!kern.snapshot().registersMatch(before))
                flagViolation(result, "SnG cut@", cut,
                              ": resumed with corrupt register state");
            ++result.resumes;
        } else {
            ++result.coldBoots;
        }
        ++result.cuts;
        return result;
    });
}

namespace
{

/** Shared fabric of one image-baseline trial. */
struct ImageRig
{
    mem::BackingStore store;
    psm::Psm psm;
    PsmMemPort port{psm};
    mem::TimedMem pmem{port, &store};
};

constexpr std::uint64_t sysPcBaseBytes = 4 << 20;
constexpr std::uint64_t sysPcDumpBytes = 8 << 20;

} // namespace

CampaignResult
runSysPcCampaign(const CampaignConfig &config)
{
    const power::PowerModel power_model;

    // Dry run (with a base image) for the dump/commit windows used
    // by the forced commit-window trials.
    Tick dry_ac = 0;
    Tick dry_body_done = 0;
    Tick dry_commit_at = 0;
    std::uint32_t dimms = 0;
    std::uint32_t cores = kernel::KernelParams().cores;
    {
        ImageRig rig;
        persist::SysPc syspc(rig.pmem);
        Tick t = syspc.dumpImageCommitted(0, sysPcBaseBytes, 7);
        dry_ac = t + tickMs;
        syspc.dumpImageCommitted(dry_ac, sysPcDumpBytes, 8);
        dry_body_done = syspc.lastBodyDoneAt();
        dry_commit_at = syspc.lastCommitAt();
        dimms = rig.psm.params().dimms;
    }

    // Hibernate runs every core flat out until the rails die.
    const double dump_watts = phaseWatts(power_model, cores, 0, dimms);
    const std::uint64_t seed = campaignSeed(config, 0x537973ULL);

    return runSeededTrials(config, "SysPC", [&config, dry_ac,
                                             dry_body_done,
                                             dry_commit_at,
                                             dump_watts, seed](
                                                std::uint64_t i) {
        CampaignResult result;
        Rng rng(Rng::streamSeed(seed, i));

        // Every 8th trial aims inside the commit record's own write
        // — a window far too narrow for the energy sweep to hit.
        const bool force_commit_window = i % 8 == 7
            && dry_commit_at > dry_body_done;
        const bool have_base = force_commit_window || rng.chance(0.5);

        ImageRig rig;
        persist::SysPc syspc(rig.pmem);
        FaultInjector injector(rig.store);

        Tick t = 0;
        if (have_base)
            t = syspc.dumpImageCommitted(0, sysPcBaseBytes,
                                         rng.next());
        const Tick ac = t + tickMs;

        Tick cut;
        if (force_commit_window) {
            cut = dry_body_done + 1
                + rng.below(dry_commit_at - dry_body_done);
        } else {
            PowerRail profile(config.psu, dump_watts);
            const Tick limit = ac + (dry_commit_at - dry_ac)
                + (dry_commit_at - dry_ac) / 4;
            cut = cutFromEnergyFraction(
                config, profile, ac, limit,
                sweepFraction(i, config.cuts, rng));
        }

        injector.armCut(cut, rng.next());
        syspc.dumpImageCommitted(ac, sysPcDumpBytes, rng.next());
        const Tick body_done = syspc.lastBodyDoneAt();
        const Tick commit_at = syspc.lastCommitAt();
        result.droppedWrites += rig.store.cutStats().droppedWrites;
        result.tornWrites += rig.store.cutStats().tornWrites;

        countPhase(result, cut <= body_done ? CutPhase::MidDump
                       : cut <= commit_at ? CutPhase::CommitWindow
                                          : CutPhase::PostCommit);

        injector.powerRestored();
        syspc.recover(cut + 100 * tickMs);
        const std::uint64_t got = syspc.recoveredSeq();
        const std::uint64_t base_seq = have_base ? 1 : 0;
        const std::uint64_t final_seq = base_seq + 1;

        // Resume iff the commit record beat the rails; a cut inside
        // the record's own write may legally land it whole (it is
        // then checksum-valid over a fully durable body) or tear it
        // (then it must read as "no commit"), never anything else.
        bool ok;
        if (commit_at < cut)
            ok = got == final_seq;
        else if (cut <= body_done)
            ok = got == base_seq;
        else
            ok = got == base_seq || got == final_seq;
        if (ok && got == 2)
            ok = syspc.committedImageIntact(syspc.committedImage());

        if (!ok)
            flagViolation(result, "SysPC cut@", cut, " recovered seq ", got,
                          " (base ", base_seq, ", commit@", commit_at, ")");
        got != 0 ? ++result.resumes : ++result.coldBoots;
        ++result.cuts;
        return result;
    });
}

CampaignResult
runSCheckPcCampaign(const CampaignConfig &config)
{
    const power::PowerModel power_model;
    constexpr std::uint64_t vm_bytes = 6 << 20;
    constexpr Tick period = 50 * tickMs;

    Tick dry_start = 0;
    Tick dry_commit_at = 0;
    std::uint32_t dimms = 0;
    const std::uint32_t cores = kernel::KernelParams().cores;
    {
        ImageRig rig;
        persist::SCheckPc scheck(rig.pmem, period);
        Tick t = scheck.dumpCommitted(0, vm_bytes, 7);
        t = scheck.dumpCommitted(t + period, vm_bytes, 8);
        dry_start = t + period;
        scheck.dumpCommitted(dry_start, vm_bytes, 9);
        dry_commit_at = scheck.lastCommitAt();
        dimms = rig.psm.params().dimms;
    }

    const double dump_watts = phaseWatts(power_model, cores, 0, dimms);
    const Tick dry_window = dry_commit_at - dry_start;
    const std::uint64_t seed = campaignSeed(config, 0x5343506bULL);

    return runSeededTrials(config, "S-CheckPC", [&config, dry_window,
                                                 dump_watts, seed](
                                                    std::uint64_t i) {
        CampaignResult result;
        Rng rng(Rng::streamSeed(seed, i));

        const bool have_history = rng.chance(0.7);

        ImageRig rig;
        persist::SCheckPc scheck(rig.pmem, period);
        FaultInjector injector(rig.store);

        Tick t = 0;
        std::uint64_t base_seq = 0;
        if (have_history) {
            t = scheck.dumpCommitted(0, vm_bytes, rng.next());
            t = scheck.dumpCommitted(t + period, vm_bytes, rng.next());
            t += period;
            base_seq = 2;
        }

        // The cut races the dump that is running when AC drops.
        PowerRail profile(config.psu, dump_watts);
        const Tick cut = cutFromEnergyFraction(
            config, profile, t, t + dry_window + dry_window / 4,
            sweepFraction(i, config.cuts, rng));

        injector.armCut(cut, rng.next());
        scheck.dumpCommitted(t, vm_bytes, rng.next());
        const Tick body_done = scheck.lastBodyDoneAt();
        const Tick commit_at = scheck.lastCommitAt();
        result.tornWrites += rig.store.cutStats().tornWrites;
        result.droppedWrites += rig.store.cutStats().droppedWrites;

        countPhase(result, cut <= body_done ? CutPhase::MidDump
                       : cut <= commit_at ? CutPhase::CommitWindow
                                          : CutPhase::PostCommit);

        injector.powerRestored();
        scheck.recoverAfterLoss(cut + 100 * tickMs);
        const std::uint64_t got = scheck.recoveredSeq();
        const std::uint64_t final_seq = base_seq + 1;

        bool ok;
        if (commit_at < cut)
            ok = got == final_seq;
        else if (cut <= body_done)
            ok = got == base_seq;
        else
            ok = got == base_seq || got == final_seq;
        if (ok && got == final_seq)
            ok = scheck.commitIntact(scheck.latestCommit());

        if (!ok)
            flagViolation(result, "S-CheckPC cut@", cut,
                          " recovered seq ", got, " (base ", base_seq,
                          ", commit@", commit_at, ")");
        got != 0 ? ++result.resumes : ++result.coldBoots;
        ++result.cuts;
        return result;
    });
}

CampaignResult
runACheckPcCampaign(const CampaignConfig &config)
{
    // Per-function checkpoints: a run of small committed dumps, each
    // body + fence + ledger record, sized like the decorator's
    // stack/heap captures (4-32 KB).
    constexpr std::uint64_t checkpoints = 6;
    const persist::ACheckPcParams params;
    const mem::Addr ledger_base = params.pmemBase;
    const mem::Addr slot_base = params.pmemBase + (1 << 20);

    auto bodyBytes = [](std::uint64_t k) {
        return 4096 + (k * 2654435761ULL) % (28 << 10);
    };
    auto slotAddr = [slot_base](std::uint64_t seq) {
        return slot_base + (seq & 1) * (1 << 20);
    };

    // Dry run for the per-checkpoint body/commit windows.
    std::vector<Tick> dry_commit_at(checkpoints + 1, 0);
    {
        ImageRig rig;
        persist::CheckpointLedger ledger(rig.pmem, ledger_base);
        Tick t = 0;
        for (std::uint64_t k = 1; k <= checkpoints; ++k) {
            t += 200 * tickUs;  // the function body between dumps
            t = persist::writeBodyPattern(rig.pmem, t, slotAddr(k),
                                          bodyBytes(k), k);
            t = rig.pmem.fence(t);
            t = ledger.commit(t, k, k & 1, bodyBytes(k), k);
            dry_commit_at[k] = ledger.lastCommitAt();
        }
    }

    const Tick dry_total = dry_commit_at[checkpoints];
    const std::uint64_t seed = campaignSeed(config, 0x414350ULL);

    return runSeededTrials(config, "A-CheckPC", [bodyBytes, slotAddr,
                                                 ledger_base,
                                                 dry_total, seed](
                                                    std::uint64_t i) {
        CampaignResult result;
        Rng rng(Rng::streamSeed(seed, i));

        // A-CheckPC checkpoints continuously; the cut is uniform
        // over the run (plus a post-run margin), no rail profile
        // needed to reach every window.
        const Tick cut = 1 + rng.below(dry_total + dry_total / 8);

        ImageRig rig;
        persist::CheckpointLedger ledger(rig.pmem, ledger_base);
        FaultInjector injector(rig.store);
        injector.armCut(cut, rng.next());

        std::vector<std::uint64_t> seeds(checkpoints + 1, 0);
        std::vector<Tick> commit_at(checkpoints + 1, 0);
        std::vector<Tick> body_done(checkpoints + 1, 0);
        Tick t = 0;
        for (std::uint64_t k = 1; k <= checkpoints; ++k) {
            seeds[k] = rng.next();
            t += 200 * tickUs;
            t = persist::writeBodyPattern(rig.pmem, t, slotAddr(k),
                                          bodyBytes(k), seeds[k]);
            t = rig.pmem.fence(t);
            body_done[k] = t;
            t = ledger.commit(t, k, k & 1, bodyBytes(k), seeds[k]);
            commit_at[k] = ledger.lastCommitAt();
        }
        result.tornWrites += rig.store.cutStats().tornWrites;
        result.droppedWrites += rig.store.cutStats().droppedWrites;

        // Which window did the cut land in?
        CutPhase phase = CutPhase::PostCommit;
        std::uint64_t window_k = 0;  ///< checkpoint in flight at cut
        for (std::uint64_t k = 1; k <= checkpoints; ++k) {
            if (cut <= commit_at[k]) {
                window_k = k;
                phase = cut <= body_done[k] ? CutPhase::MidDump
                                            : CutPhase::CommitWindow;
                break;
            }
        }
        countPhase(result, phase);

        injector.powerRestored();
        const persist::CheckpointLedger::Record rec = ledger.latest();
        const std::uint64_t got = rec.seq;

        // The newest checkpoint whose record write beat the rails.
        std::uint64_t expect = 0;
        for (std::uint64_t k = 1; k <= checkpoints; ++k) {
            if (commit_at[k] < cut)
                expect = k;
        }
        // A cut inside record k's own write may land it whole — then
        // and only then may one newer commit than expected survive.
        const bool straddle_ok = phase == CutPhase::CommitWindow
            && got == window_k;

        bool ok = got == expect || straddle_ok;
        if (ok && got != 0) {
            ok = rec.valid()
                && persist::verifyBodyPattern(
                       rig.store, slotAddr(rec.seq),
                       std::min<std::uint64_t>(rec.bytes,
                                               bodyBytes(rec.seq)),
                       seeds[rec.seq]);
        }

        if (!ok)
            flagViolation(result, "A-CheckPC cut@", cut,
                          " recovered seq ", got, " expected ", expect);
        got != 0 ? ++result.resumes : ++result.coldBoots;
        ++result.cuts;
        return result;
    });
}

namespace
{

// The op-log campaign workload: enough PUTs to wrap a deliberately
// tiny ring several times (forcing stall drains), spread over few
// enough keys that every key sees multiple versions.
constexpr std::uint64_t oplogPuts = 32;
constexpr std::uint64_t oplogKeys = 8;

net::KvParams
oplogCampaignParams()
{
    net::KvParams params;
    params.writePath = net::WritePath::OpLog;
    params.keyCapacity = 64;
    params.dedupCapacity = 256;
    params.oplog.capacity = 8 * net::OpLog::recordBytes;
    return params;
}

net::RpcRequest
oplogPutReq(std::uint64_t id, std::uint64_t key, std::uint64_t seed)
{
    net::RpcRequest req;
    req.reqId = id;
    req.client = static_cast<std::uint32_t>(id % 5);
    req.op = workload::KvOp::Put;
    req.key = key;
    req.valueSeed = seed;
    req.deadline = maxTick;
    return req;
}

} // namespace

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
        net::KvService svc(rig.store, rig.pmem,
                           oplogCampaignParams());
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

    const std::uint64_t seed = campaignSeed(config, 0x4f704c6fULL);

    return runSeededTrials(config, "SnG-OpLog", [dry_total,
                                                 dry_commits, seed](
                                                    std::uint64_t i) {
        CampaignResult result;
        Rng rng(Rng::streamSeed(seed, i));

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
        net::KvService svc(rig.store, rig.pmem,
                           oplogCampaignParams());
        FaultInjector injector(rig.store);
        injector.armCut(cut, rng.next());

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

        result.droppedWrites += rig.store.cutStats().droppedWrites;
        result.tornWrites += rig.store.cutStats().tornWrites;

        CutPhase phase = CutPhase::PostCommit;
        if (cut <= commit_windows.back().second) {
            phase = CutPhase::MidDump;
            for (const auto &w : commit_windows) {
                if (cut > w.first && cut <= w.second) {
                    phase = CutPhase::CommitWindow;
                    break;
                }
            }
        }
        countPhase(result, phase);

        injector.powerRestored();

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
            flagViolation(result, "SnG-OpLog cut@", cut, " ",
                          cutPhaseName(phase), ": applied ", got,
                          " records (floor ", committed_min, ", ceiling ",
                          append_bound, ") or key table off-oracle");
        got != 0 ? ++result.resumes : ++result.coldBoots;
        ++result.cuts;
        return result;
    });
}

} // namespace lightpc::fault
