#include "fault/ras_campaign.hh"

#include <algorithm>

#include "fault/persist_probe.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "pecos/mce.hh"
#include "pecos/sng.hh"
#include "psm/scrub.hh"
#include "sim/digest.hh"
#include "sim/rng.hh"
#include "stats/trial_grid.hh"

namespace lightpc::fault
{

namespace
{

/** Fraction of demand accesses that are writes. */
constexpr double writeFraction = 0.3;

/** Patrol-scrub step every this many demand accesses. */
constexpr std::uint64_t scrubEveryOps = 64;

/** Scrub budget per step (lines). */
constexpr std::uint64_t scrubLinesPerStep = 32;

/** Stuck-at creation rate at full wear (see MediaFaultParams). */
constexpr double wearStuckRate = 0.02;

/** Retirement spare pool (physical line slots). */
constexpr std::uint64_t spareLines = 2048;

/** Hot working set: lines the demand traffic hammers. */
constexpr std::uint64_t regionLines = 4096;

/** User processes registered as owners of the working set. */
constexpr std::uint32_t victims = 8;

static_assert(scrubEveryOps > 0 && scrubLinesPerStep > 0);
static_assert(regionLines > 0 && victims > 0);

/** Small-geometry PSM so trials stay fast: 2 DIMMs x 4 groups x
 *  16 MB = 128 MB OC-PMEM (still clears the 16 MB reserved region
 *  SnG's control blocks live in). */
psm::PsmParams
trialPsmParams(double ber, psm::McePolicy policy,
               std::uint64_t fault_seed, bool rs_fallback)
{
    psm::PsmParams pp;
    pp.symbolEccFallback = rs_fallback;
    pp.dimms = 2;
    pp.dimm.device.capacityBytes = 16 << 20;
    pp.dimm.device.wearRegionBytes = 64 << 10;
    pp.dimm.device.faults.enabled = true;
    pp.dimm.device.faults.transientBer = ber;
    pp.dimm.device.faults.wearStuckRate = wearStuckRate;
    pp.dimm.device.faults.seed = fault_seed;
    pp.spareLines = spareLines;
    pp.mcePolicy = policy;
    return pp;
}

/** Small kernel population: enough structure for SnG, fast to build. */
kernel::KernelParams
trialKernelParams()
{
    kernel::KernelParams kp;
    kp.cores = 4;
    kp.userProcesses = 16;
    kp.kernelThreads = 8;
    return kp;
}

/** The PsmStats counters a trial accumulates, each with its RasCounts
 *  slot. They are delta-folded so a mid-trial OC-PMEM reset (the
 *  ResetColdBoot arm wipes the stats) cannot lose the counts from
 *  before the reset. */
struct PsmFold
{
    static constexpr std::pair<std::uint64_t psm::PsmStats::*,
                               std::uint64_t RasCounts::*>
        slots[] = {
            {&psm::PsmStats::rasCheckedReads, &RasCounts::checkedReads},
            {&psm::PsmStats::sdcEvents, &RasCounts::sdcEvents},
            {&psm::PsmStats::correctedReads, &RasCounts::correctedReads},
            {&psm::PsmStats::symbolCorrections,
             &RasCounts::symbolCorrections},
            {&psm::PsmStats::parityRewrites, &RasCounts::parityRewrites},
            {&psm::PsmStats::uncorrectableReads,
             &RasCounts::uncorrectableReads},
            {&psm::PsmStats::retiredLines, &RasCounts::linesRetired},
            {&psm::PsmStats::spareExhausted, &RasCounts::spareExhausted},
            {&psm::PsmStats::scrubbedLines, &RasCounts::scrubbedLines},
            {&psm::PsmStats::scrubRepairs, &RasCounts::scrubRepairs},
            {&psm::PsmStats::scrubDeferrals, &RasCounts::scrubDeferrals},
        };

    psm::PsmStats prev;

    void
    fold(const psm::PsmStats &s, RasCounts &r)
    {
        for (const auto &[stat, slot] : slots)
            r.*slot += s.*stat - prev.*stat;
        prev = s;
    }
};

/** The MCE policies every (ber, wear) pair runs, in cell order. */
constexpr psm::McePolicy policies[] = {psm::McePolicy::Contain,
                                       psm::McePolicy::ResetColdBoot};

/** The (ber, wear, policy, seed) grid, seeds innermost. */
stats::TrialGrid<4>
rasGrid(const RasCampaignConfig &config)
{
    return {{config.bers.size(), config.wearLevels.size(),
             std::size(policies), config.seedsPerCell}};
}

/**
 * Trial @p index: demand traffic on media aged and corrupted per its
 * cell, then an SnG stop (power-cut on every powerCutEvery-th trial)
 * and resume. @p dry_stop_ticks sizes the cut window.
 */
RasCampaignResult
runTrial(const RasCampaignConfig &config, Tick dry_stop_ticks,
         std::uint64_t index)
{
    RasCampaignResult result;
    const auto [b, w, p, s] = rasGrid(config).decode(index);
    const psm::McePolicy policy = policies[p];
    const std::uint64_t trial_seed = Rng::streamSeed(
        config.seed ^ 0x726173736e67ULL /* "rassng" */, index);
    Rng rng(trial_seed);

    // Odd seeds run the Section VIII symbol-erasure fallback:
    // double-erasures become counted RS corrections instead of machine
    // checks, so both ECC tiers see traffic in every cell.
    SngRig rig(trialKernelParams(),
               trialPsmParams(config.bers[b], policy, trial_seed,
                              s % 2 == 1));
    kernel::Kernel &kern = rig.kern;
    psm::Psm &psm = rig.psm;
    pecos::MceHandler mce(kern, psm);
    psm::ScrubParams sp;
    sp.linesPerStep = scrubLinesPerStep;
    psm::PatrolScrubber scrubber(psm, sp);

    // Pre-condition the media to the cell's wear level (campaign
    // aging, not simulated writes).
    const auto wear_cycles = static_cast<std::uint64_t>(
        config.wearLevels[w]
        * static_cast<double>(psm.params().dimm.device.enduranceCycles));
    for (std::uint32_t d = 0; d < psm.params().dimms; ++d)
        for (std::uint32_t g = 0; g < psm.dimm(d).groupCount(); ++g)
            psm.dimm(d).group(g).preWear(wear_cycles);

    // Register the hot region's ownership: a few user processes, each
    // owning one slice, so successive contained MCEs blame (and kill)
    // different tasks.
    const std::uint64_t region_bytes = regionLines * mem::cacheLineBytes;
    std::vector<std::uint32_t> victim_pids;
    for (const auto &proc : kern.processes()) {
        if (proc->pid() == 1 || proc->isKernelThread())
            continue;
        victim_pids.push_back(proc->pid());
        if (victim_pids.size() >= victims)
            break;
    }
    const std::uint64_t slice =
        region_bytes / std::max<std::size_t>(victim_pids.size(), 1);
    for (std::size_t v = 0; v < victim_pids.size(); ++v)
        mce.registerOwner(v * slice, slice, victim_pids[v]);

    // --- demand phase -------------------------------------------------
    PsmFold fold;
    bool contained_this_trial = false;
    bool retired_on_contain = false;
    Tick t = 0;
    for (std::uint64_t op = 0; op < config.opsPerTrial; ++op) {
        mem::MemRequest req;
        req.addr = rng.below(regionLines) * mem::cacheLineBytes;
        req.op = rng.chance(writeFraction) ? mem::MemOp::Write
                                           : mem::MemOp::Read;
        const mem::AccessResult res = psm.access(req, t);
        t = res.completeAt + 5 * tickNs;
        req.op == mem::MemOp::Read ? ++result.reads : ++result.writes;

        if (res.containment) {
            // Escalate: the host machine check. The ColdBoot arm wipes
            // the PSM stats, so fold the epoch first.
            fold.fold(psm.stats(), result);
            const pecos::MceOutcome out = mce.handle(req.addr, t);
            fold.prev = psm.stats();
            if (out.action == pecos::MceAction::Contained) {
                contained_this_trial = true;
                if (out.lineRetired)
                    retired_on_contain = true;
            }
        }
        if (op % scrubEveryOps == 0)
            scrubber.step(t);
    }

    // --- SnG phase: stop, lose power, resume --------------------------
    const bool cut_armed =
        config.powerCutEvery && index % config.powerCutEvery == 0;
    Tick cut = maxTick;
    if (cut_armed) {
        cut = t + rng.below(dry_stop_ticks + dry_stop_ticks / 4 + 1);
        ++result.cutTrials;
    }

    // Volatile state is lost either way (the stop was for a
    // shutdown).
    const SngCut c = cutSng(rig, t, cut, rng, result.violations,
                            result.violationNotes, "SnG");
    result.droppedWrites += c.stop.writesDropped;
    result.tornWrites += c.stop.writesTorn;

    const pecos::GoReport go = rig.sng.resume(
        (cut_armed ? cut : c.stop.offlineDone) + 100 * tickMs);
    judgeSngRecovery(rig, c, go.coldBoot, false, result.violations,
                     result.violationNotes, "SnG");
    if (!go.coldBoot) {
        ++result.resumes;
        if (policy == psm::McePolicy::Contain && contained_this_trial
            && retired_on_contain)
            ++result.containSurvivedSng;
    } else {
        ++result.coldBootResumes;
    }

    fold.fold(psm.stats(), result);
    result.mceContained += mce.stats().contained;
    result.mceColdBoots += mce.stats().coldBoots;
    result.tasksKilled += mce.stats().tasksKilled;
    result.kernelEscalations += mce.stats().kernelEscalations;
    ++result.trials;
    return result;
}

} // namespace

const stats::CounterSet<RasCounts> &
rasCounters()
{
    using R = RasCounts;
    using stats::counter;
    static const stats::CounterSet<R> set(
        counter<&R::trials>("trials"),
        counter<&R::reads>("reads"),
        counter<&R::writes>("writes"),
        counter<&R::sdcEvents>("sdc_events"),
        counter<&R::checkedReads>("checked_reads"),
        counter<&R::correctedReads>("xcc_corrections"),
        counter<&R::symbolCorrections>("rs_corrections"),
        counter<&R::parityRewrites>("parity_rewrites"),
        counter<&R::uncorrectableReads>("uncorrectable_reads"),
        counter<&R::mceContained>("mce_contained"),
        counter<&R::mceColdBoots>("mce_cold_boots"),
        counter<&R::tasksKilled>("tasks_killed"),
        counter<&R::kernelEscalations>("kernel_escalations"),
        counter<&R::linesRetired>("lines_retired"),
        counter<&R::spareExhausted>("spare_exhausted"),
        counter<&R::scrubbedLines>("scrubbed_lines"),
        counter<&R::scrubRepairs>("scrub_repairs"),
        counter<&R::scrubDeferrals>("scrub_deferrals"),
        counter<&R::containSurvivedSng>("contain_survived_sng"),
        counter<&R::resumes>("sng_resumes"),
        counter<&R::coldBootResumes>("sng_cold_boots"),
        counter<&R::cutTrials>("power_cut_trials"),
        counter<&R::droppedWrites>("dropped_writes"),
        counter<&R::tornWrites>("torn_writes"),
        counter<&R::violations>("violations"));
    return set;
}

const stats::CounterSet<RasCounts> &
rasCellCounters()
{
    using R = RasCounts;
    using stats::counter;
    static const stats::CounterSet<R> set(
        counter<&R::trials>("trials"),
        counter<&R::checkedReads>("checked_reads"),
        counter<&R::correctedReads>("xcc_corrections"),
        counter<&R::symbolCorrections>("rs_corrections"),
        counter<&R::parityRewrites>("parity_rewrites"),
        counter<&R::uncorrectableReads>("uncorrectable"),
        counter<&R::linesRetired>("retired"),
        counter<&R::sdcEvents>("sdc"),
        counter<&R::mceContained>("mce_contained"),
        counter<&R::mceColdBoots>("mce_cold_boots"));
    return set;
}

RasCampaignResult
runRasCampaign(const RasCampaignConfig &config)
{
    // One dry SnG stop on the trial geometry for the power-cut
    // window (construction is deterministic, so every trial's Stop
    // timeline is close to this one; the sweep jitter covers the
    // spread from mid-trial kills).
    Tick dry_stop_ticks = 0;
    {
        SngRig rig(trialKernelParams(),
                   trialPsmParams(0.0, psm::McePolicy::ResetColdBoot, 1,
                                  false));
        dry_stop_ticks = rig.sng.stop(0).totalTicks();
    }

    const stats::TrialGrid<4> grid = rasGrid(config);
    RasCampaignResult result;
    result.cells.resize(grid.cells());
    for (std::uint64_t c = 0; c < grid.cells(); ++c) {
        const auto [b, w, p, s] = grid.cellAt(c);
        RasCell &cell = result.cells[c];
        cell.ber = config.bers[b];
        cell.wear = config.wearLevels[w];
        cell.policy = policies[p] == psm::McePolicy::Contain
            ? "contain" : "reset-cold-boot";
    }
    stats::runGrid(rasCounters(), config.threads, grid,
                   [&config, dry_stop_ticks](std::uint64_t i) {
                       return runTrial(config, dry_stop_ticks, i);
                   },
                   stats::GridFold{result, result.violationNotes,
                                   &result.cells},
                   [&result, &grid](std::uint64_t i) {
                       const RasCell &cell = result.cells[grid.cellOf(i)];
                       return stats::streamed("ber ", cell.ber, " wear ",
                                              cell.wear, " ", cell.policy);
                   });

    sim::Fnv64 digest;
    rasCounters().mix(digest, result);
    for (const RasCell &cell : result.cells)
        rasCellCounters().mix(digest, cell);
    result.digest = digest.h;
    return result;
}

} // namespace lightpc::fault
