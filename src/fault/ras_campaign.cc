#include "fault/ras_campaign.hh"

#include <algorithm>

#include "fault/fault_injector.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "pecos/mce.hh"
#include "pecos/sng.hh"
#include "psm/scrub.hh"
#include "sim/digest.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

namespace
{

using stats::flagViolation;

/** Small-geometry PSM so trials stay fast: 2 DIMMs x 4 groups x
 *  16 MB = 128 MB OC-PMEM (still clears the 16 MB reserved region
 *  SnG's control blocks live in). */
psm::PsmParams
trialPsmParams(const RasCampaignConfig &config, double ber,
               psm::McePolicy policy, std::uint64_t fault_seed,
               bool rs_fallback)
{
    psm::PsmParams pp;
    pp.symbolEccFallback = rs_fallback;
    pp.dimms = 2;
    pp.dimm.device.capacityBytes = 16 << 20;
    pp.dimm.device.wearRegionBytes = 64 << 10;
    pp.dimm.device.faults.enabled = true;
    pp.dimm.device.faults.transientBer = ber;
    pp.dimm.device.faults.wearStuckRate = config.wearStuckRate;
    pp.dimm.device.faults.seed = fault_seed;
    pp.spareLines = config.spareLines;
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
        kernel::Kernel kern(trialKernelParams());
        psm::Psm psm(trialPsmParams(config, 0.0,
                                    psm::McePolicy::ResetColdBoot, 1,
                                    false));
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        dry_stop_ticks = sng.stop(0).totalTicks();
    }

    const psm::McePolicy policies[] = {psm::McePolicy::Contain,
                                       psm::McePolicy::ResetColdBoot};

    // Flatten the (ber x wear x policy x seed) nest into one trial
    // index so the pool can fan the whole sweep out: cell-major in
    // the sequential nest's order, seeds innermost.
    std::vector<RasCell> cells;
    for (const double ber : config.bers)
        for (const double wear : config.wearLevels)
            for (const psm::McePolicy policy : policies) {
                RasCell &cell = cells.emplace_back();
                cell.ber = ber;
                cell.wear = wear;
                cell.policy = policy == psm::McePolicy::Contain
                    ? "contain" : "reset-cold-boot";
            }
    const std::uint64_t sweep_seed =
        config.seed ^ 0x726173736e67ULL;  // "rassng"

    auto trial = [&config, &policies, &cells, dry_stop_ticks,
                  sweep_seed](std::uint64_t trial_idx) {
        RasCampaignResult result;
        const std::uint64_t s = trial_idx % config.seedsPerCell;
        const std::uint64_t cell_idx = trial_idx / config.seedsPerCell;
        const double ber = cells[cell_idx].ber;
        const double wear = cells[cell_idx].wear;
        const psm::McePolicy policy =
            policies[cell_idx % std::size(policies)];

        const std::uint64_t trial_seed =
            Rng::streamSeed(sweep_seed, trial_idx);
        Rng rng(trial_seed);

        // Odd seeds run the Section VIII symbol-erasure
        // fallback: double-erasures become counted RS
        // corrections instead of machine checks, so both
        // ECC tiers see traffic in every cell.
        const bool rs_fallback = s % 2 == 1;

        kernel::Kernel kern(trialKernelParams());
        psm::Psm psm(trialPsmParams(config, ber, policy,
                                    trial_seed,
                                    rs_fallback));
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        pecos::MceHandler mce(kern, psm);
        psm::ScrubParams sp;
        sp.linesPerStep = config.scrubLinesPerStep;
        psm::PatrolScrubber scrubber(psm, sp);
        FaultInjector injector(store);

        // Pre-condition the media to the cell's wear
        // level (campaign aging, not simulated writes).
        const std::uint64_t wear_cycles =
            static_cast<std::uint64_t>(
                wear
                * static_cast<double>(
                    psm.params()
                        .dimm.device.enduranceCycles));
        for (std::uint32_t d = 0;
             d < psm.params().dimms; ++d)
            for (std::uint32_t g = 0;
                 g < psm.dimm(d).groupCount(); ++g)
                psm.dimm(d).group(g).preWear(wear_cycles);

        // Register the hot region's ownership: a few
        // user processes, each owning one slice, so
        // successive contained MCEs blame (and kill)
        // different tasks.
        const std::uint64_t region_bytes =
            config.regionLines * mem::cacheLineBytes;
        std::vector<std::uint32_t> victim_pids;
        for (const auto &proc : kern.processes()) {
            if (proc->pid() == 1
                || proc->isKernelThread())
                continue;
            victim_pids.push_back(proc->pid());
            if (victim_pids.size() >= config.victims)
                break;
        }
        const std::uint64_t slice =
            region_bytes
            / std::max<std::size_t>(victim_pids.size(),
                                    1);
        for (std::size_t v = 0; v < victim_pids.size();
             ++v)
            mce.registerOwner(v * slice, slice,
                              victim_pids[v]);

        // --- demand phase -----------------------------
        PsmFold fold;
        bool contained_this_trial = false;
        bool retired_on_contain = false;
        Tick t = 0;
        for (std::uint64_t op = 0;
             op < config.opsPerTrial; ++op) {
            mem::MemRequest req;
            req.addr =
                rng.below(config.regionLines)
                * mem::cacheLineBytes;
            req.op = rng.chance(config.writeFraction)
                ? mem::MemOp::Write : mem::MemOp::Read;
            const mem::AccessResult res =
                psm.access(req, t);
            t = res.completeAt + 5 * tickNs;
            req.op == mem::MemOp::Read ? ++result.reads
                                       : ++result.writes;

            if (res.containment) {
                // Escalate: the host machine check. The
                // ColdBoot arm wipes the PSM stats, so
                // fold the epoch first.
                fold.fold(psm.stats(), result);
                const pecos::MceOutcome out =
                    mce.handle(req.addr, t);
                fold.prev = psm.stats();
                if (out.action
                    == pecos::MceAction::Contained) {
                    contained_this_trial = true;
                    if (out.lineRetired)
                        retired_on_contain = true;
                }
            }
            if (config.scrubEveryOps
                && op % config.scrubEveryOps == 0)
                scrubber.step(t);
        }

        // --- SnG phase: stop, lose power, resume ------
        const bool cut_armed = config.powerCutEvery
            && trial_idx % config.powerCutEvery == 0;
        Tick cut = maxTick;
        if (cut_armed) {
            cut = t
                + rng.below(dry_stop_ticks
                            + dry_stop_ticks / 4 + 1);
            injector.armCut(cut, rng.next());
            ++result.cutTrials;
        }

        const kernel::SystemSnapshot before =
            kern.snapshot();
        const pecos::StopReport stop = sng.stop(t);
        result.droppedWrites += stop.writesDropped;
        result.tornWrites += stop.writesTorn;

        // Power loss: volatile state is gone either way
        // (the stop was for a shutdown); scramble so a
        // resume reading stale volatile copies cannot
        // pass the register check.
        kern.scramble(rng);
        if (cut_armed)
            injector.powerRestored();

        const bool expect_resume = stop.commitAt < cut;
        if (sng.hasCommit() != expect_resume)
            flagViolation(result, "cut@", cut, ": commit durable=",
                          sng.hasCommit(), " expected=", expect_resume);

        const pecos::GoReport go =
            sng.resume((cut_armed ? cut : stop.offlineDone)
                       + 100 * tickMs);
        if (go.coldBoot == expect_resume)
            flagViolation(result, "coldBoot=", go.coldBoot,
                          " but commit durable=", expect_resume);

        if (!go.coldBoot) {
            // Byte-exact register + device-cookie
            // round-trip through OC-PMEM (scramble above
            // guarantees stale volatile copies cannot
            // pass). Task state is excluded: resume
            // legitimately transitions it.
            if (!kern.snapshot().registersMatch(before))
                flagViolation(result, "resumed with corrupt state");
            ++result.resumes;
            if (policy == psm::McePolicy::Contain
                && contained_this_trial
                && retired_on_contain)
                ++result.containSurvivedSng;
        } else {
            ++result.coldBootResumes;
        }

        fold.fold(psm.stats(), result);
        result.mceContained += mce.stats().contained;
        result.mceColdBoots += mce.stats().coldBoots;
        result.tasksKilled += mce.stats().tasksKilled;
        result.kernelEscalations +=
            mce.stats().kernelEscalations;
        ++result.trials;
        return result;
    };

    // Fan the trials out, then fold in ascending trial index into the
    // sweep and each trial's cell.
    sim::ParallelExecutor pool(config.threads);
    const std::vector<RasCampaignResult> trials =
        pool.map<RasCampaignResult>(cells.size() * config.seedsPerCell,
                                    trial);

    RasCampaignResult result;
    result.cells = std::move(cells);
    for (std::uint64_t i = 0; i < trials.size(); ++i) {
        RasCell &cell = result.cells[i / config.seedsPerCell];
        rasCounters().merge(result, trials[i]);
        rasCounters().merge(cell, trials[i]);
        stats::appendTrialNotes(
            result.violationNotes, i,
            stats::streamed("ber ", cell.ber, " wear ", cell.wear, " ",
                            cell.policy),
            trials[i].violationNotes);
    }

    sim::Fnv64 digest;
    rasCounters().mix(digest, result);
    for (const RasCell &cell : result.cells)
        rasCellCounters().mix(digest, cell);
    result.digest = digest.h;
    return result;
}

} // namespace lightpc::fault
