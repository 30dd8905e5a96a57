/**
 * @file
 * Power-cut fault-injection campaigns.
 *
 * The paper's durability argument is an invariant, not a latency: at
 * *every* possible power-cut instant the machine must either resume
 * from a durable commit or come up cold — never a third outcome
 * (torn resume, resurrected pre-cut state, lost committed work). A
 * campaign sweeps seeded cut ticks across one persistence mechanism:
 * each trial derives the cut from a PowerRail draining a scaled
 * stored-energy budget, arms the FaultInjector, runs the power-down
 * path, simulates the loss of all volatile state, runs recovery, and
 * checks the invariant. Phase histograms prove the cuts actually
 * landed in every window (mid Drive-to-Idle, mid Auto-Stop, mid
 * EP-cut, mid image dump, inside the commit record's own write).
 */

#ifndef LIGHTPC_FAULT_CAMPAIGN_HH
#define LIGHTPC_FAULT_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "power/psu.hh"
#include "sim/ticks.hh"
#include "stats/counter_set.hh"

namespace lightpc::fault
{

/** Which window of the power-down path the cut landed in. */
enum class CutPhase
{
    ProcessStop,   ///< SnG Drive-to-Idle
    DeviceStop,    ///< SnG Auto-Stop (DCB/MMIO writes)
    EpCut,         ///< SnG offline + bootloader, before the commit
    PostCommit,    ///< after the commit store landed
    MidDump,       ///< image baselines: body still writing
    CommitWindow,  ///< inside the commit record's own write
    Count
};

const char *cutPhaseName(CutPhase phase);

/** One campaign's knobs. */
struct CampaignConfig
{
    /** Seeded cut trials to run. */
    std::uint64_t cuts = 50;

    std::uint64_t seed = 1;

    /** The PSU whose stored energy gets scaled per trial. */
    power::PsuModel psu = power::PsuModel::atx();

    /**
     * Host threads fanning the trials out (0 = hardware
     * concurrency). Every trial owns its rig and Rng stream and the
     * per-trial results merge in canonical seed order, so the
     * campaign aggregate — including its digest — is bit-identical
     * at every thread count.
     */
    unsigned threads = 1;
};

/** Aggregated outcome of one campaign. */
struct CampaignResult
{
    std::string mode;
    std::string psu;

    std::uint64_t cuts = 0;

    /** Cut counts per phase window. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(CutPhase::Count)>
        phaseCuts{};

    /** Trials that recovered from a durable commit. */
    std::uint64_t resumes = 0;

    /** Trials that (correctly) came up with nothing durable. */
    std::uint64_t coldBoots = 0;

    /** Durability-cursor outcomes summed over all trials. */
    std::uint64_t droppedWrites = 0;
    std::uint64_t tornWrites = 0;

    /** Invariant violations (must be zero). */
    std::uint64_t violations = 0;
    std::vector<std::string> violationNotes;

    /**
     * FNV digest over every campaignCounters() row, computed after
     * the canonical-order reduction (determinism anchor: equal at
     * every thread count).
     */
    std::uint64_t digest = 0;

    std::uint64_t
    phaseCount(CutPhase phase) const
    {
        return phaseCuts[static_cast<std::size_t>(phase)];
    }
};

/** The counter table of CampaignResult, in digest and JSON order. */
const stats::CounterSet<CampaignResult> &campaignCounters();

/**
 * SnG: cuts across Drive-to-Idle / Auto-Stop / EP-cut / post-commit.
 * Invariant: Go resumes iff the commit store beat the rails, and a
 * resume restores every PCB register file byte-exactly.
 */
CampaignResult runSngCampaign(const CampaignConfig &config);

/** SysPC: cuts across the hibernate dump and its commit record. */
CampaignResult runSysPcCampaign(const CampaignConfig &config);

/** S-CheckPC: cuts across periodic BLCR-style dumps. */
CampaignResult runSCheckPcCampaign(const CampaignConfig &config);

/** A-CheckPC: cuts across a run of per-function checkpoints. */
CampaignResult runACheckPcCampaign(const CampaignConfig &config);

/**
 * SnG-OpLog: cuts across a KvService PUT stream on the op-log write
 * path — mid-append, inside a group commit's tail store, and after
 * the final commit. Invariant: recovery + full drain always lands on
 * an exact prefix of the append sequence, at least every record
 * covered by a commit that beat the rails and never a record whose
 * append started after them, with the key table byte-exactly equal to
 * that prefix's oracle (versions, last writer, value seeds).
 */
CampaignResult runOpLogCampaign(const CampaignConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_CAMPAIGN_HH
