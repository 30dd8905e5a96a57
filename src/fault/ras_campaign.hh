/**
 * @file
 * Media-error RAS campaigns.
 *
 * The power-cut campaigns (campaign.hh) attack the durability
 * invariant from the outside — AC loss at every instant. This
 * campaign attacks it from the inside: the media itself corrupts
 * data, at raw bit-error rates and wear levels swept per cell, and
 * the RAS pipeline must turn every corruption into one of exactly
 * three outcomes — a counted correction, a counted retirement, or a
 * contained machine check. The invariant is *zero silent data
 * corruption*: every decode runs the real codecs against ground
 * truth, and any mismatch that was not flagged is an sdcEvent.
 *
 * Each cell additionally exercises the MCE escalation arms: under
 * Contain the owning task is killed, the faulty line retired, and
 * the system must survive a subsequent SnG stop/resume; under
 * ResetColdBoot the machine check takes the OC-PMEM reset path. A
 * configurable fraction of trials also arms a power cut during the
 * SnG stop, composing the media-fault and power-fault models in one
 * trial.
 */

#ifndef LIGHTPC_FAULT_RAS_CAMPAIGN_HH
#define LIGHTPC_FAULT_RAS_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "psm/psm.hh"
#include "stats/counter_set.hh"

namespace lightpc::fault
{

/** The RAS sweep's knobs. */
struct RasCampaignConfig
{
    /** Transient raw symbol-error rates swept. */
    std::vector<double> bers{0.0, 1e-5, 1e-4, 1e-3};

    /** Pre-conditioning wear levels swept (fraction of endurance). */
    std::vector<double> wearLevels{0.0, 0.95};

    /** Seeded trials per (ber, wear, policy) cell. */
    std::uint64_t seedsPerCell = 32;

    std::uint64_t seed = 1;

    /** Demand accesses per trial. */
    std::uint64_t opsPerTrial = 1200;

    /** Every Nth trial also arms a power cut during the SnG stop. */
    std::uint64_t powerCutEvery = 4;

    /**
     * Host threads fanning the trials out (0 = hardware
     * concurrency). Trial randomness is a pure function of the
     * flattened trial index, and per-trial partials merge in
     * canonical index order, so the sweep aggregate — including its
     * digest — is bit-identical at every thread count.
     */
    unsigned threads = 1;
};

/** The counters a RAS trial contributes; cells and the sweep fold them. */
struct RasCounts
{
    std::uint64_t trials = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /** The invariant: must be zero. */
    std::uint64_t sdcEvents = 0;

    std::uint64_t checkedReads = 0;
    std::uint64_t correctedReads = 0;
    std::uint64_t symbolCorrections = 0;
    std::uint64_t parityRewrites = 0;
    std::uint64_t uncorrectableReads = 0;

    std::uint64_t mceContained = 0;
    std::uint64_t mceColdBoots = 0;
    std::uint64_t tasksKilled = 0;
    std::uint64_t kernelEscalations = 0;

    std::uint64_t linesRetired = 0;
    std::uint64_t spareExhausted = 0;

    std::uint64_t scrubbedLines = 0;
    std::uint64_t scrubRepairs = 0;
    std::uint64_t scrubDeferrals = 0;

    /** Contain-arm trials that took >=1 contained MCE with the
     *  faulty line retired and then resumed cleanly from SnG. */
    std::uint64_t containSurvivedSng = 0;

    /** SnG outcomes across all trials. */
    std::uint64_t resumes = 0;
    std::uint64_t coldBootResumes = 0;

    /** Combined power-cut + media-fault trials. */
    std::uint64_t cutTrials = 0;
    std::uint64_t droppedWrites = 0;
    std::uint64_t tornWrites = 0;

    /** Invariant violations (must be zero). */
    std::uint64_t violations = 0;
};

/** The sweep-wide counter table, in digest and JSON order. */
const stats::CounterSet<RasCounts> &rasCounters();

/**
 * The per-cell view: the subset of RasCounts each cell reports,
 * under the cell's own JSON keys, in digest order.
 */
const stats::CounterSet<RasCounts> &rasCellCounters();

/** One (ber, wear, policy) cell: its trials' counters folded. */
struct RasCell : RasCounts
{
    double ber = 0.0;
    double wear = 0.0;
    std::string policy;
};

/** Aggregated outcome of the whole sweep. */
struct RasCampaignResult : RasCounts
{
    /** Kept notes, each tagged with its trial index and cell. */
    std::vector<std::string> violationNotes;

    std::vector<RasCell> cells;

    /**
     * FNV digest over rasCounters() and every cell's
     * rasCellCounters(), computed after the canonical-order
     * reduction (determinism anchor: equal at every thread count).
     */
    std::uint64_t digest = 0;
};

/** Run the full (ber x wear x policy x seed) sweep. */
RasCampaignResult runRasCampaign(const RasCampaignConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_RAS_CAMPAIGN_HH
