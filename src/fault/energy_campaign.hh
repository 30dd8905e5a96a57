/**
 * @file
 * Fleet-scale energy-provisioning campaign.
 *
 * The fault campaigns answer "does the commit beat the rails?" for a
 * fixed stored-energy budget. This campaign turns the question
 * around: *how much* storage must a machine provision — ATX bulk cap
 * ⊕ supercap ⊕ LiFePO4 UPS, with per-machine aging spread — for each
 * persistence mode to ride out single cuts, correlated cut storms,
 * and brownout sieges? The sweep crosses:
 *
 *  - storage sizing (the serverHierarchy() scale axis),
 *  - persistence mode (SnG, SysPC, S-CheckPC, A-CheckPC, SnG+OpLog),
 *  - outage intensity (1 = single cut, 2 = three-cut storm with
 *    charge-limited recovery gaps, 3 = brownout siege that deepens
 *    into a full outage).
 *
 * SnG modes run with the pecos::EnergyGuard bound: mid-storm planned
 * power-downs are deferred while the plane cannot carry the
 * worst-case drain (and every *admitted* Stop must land its commit —
 * a violation otherwise), and the brownout siege triggers the
 * proactive EP-cut at the low-charge warning, with an in-trial
 * counterfactual proving when that saved the machine.
 *
 * Every trial is a pure function of (config, trial index): the
 * campaign is thread-invariant, and the outage schedule and aging
 * draw come from a mode-independent stream so modes face identical
 * storms (paired comparison).
 */

#ifndef LIGHTPC_FAULT_ENERGY_CAMPAIGN_HH
#define LIGHTPC_FAULT_ENERGY_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/service_plane.hh"
#include "sim/ticks.hh"
#include "stats/counter_set.hh"

namespace lightpc::fault
{

/** The full sweep grid. */
struct EnergyCampaignConfig
{
    /**
     * serverHierarchy() scales to sweep (the provisioning axis).
     * Must be in increasing order; the provisioning table reports
     * the smallest scale at which a mode survives every trial.
     */
    std::vector<double> sizingScales = {0.004, 0.008, 0.02, 0.05,
                                        0.12, 0.30, 0.75, 1.90};

    /** Persistence modes under test. */
    std::vector<net::PersistMode> modes = {
        net::PersistMode::SnG,      net::PersistMode::SysPc,
        net::PersistMode::SCheckPc, net::PersistMode::ACheckPc,
        net::PersistMode::OpLog,
    };

    /** Outage intensities: 1 single cut, 2 cut storm, 3 brownout. */
    std::vector<std::uint32_t> intensities = {1, 2, 3};

    /** Independent trials per (scale, intensity, mode) cell. */
    std::uint64_t seedsPerCell = 6;

    std::uint64_t seed = 3001;

    /**
     * Per-machine aging spread: each trial's machine is pre-aged by
     * uniform [0, this] equivalent full cycles, drawn from the
     * mode-independent stream (every mode sees the same fleet).
     */
    double agingSpreadCycles = 600.0;

    /** Worker threads (results are invariant under this). */
    unsigned threads = 1;
};

/** Reject malformed campaign grids with fatal(). */
void validateEnergyCampaignConfig(const EnergyCampaignConfig &config);

/** Total trial count of the grid. */
std::uint64_t energyCampaignTrials(const EnergyCampaignConfig &config);

/** Merged counters of one (scale, intensity, mode) cell. */
struct EnergyCellStats
{
    double scale = 0.0;
    double provisionedJoules = 0.0;  ///< rated capacity at the scale
    net::PersistMode mode = net::PersistMode::SnG;
    std::uint32_t intensity = 0;

    std::uint64_t trials = 0;
    std::uint64_t cuts = 0;            ///< outage events faced
    std::uint64_t commitsDurable = 0;  ///< persist beat the rails
    std::uint64_t resumes = 0;
    std::uint64_t coldBoots = 0;

    /** Trials where every event committed and resumed with state. */
    std::uint64_t survivedTrials = 0;

    /** Guard outcomes (SnG modes only; zero for the baselines). */
    std::uint64_t stopsDeferred = 0;
    std::uint64_t deferredStopsAdmitted = 0;
    std::uint64_t proactiveStops = 0;
    std::uint64_t proactiveSaves = 0;

    std::uint64_t violations = 0;

    /** Lowest state of charge (permille) at any event's onset. */
    std::uint64_t minSocPermille = 1000;
};

/** The counter table of EnergyCellStats, in digest and JSON order. */
const stats::CounterSet<EnergyCellStats> &energyCounters();

/** Minimum provisioned storage for one (mode, intensity). */
struct EnergyProvision
{
    net::PersistMode mode = net::PersistMode::SnG;
    std::uint32_t intensity = 0;

    /** A scale in the sweep survived every trial. */
    bool met = false;

    /** The smallest such scale and its rated capacity. */
    double scale = 0.0;
    double joules = 0.0;
};

/** The merged campaign outcome. */
struct EnergyCampaignResult
{
    /** Scale-major, then intensity, then mode (config order). */
    std::vector<EnergyCellStats> cells;

    /** Every cell folded into one: the fleet totals. */
    EnergyCellStats total;

    /** Per (mode, intensity), modes-major (config order). */
    std::vector<EnergyProvision> provisioning;

    /** Kept notes, each tagged with its trial index and cell. */
    std::vector<std::string> violationNotes;

    /** FNV-1a over every cell's counters; thread-invariant. */
    std::uint64_t digest = 0;
};

/**
 * Run the sweep. Trials fan out over a sim::ParallelExecutor; the
 * merged result (and its digest) is bit-identical at any thread
 * count.
 */
EnergyCampaignResult
runEnergyCampaign(const EnergyCampaignConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_ENERGY_CAMPAIGN_HH
