/**
 * @file
 * Seeded replicated-KV campaign: fleets of LightPC machines swept
 * across replica count x intensity x all five persistence modes, on
 * one of two intensity ladders.
 *
 * Each trial is one full cluster::runCluster() — N LightPC machines,
 * a client fleet, a correlated storm schedule, optionally a network
 * nemesis — and is a pure function of (campaign seed, trial index):
 * the grid position picks the cell (replicas, intensity, mode) and
 * the per-cell seed index picks the storm / arrival / nemesis streams
 * via Rng::streamSeed. The stream column packs (replicas, intensity,
 * seed index) but NOT the mode, so the same seed index replays
 * identical schedules against every mode: the availability comparison
 * is paired. Trials run on the shared grid runner
 * (stats/trial_grid.hh) and fold in canonical index order, so the
 * campaign digest is bit-identical at any thread count.
 *
 * The storm ladder (rack-correlated cut storms):
 *
 *   1 — one storm, one rack struck (a minority loses power);
 *   2 — two storms, one rack each (repeated partial outages);
 *   3 — two storms, every rack struck (full-fleet blackouts: the
 *       whole cluster rides through on hold-up or cold-boots).
 *
 * The nemesis ladder (an adversarial network over one-rack storms):
 *
 *   1 — lossy links: 1% drop, 1% duplication, 30us reordering jitter
 *       (FIFO off), one rack storm;
 *   2 — single partition: the same loss floor plus one scheduled
 *       rack partition (mode cycling Symmetric / Asymmetric / Partial
 *       by seed index) and one link flap, one rack storm;
 *   3 — compound: 5% drop, 3% duplication, 100us jitter, two
 *       partitions scheduled to overlap the two storm windows (the
 *       struck rack is also severed — a deposed leader is partitioned
 *       AND power-cycled), plus two link flaps.
 *
 * Every cell counter is declared once, in clusterCounters() (a
 * stats::CounterSet): its JSON key, the ClusterResult member it
 * reads, and how a cell folds it. The cell fold, the campaign digest
 * and the benches' JSON are each a single loop over that table.
 */

#ifndef LIGHTPC_FAULT_CLUSTER_CAMPAIGN_HH
#define LIGHTPC_FAULT_CLUSTER_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/ticks.hh"
#include "stats/counter_set.hh"

namespace lightpc::fault
{

/** Which intensity ladder a campaign climbs (see the file comment). */
enum class Ladder : std::uint8_t
{
    Storm,    ///< rack-correlated cut storms
    Nemesis,  ///< one-rack storms under an adversarial network
};

/** Campaign sweep shape. */
struct ClusterCampaignConfig
{
    std::uint64_t seed = 42;

    /** Seeded trials per (replicas, intensity, mode) cell. */
    std::size_t seedsPerCell = 10;

    std::vector<std::uint32_t> replicaCounts = {3, 5};
    std::vector<std::uint32_t> intensities = {1, 2, 3};
    std::vector<net::PersistMode> modes = {
        net::PersistMode::SnG,      net::PersistMode::OpLog,
        net::PersistMode::SysPc,    net::PersistMode::SCheckPc,
        net::PersistMode::ACheckPc,
    };

    /** The nemesis ladder needs >= 3 replicas in every count. */
    Ladder ladder = Ladder::Storm;

    /**
     * Per-machine storage aging spread forwarded to every trial's
     * ClusterConfig (0 = the legacy uniform fleet; see
     * cluster::ClusterConfig::agingSpread).
     */
    double agingSpread = 0.0;

    /** Per-trial run shape (kept small: the grid is 300 trials). */
    Tick runFor = 2 * tickSec;
    Tick drainGrace = 2 * tickSec;
    std::uint32_t clients = 120;
    double arrivalsPerSec = 1500.0;

    unsigned threads = 1;
};

/** The counter table of a cluster trial, in digest and JSON order. */
const stats::CounterSet<cluster::ClusterResult> &clusterCounters();

/**
 * One (replicas, intensity, mode) cell: every clusterCounters() row
 * folded over the cell's trials. Counts stay exact as doubles (every
 * campaign sum is far below 2^53).
 */
struct ClusterCell : stats::Folded<cluster::ClusterResult>
{
    ClusterCell() : Folded(clusterCounters()) {}

    std::uint32_t replicas = 0;
    std::uint32_t intensity = 0;
    net::PersistMode mode = net::PersistMode::SnG;
    std::string modeName;
};

/** Everything one campaign run produces. */
struct ClusterCampaignResult
{
    /** Canonical order: replicas-major, then intensity, then mode. */
    std::vector<ClusterCell> cells;

    /** Every trial of the campaign folded into one cell. */
    ClusterCell total;

    std::vector<std::string> violationNotes;

    /** FNV digest over the run digests and every cell counter. */
    std::uint64_t digest = 0;
};

/**
 * The ClusterConfig trial @p index of the campaign would run —
 * exposed so tests can replay one grid point without the sweep.
 * Pure function of (config, index); fatal on index out of range.
 */
cluster::ClusterConfig
clusterTrialConfig(const ClusterCampaignConfig &config,
                   std::uint64_t index);

/** Total trials the grid encodes. */
std::uint64_t clusterCampaignTrials(const ClusterCampaignConfig &config);

/**
 * Fold finished trials, in trial-index order, into cells, the
 * campaign total, violation notes and the digest. This is the second
 * half of runClusterCampaign, exposed so tests can pin it on
 * hand-built results.
 */
ClusterCampaignResult
foldClusterCampaign(const ClusterCampaignConfig &config,
                    const std::vector<cluster::ClusterResult> &runs);

/** Run the sweep on config.threads workers. */
ClusterCampaignResult
runClusterCampaign(const ClusterCampaignConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_CLUSTER_CAMPAIGN_HH
