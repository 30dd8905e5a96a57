/**
 * @file
 * What the two replicated-KV campaign benches (bench_cluster,
 * bench_partition) share over campaignMain(): kvCampaign(), which
 * fills in their flags, run, cell table and JSON body driven by
 * fault::clusterCounters(), and the paired-column anchor that SnG and
 * SnG-OpLog beat every checkpointing baseline.
 *
 *   bench_cluster|bench_partition [--seeds N] [--runfor-ms MS]
 *       [--arrivals PER_SEC] [--clients N] [--aging SPREAD]
 *       [--seed S] [--threads N|-j N] [--out FILE]
 *
 * --aging derates each replica's hold-up by a seeded per-machine
 * storage-cell wear draw in [0, SPREAD] of rated cycle life (0 = the
 * legacy uniform fleet, digest-identical to older builds).
 */

#ifndef LIGHTPC_BENCH_KV_CAMPAIGN_HH
#define LIGHTPC_BENCH_KV_CAMPAIGN_HH

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign_io.hh"
#include "fault/cluster_campaign.hh"
#include "stats/table.hh"

namespace bench
{

using lightpc::fault::ClusterCampaignConfig;
using lightpc::fault::ClusterCampaignResult;
using lightpc::fault::ClusterCell;

/**
 * @p c, which holds a KV bench's names and anchors, with the hooks
 * both KV benches share: the flags --seeds, --runfor-ms, --arrivals,
 * --clients and --aging into @p config, a run that prints the sweep's
 * shape, one table row per cell (its grid position, then the
 * @p columns counters), the violation notes, and the JSON body (the
 * run shape, every counter of the campaign total, one object per cell
 * and the digest).
 */
inline Campaign<ClusterCampaignResult>
kvCampaign(ClusterCampaignConfig &config,
           const std::vector<std::string> &columns,
           Campaign<ClusterCampaignResult> c)
{
    using lightpc::fault::Ladder;
    const std::string axis =
        config.ladder == Ladder::Storm ? "storm" : "nemesis";
    c.flags = {flag("--seeds", "N", config.seedsPerCell),
               msFlag("--runfor-ms", config.runFor),
               flag("--arrivals", "PER_SEC", config.arrivalsPerSec),
               flag("--clients", "N", config.clients),
               flag("--aging", "SPREAD", config.agingSpread)};
    c.valid = [&config] {
        return config.seedsPerCell > 0 && config.runFor > 0
               && config.arrivalsPerSec > 0.0 && config.clients > 0
               && config.agingSpread >= 0.0 && config.agingSpread <= 1.0;
    };
    c.run = [&config, axis] {
        std::cout << "sweeping ";
        if (config.ladder == Ladder::Storm)
            std::cout << config.replicaCounts.size() << " replica counts x ";
        std::cout << config.intensities.size() << " " << axis
                  << " intensities x " << config.modes.size()
                  << " modes x " << config.seedsPerCell << " seeds = "
                  << lightpc::fault::clusterCampaignTrials(config)
                  << " trials on " << config.threads << " thread(s)...\n\n";
        return lightpc::fault::runClusterCampaign(config);
    };
    c.table = [axis, columns](const ClusterCampaignResult &res) {
        lightpc::stats::Table table(row({"replicas", axis, "mode"}, columns));
        for (const ClusterCell &cell : res.cells)
            table.addRow(row({std::to_string(cell.replicas),
                              std::to_string(cell.intensity), cell.modeName},
                             counterCells(cell, columns)));
        table.print(std::cout);
    };
    c.notes = [](const ClusterCampaignResult &r) { return r.violationNotes; };
    c.json = [&config](JsonWriter &json, const ClusterCampaignResult &res) {
        json.field("seed", config.seed)
            .field("seeds_per_cell", config.seedsPerCell)
            .field("trials", res.total.trials)
            .field("runfor_ms", config.runFor / lightpc::tickMs)
            .field("arrivals_per_sec", config.arrivalsPerSec, "%.1f")
            .field("clients", config.clients)
            .field("aging_spread", config.agingSpread, "%.3f")
            .field("threads", config.threads)
            .counters(res.total)
            .array("cells");
        for (const ClusterCell &cell : res.cells)
            json.object()
                .field("replicas", cell.replicas)
                .field("intensity", cell.intensity)
                .field("mode", cell.modeName)
                .field("trials", cell.trials)
                .counters(cell)
                .close();
        json.close().digest(res.digest);
    };
    return c;
}

/** A bench's own anchor on one (SnG cell, baseline cell) pair. */
using PerBaseline = std::function<void(
    const std::string &where, const ClusterCell &sng,
    const ClusterCell &baseline)>;

/**
 * The paired-column anchor: in every (replicas, intensity) column, SnG
 * and SnG-OpLog mean write availability strictly exceed each
 * checkpointing baseline's. @p more, if set, runs once per baseline
 * cell for a bench's own per-column anchors.
 */
inline void
checkPersistentAboveBaselines(const ClusterCampaignResult &res,
                              const std::string &axis,
                              const PerBaseline &more = {})
{
    using lightpc::net::PersistMode;
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<const ClusterCell *>>
        columns;
    for (const ClusterCell &c : res.cells)
        columns[{c.replicas, c.intensity}].push_back(&c);
    for (const auto &[key, cells] : columns) {
        const ClusterCell *sng = nullptr, *oplog = nullptr;
        for (const ClusterCell *c : cells) {
            if (c->mode == PersistMode::SnG)
                sng = c;
            if (c->mode == PersistMode::OpLog)
                oplog = c;
        }
        const std::string where = "replicas=" + std::to_string(key.first)
                                  + " " + axis + "="
                                  + std::to_string(key.second);
        check(sng && oplog, where + ": SnG and OpLog cells ran");
        if (!sng || !oplog)
            continue;
        for (const ClusterCell *c : cells) {
            if (!isBaseline(c->mode))
                continue;
            check((*sng)["write_avail_mean"] > (*c)["write_avail_mean"],
                  where + ": SnG write availability above "
                      + c->modeName + "'s");
            check((*oplog)["write_avail_mean"]
                      > (*c)["write_avail_mean"],
                  where + ": SnG-OpLog write availability above "
                      + c->modeName + "'s");
            if (more)
                more(where, *sng, *c);
        }
    }
}

} // namespace bench

#endif // LIGHTPC_BENCH_KV_CAMPAIGN_HH
