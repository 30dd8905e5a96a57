/**
 * @file
 * What the two replicated-KV campaign benches (bench_cluster,
 * bench_partition) share: the command line, the stdout cell table
 * and the JSON file driven by fault::clusterCounters(), and the
 * paired-column anchor that SnG and SnG-OpLog beat every
 * checkpointing baseline.
 *
 *   bench_cluster|bench_partition [--seeds N] [--seed S] [--out FILE]
 *       [--runfor-ms MS] [--arrivals PER_SEC] [--clients N]
 *       [--aging SPREAD] [--threads N|-j N]
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

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/cluster_campaign.hh"
#include "sim/parallel.hh"
#include "stats/table.hh"

namespace bench
{

using lightpc::fault::ClusterCampaignConfig;
using lightpc::fault::ClusterCampaignResult;
using lightpc::fault::ClusterCell;

/**
 * Parse the campaign flags into @p config (whose fields hold the
 * bench's defaults) and @p out. A bad flag or value prints the usage
 * line and exits 2; the thread count is resolved (0 = every core).
 */
inline void
parseKvCampaignArgs(int argc, char **argv, ClusterCampaignConfig &config,
                    std::string &out)
{
    const char *flags = "[--seeds N] [--seed S] [--out FILE]"
                        " [--runfor-ms MS] [--arrivals PER_SEC]"
                        " [--clients N] [--aging SPREAD]"
                        " [--threads N|-j N]";
    std::uint64_t runforMs = config.runFor / lightpc::tickMs;
    unsigned threads = 0;
    parseFlags(argc, argv, flags,
               {flag("--seeds", config.seedsPerCell),
                flag("--seed", config.seed), flag("--out", out),
                flag("--runfor-ms", runforMs),
                flag("--arrivals", config.arrivalsPerSec),
                flag("--clients", config.clients),
                flag("--aging", config.agingSpread),
                threadsFlag(threads)});
    if (config.seedsPerCell == 0 || runforMs == 0
        || config.arrivalsPerSec <= 0.0 || config.clients == 0
        || config.agingSpread < 0.0 || config.agingSpread > 1.0)
        usage(argv[0], flags);
    config.runFor = runforMs * lightpc::tickMs;
    config.threads = lightpc::sim::resolveThreads(threads);
}

/**
 * Print one row per cell: its grid position, then the named counters.
 * @p axis labels the intensity column ("storm", "nemesis").
 */
inline void
printKvCells(const ClusterCampaignResult &res, const std::string &axis,
             const std::vector<std::string> &counters)
{
    lightpc::stats::Table table(row({"replicas", axis, "mode"}, counters));
    for (const ClusterCell &c : res.cells)
        table.addRow(row({std::to_string(c.replicas),
                          std::to_string(c.intensity), c.modeName},
                         counterCells(c, counters)));
    table.print(std::cout);
    for (const std::string &note : res.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";
}

/**
 * Write @p res to @p path: the run shape, every counter of the
 * campaign total, one object per cell, and the digest.
 * @return false (after perror) when @p path cannot be written.
 */
inline bool
writeKvCampaignJson(const std::string &path, const char *bench,
                    const ClusterCampaignConfig &config,
                    const ClusterCampaignResult &res)
{
    JsonWriter json(path);
    json.field("bench", bench)
        .field("seed", config.seed)
        .field("seeds_per_cell", config.seedsPerCell)
        .field("trials", res.total.trials)
        .field("runfor_ms", config.runFor / lightpc::tickMs)
        .field("arrivals_per_sec", config.arrivalsPerSec, "%.1f")
        .field("clients", config.clients)
        .field("aging_spread", config.agingSpread, "%.3f")
        .field("threads", config.threads)
        .counters(res.total)
        .array("cells");
    for (const ClusterCell &c : res.cells)
        json.object()
            .field("replicas", c.replicas)
            .field("intensity", c.intensity)
            .field("mode", c.modeName)
            .field("trials", c.trials)
            .counters(c)
            .close();
    json.close().digest(res.digest);
    return json.finish();
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
