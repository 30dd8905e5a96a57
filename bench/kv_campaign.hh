/**
 * @file
 * What the two replicated-KV campaign benches (bench_cluster,
 * bench_partition) share: the command line, the stdout cell table
 * and the JSON writer driven by fault::clusterCounters(), and the
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

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
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
    auto usage = [argv] {
        std::fprintf(stderr,
                     "usage: %s [--seeds N] [--seed S] [--out FILE]"
                     " [--runfor-ms MS] [--arrivals PER_SEC]"
                     " [--clients N] [--aging SPREAD]"
                     " [--threads N|-j N]\n",
                     argv[0]);
        std::exit(2);
    };
    std::uint64_t runforMs = config.runFor / lightpc::tickMs;
    unsigned threads = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--seeds")
            config.seedsPerCell = std::strtoull(value(), nullptr, 10);
        else if (arg == "--seed")
            config.seed = std::strtoull(value(), nullptr, 10);
        else if (arg == "--out")
            out = value();
        else if (arg == "--runfor-ms")
            runforMs = std::strtoull(value(), nullptr, 10);
        else if (arg == "--arrivals")
            config.arrivalsPerSec = std::strtod(value(), nullptr);
        else if (arg == "--clients")
            config.clients = std::strtoul(value(), nullptr, 10);
        else if (arg == "--aging")
            config.agingSpread = std::strtod(value(), nullptr);
        else if (arg == "--threads" || arg == "-j")
            threads = lightpc::sim::parseThreadsArg(value());
        else
            usage();
    }
    if (config.seedsPerCell == 0 || runforMs == 0
        || config.arrivalsPerSec <= 0.0 || config.clients == 0
        || config.agingSpread < 0.0 || config.agingSpread > 1.0)
        usage();
    config.runFor = runforMs * lightpc::tickMs;
    config.threads = lightpc::sim::resolveThreads(threads);
}

/** @p value of counter @p c printed in its unit's precision. */
inline std::string
formatCounter(const lightpc::fault::ClusterCounter &c, double value)
{
    using lightpc::fault::Unit;
    const char *format = c.unit == Unit::Count ? "%.0f"
                         : c.unit == Unit::Ms  ? "%.3f"
                                               : "%.6f";
    char text[48];
    std::snprintf(text, sizeof(text), format, value);
    return text;
}

/**
 * Print one row per cell: its grid position, then the named counters.
 * @p axis labels the intensity column ("storm", "nemesis").
 */
inline void
printKvCells(const ClusterCampaignResult &res, const std::string &axis,
             const std::vector<std::string> &counters)
{
    std::vector<std::string> header = {"replicas", axis, "mode"};
    header.insert(header.end(), counters.begin(), counters.end());
    lightpc::stats::Table table(header);
    for (const ClusterCell &c : res.cells) {
        std::vector<std::string> row = {std::to_string(c.replicas),
                                        std::to_string(c.intensity),
                                        c.modeName};
        for (const std::string &name : counters)
            row.push_back(formatCounter(
                lightpc::fault::clusterCounter(name), c[name]));
        table.addRow(row);
    }
    table.print(std::cout);
    for (const std::string &note : res.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";
}

/** Every counter of @p cell as `"key": value` pairs, four a line. */
inline void
writeCounters(std::FILE *f, const ClusterCell &cell, const char *indent)
{
    const auto table = lightpc::fault::clusterCounters();
    for (std::size_t i = 0; i < table.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i % 4 ? " " : indent,
                     table[i].name,
                     formatCounter(table[i], cell.values[i]).c_str());
        if (i + 1 < table.size())
            std::fputs(i % 4 == 3 ? ",\n" : ",", f);
    }
}

/**
 * Write @p res to @p path: the run shape, @p check (the bench's
 * in-run rerun anchor, e.g. {"deterministic", true}), every counter
 * of the campaign total, one object per cell, and the digest.
 * @return false (after perror) when @p path cannot be opened.
 */
inline bool
writeKvCampaignJson(const std::string &path, const char *bench,
                    const ClusterCampaignConfig &config,
                    const ClusterCampaignResult &res,
                    std::pair<const char *, bool> check)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::perror(path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(config.seed));
    std::fprintf(f, "  \"seeds_per_cell\": %llu,\n",
                 static_cast<unsigned long long>(config.seedsPerCell));
    std::fprintf(f, "  \"trials\": %llu,\n",
                 static_cast<unsigned long long>(res.total.trials));
    std::fprintf(f, "  \"runfor_ms\": %llu,\n",
                 static_cast<unsigned long long>(config.runFor
                                                 / lightpc::tickMs));
    std::fprintf(f, "  \"arrivals_per_sec\": %.1f,\n",
                 config.arrivalsPerSec);
    std::fprintf(f, "  \"clients\": %u,\n", config.clients);
    std::fprintf(f, "  \"aging_spread\": %.3f,\n", config.agingSpread);
    std::fprintf(f, "  \"threads\": %u,\n", config.threads);
    std::fprintf(f, "  \"%s\": %s,\n", check.first,
                 check.second ? "true" : "false");
    writeCounters(f, res.total, "  ");
    std::fprintf(f, ",\n  \"cells\": [\n");
    for (std::size_t i = 0; i < res.cells.size(); ++i) {
        const ClusterCell &c = res.cells[i];
        std::fprintf(f,
                     "    {\"replicas\": %u, \"intensity\": %u,"
                     " \"mode\": \"%s\", \"trials\": %llu,\n",
                     c.replicas, c.intensity, c.modeName.c_str(),
                     static_cast<unsigned long long>(c.trials));
        writeCounters(f, c, "     ");
        std::fprintf(f, "}%s\n", i + 1 < res.cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"digest\": \"%016llx\"\n}\n",
                 static_cast<unsigned long long>(res.digest));
    std::fclose(f);
    std::cout << "\nwrote " << path << "\n";
    return true;
}

/** True for the three checkpointing baselines. */
inline bool
isBaseline(lightpc::net::PersistMode mode)
{
    using lightpc::net::PersistMode;
    return mode == PersistMode::SysPc || mode == PersistMode::SCheckPc
           || mode == PersistMode::ACheckPc;
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
