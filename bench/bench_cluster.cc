/**
 * @file
 * Fleet-level availability of a replicated KV cluster under
 * rack-correlated cut storms (the paper's full system persistence
 * argument, compounded across machines).
 *
 * runClusterCampaign() on the storm ladder sweeps replica count x
 * storm intensity x all five persistence modes, seedsPerCell seeded
 * trials per cell — each trial a full cluster of LightPC machines
 * behind a load balancer, with primary/backup replication,
 * epoch-numbered elections, and a client fleet measuring availability
 * from the outside. Every cell column (same replicas, intensity, seed
 * index) replays the same storm schedule against each mode, so the
 * comparison is paired. Flags: see kv_campaign.hh (default 10 seeds
 * per cell, BENCH_cluster.json).
 *
 * Anchors (exit nonzero on failure):
 *  - >= 30 cells x seedsPerCell trials actually ran;
 *  - zero lost acked PUTs, zero split-brain epochs, zero divergent
 *    commits, zero invariant violations across the whole campaign;
 *  - in every (replicas, intensity) cell, SnG *and* SnG-OpLog mean
 *    write availability strictly exceeds each checkpointing
 *    baseline's (SysPC, S-CheckPC, A-CheckPC);
 *  - Stop-and-Go rejoiners catch up by delta sync while cold-booting
 *    baselines pay full resyncs.
 *
 * The digest's thread-invariance is checked once, outside the bench:
 * ClusterCampaign.ThreadCountDoesNotChangeTheDigest, and the CI
 * determinism job's 1- vs 4-thread JSON diff.
 */

#include "kv_campaign.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    fault::ClusterCampaignConfig cfg;
    const std::vector<std::string> columns = {
        "write_avail_mean", "write_avail_min", "read_avail_mean",
        "worst_write_gap_ms", "sync_deltas", "sync_fulls",
        "cold_boots", "lost_acked_puts", "split_brain_epochs"};
    const auto campaign = bench::kvCampaign(cfg, columns, {
        .bench = "cluster_availability",
        .out = "BENCH_cluster.json",
        .title = "Cluster availability",
        .what = "replicated KV fleet under rack-correlated cut"
                " storms: failover, catch-up, and write/read"
                " availability",
        .paper = "full system persistence compounds at fleet"
                 " level: a Stop-and-Go replica rejoins by delta"
                 " sync in ~100 ms while checkpointing baselines"
                 " cold-boot and pay a full state resync"
                 " (Sections V-VI)",
        .anchors = [&](const auto &res) {
            const fault::ClusterCell &total = res.total;
            bench::check(total.trials == fault::clusterCampaignTrials(cfg)
                             && total.trials >= 30 * cfg.seedsPerCell,
                         "every grid trial ran ("
                             + std::to_string(total.trials) + ")");
            bench::check(total["lost_acked_puts"] == 0,
                         "zero acked-then-lost PUTs fleet-wide");
            bench::check(total["split_brain_epochs"] == 0,
                         "zero split-brain epochs (no two leaders acked"
                         " one epoch)");
            bench::check(total["divergent_commits"] == 0,
                         "zero divergent commits (one seq, one content)");
            bench::check(total["violations"] == 0,
                         "zero invariant violations across the campaign");

            // Per-column strict separation, plus SnG's worst write gap
            // below every baseline's under the same
            // replicas/intensity/seeds.
            bench::checkPersistentAboveBaselines(
                res, "storm",
                [](const std::string &where, const fault::ClusterCell &sng,
                   const fault::ClusterCell &base) {
                    bench::check(sng["worst_write_gap_ms"]
                                     < base["worst_write_gap_ms"],
                                 where + ": SnG worst write gap below "
                                     + base.modeName + "'s");
                });

            double sngDeltas = 0, baseFulls = 0, baseCold = 0;
            for (const fault::ClusterCell &c : res.cells) {
                if (bench::isBaseline(c.mode)) {
                    baseFulls += c["sync_fulls"];
                    baseCold += c["cold_boots"];
                    continue;
                }
                const std::string where =
                    c.modeName + " replicas=" + std::to_string(c.replicas)
                    + " storm=" + std::to_string(c.intensity);
                sngDeltas += c["sync_deltas"];
                bench::check(c["cold_boots"] == 0,
                             where + ": rode every storm on hold-up (no"
                                     " cold boots)");
                if (c.mode == net::PersistMode::SnG)
                    bench::check(c["read_avail_mean"]
                                     >= c["write_avail_mean"],
                                 where + ": reads no less available than"
                                         " writes (read-only"
                                         " degradation)");
            }
            bench::check(sngDeltas > 0,
                         "Stop-and-Go rejoiners caught up by delta sync");
            bench::check(baseFulls > 0,
                         "cold-booting baselines paid full resyncs");
            bench::check(baseCold > 0,
                         "baseline storms actually forced cold boots");
        },
    });
    return bench::campaignMain(argc, argv, cfg.seed, cfg.threads, campaign);
}
