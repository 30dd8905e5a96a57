/**
 * @file
 * Fleet-level robustness of the replicated KV cluster under an
 * adversarial network nemesis: lossy links, duplication, reordering
 * jitter, link flaps, and rack-granular partitions — optionally
 * overlapped with power-cut storms — with a client-history
 * linearizability audit over every trial.
 *
 * runClusterCampaign() on the nemesis ladder sweeps nemesis intensity
 * x all five persistence modes at 3 replicas, seedsPerCell seeded
 * trials per cell. The stream column excludes the mode, so every cell
 * column replays the same nemesis + storm schedule against each mode:
 * the availability comparison is paired. Flags: see kv_campaign.hh
 * (default 20 seeds per cell, BENCH_partition.json).
 *
 * Anchors (exit nonzero on failure):
 *  - the full grid ran (intensities x modes x seeds trials);
 *  - the nemesis actually engaged: messages dropped, duplicated,
 *    reordered, partition cuts, and flap cuts all nonzero;
 *  - the hardening engaged: retransmissions and pre-vote rounds ran;
 *  - zero lost acked PUTs, split-brain epochs, divergent commits;
 *  - zero linearizability violations (lost updates, order
 *    inversions, phantom reads, value divergences) across every
 *    audited history;
 *  - in every intensity cell, SnG *and* SnG-OpLog mean write
 *    availability strictly exceeds each checkpointing baseline's.
 *
 * The digest's thread-invariance is checked once, outside the bench:
 * PartitionCampaign.ThreadCountDoesNotChangeTheDigest, and the CI
 * determinism job's 1- vs 4-thread JSON diff.
 */

#include "kv_campaign.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    fault::ClusterCampaignConfig cfg;
    cfg.ladder = fault::Ladder::Nemesis;
    cfg.replicaCounts = {3};
    cfg.seedsPerCell = 20;
    const std::vector<std::string> columns = {
        "write_avail_mean", "write_avail_min", "worst_write_gap_ms",
        "msgs_dropped", "msgs_duplicated", "msgs_reordered",
        "partition_cuts", "flap_cuts", "retransmits", "stale_reads",
        "violations"};
    const auto campaign = bench::kvCampaign(cfg, columns, {
        .bench = "partition_nemesis",
        .out = "BENCH_partition.json",
        .title = "Partition nemesis",
        .what = "replicated KV fleet under lossy links, reordering,"
                " link flaps, and rack partitions, with a"
                " linearizability audit over every client history",
        .paper = "full system persistence must survive the network"
                 " too: a deposed leader that is partitioned AND"
                 " power-cycled rejoins without losing one acked"
                 " write (Sections V-VI, hardened protocol)",
        .anchors = [&](const auto &res) {
            const fault::ClusterCell &total = res.total;
            auto count = [&total](const char *name) {
                return std::to_string(static_cast<std::uint64_t>(total[name]));
            };
            bench::check(total.trials == fault::clusterCampaignTrials(cfg)
                             && total.trials >= cfg.intensities.size()
                                                    * cfg.modes.size()
                                                    * cfg.seedsPerCell,
                         "every grid trial ran ("
                             + std::to_string(total.trials) + ")");
            bench::check(total["msgs_dropped"] > 0
                             && total["msgs_duplicated"] > 0
                             && total["msgs_reordered"] > 0,
                         "nemesis engaged: messages dropped ("
                             + count("msgs_dropped") + "), duplicated ("
                             + count("msgs_duplicated") + "), reordered ("
                             + count("msgs_reordered") + ")");
            bench::check(total["partition_cuts"] > 0 && total["flap_cuts"] > 0,
                         "partitions (" + count("partition_cuts")
                             + " cuts) and flaps (" + count("flap_cuts")
                             + " cuts) both fired");
            bench::check(total["retransmits"] > 0,
                         "retransmission path engaged (" + count("retransmits")
                             + " re-sends)");
            bench::check(total["pre_vote_rounds"] > 0,
                         "pre-vote probes ran (" + count("pre_vote_rounds")
                             + " rounds, " + count("elections_suppressed")
                             + " elections suppressed)");
            bench::check(total["audited_writes"] > 0
                             && total["audited_reads"] > 0,
                         "linearizability audit saw traffic ("
                             + count("audited_writes") + " writes, "
                             + count("audited_reads") + " reads)");

            bench::check(total["lost_acked_puts"] == 0,
                         "zero acked-then-lost PUTs fleet-wide");
            bench::check(total["split_brain_epochs"] == 0,
                         "zero split-brain epochs (duplicate-tolerant ack"
                         " ledger)");
            bench::check(total["divergent_commits"] == 0,
                         "zero divergent commits (one seq, one content)");
            bench::check(total["lost_updates"] == 0
                             && total["order_inversions"] == 0
                             && total["phantom_reads"] == 0
                             && total["value_divergences"] == 0,
                         "zero linearizability violations across every"
                         " audited history");
            bench::check(total["violations"] == 0,
                         "zero invariant violations across the campaign");

            // Per-column strict separation under the same nemesis schedule.
            bench::checkPersistentAboveBaselines(res, "nemesis");
        },
    });
    return bench::campaignMain(argc, argv, cfg.seed, cfg.threads, campaign);
}
