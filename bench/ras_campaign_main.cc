/**
 * @file
 * Media-error RAS campaign driver.
 *
 * Sweeps raw bit-error rate x media wear x machine-check policy,
 * with seeded trials per cell; every trial runs demand traffic with
 * the patrol scrubber interleaved, escalates uncorrectables into the
 * MCE handler, and finishes with an SnG stop/resume (a fraction of
 * trials also lose power mid-stop). Asserts the RAS invariant: zero
 * silent data corruption — every media fault resolves to a counted
 * correction, a retirement, or a contained machine check. Emits
 * BENCH_ras.json.
 *
 *   ras_campaign_main [--seeds N] [--ops N] [--seed S]
 *                     [--threads N|-j N] [--out FILE]
 *
 * --seeds is per (ber, wear, policy) cell; the default 32 yields
 * 4 x 2 x 2 x 32 = 512 seeded trials. The shared flags are
 * campaignMain()'s (campaign_io.hh).
 */

#include <cstdio>
#include <string>

#include "campaign_io.hh"
#include "fault/ras_campaign.hh"
#include "stats/table.hh"

using namespace lightpc;

namespace
{

std::string
fmtRate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0e", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    fault::RasCampaignConfig cfg;
    const bench::Campaign<fault::RasCampaignResult> campaign{
        .bench = "ras_campaign",
        .out = "BENCH_ras.json",
        .title = "RAS campaign",
        .what = "seeded media faults vs the zero-SDC invariant",
        .paper = "LightPC Section V-A / VIII: ECC corrects, scrub"
                 " retires, the MCE contains or cold-boots —"
                 " never silent corruption",
        .flags = {bench::flag("--seeds", "N", cfg.seedsPerCell),
                  bench::flag("--ops", "N", cfg.opsPerTrial)},
        .valid = [&] { return cfg.seedsPerCell > 0 && cfg.opsPerTrial > 0; },
        .run = [&] { return fault::runRasCampaign(cfg); },
        .table = [](const auto &r) {
            const std::vector<std::string> columns = {
                "trials", "checked_reads", "xcc_corrections",
                "rs_corrections", "uncorrectable", "retired",
                "mce_contained", "mce_cold_boots", "sdc"};
            stats::Table table(
                bench::row({"ber", "wear", "policy"}, columns));
            for (const fault::RasCell &c : r.cells)
                table.addRow(bench::row(
                    {fmtRate(c.ber), fmtRate(c.wear), c.policy},
                    bench::counterCells(fault::rasCellCounters(), c,
                                        columns)));
            table.print(std::cout);

            std::cout << "\ntotals:\n";
            bench::printCounters(fault::rasCounters(), r);
        },
        .notes = [](const auto &r) { return r.violationNotes; },
        .anchors = [&](const auto &r) {
            const std::uint64_t expected_trials = cfg.bers.size()
                * cfg.wearLevels.size() * 2 * cfg.seedsPerCell;
            bench::check(r.trials == expected_trials,
                         "every cell ran its seeded trials ("
                             + std::to_string(r.trials) + ")");
            // The checked-in artifact must come from a full-size run;
            // CI smoke runs (--seeds 2) are exempt from the floor.
            if (cfg.seedsPerCell >= 32)
                bench::check(r.trials >= 500,
                             "campaign ran >= 500 seeded trials ("
                                 + std::to_string(r.trials) + ")");
            bench::check(r.sdcEvents == 0,
                         "zero silent-data-corruption events over "
                             + std::to_string(r.checkedReads)
                             + " checked reads");
            bench::check(r.violations == 0,
                         "zero durability-invariant violations");
            bench::check(r.correctedReads > 0 && r.symbolCorrections > 0,
                         "both ECC tiers exercised (XCC + RS erasure)");
            bench::check(r.mceContained > 0 && r.mceColdBoots > 0,
                         "both MCE policy arms exercised");
            bench::check(r.linesRetired > 0 && r.scrubRepairs > 0,
                         "scrubber repaired and retirement engaged");
            bench::check(r.containSurvivedSng > 0,
                         "a contained MCE (line retired) survived SnG"
                         " stop/resume");
            bench::check(r.cutTrials > 0,
                         "combined power-cut + media-fault trials ran");
            bench::check(r.resumes + r.coldBootResumes == r.trials,
                         "every trial resolved to resume or cold boot");
        },
        .json = [&](bench::JsonWriter &json, const auto &r) {
            json.field("seed", cfg.seed)
                .field("threads", cfg.threads)
                .digest(r.digest)
                .field("ops_per_trial", cfg.opsPerTrial)
                .counters(fault::rasCounters(), r)
                .array("cells");
            for (const fault::RasCell &c : r.cells)
                json.object()
                    .field("ber", c.ber, "%g")
                    .field("wear", c.wear, "%g")
                    .field("policy", c.policy)
                    .counters(fault::rasCellCounters(), c)
                    .close();
        },
    };
    return bench::campaignMain(argc, argv, cfg.seed, cfg.threads, campaign);
}
