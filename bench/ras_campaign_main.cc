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
 * 4 x 2 x 2 x 32 = 512 seeded trials. --threads 0 (the default)
 * uses every host thread; results and digest are identical at any
 * thread count.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/ras_campaign.hh"
#include "sim/parallel.hh"
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
    fault::RasCampaignConfig config;
    std::string out = "BENCH_ras.json";

    const char *flags = "[--seeds N] [--ops N] [--seed S]"
                        " [--threads N|-j N] [--out FILE]";
    bench::parseFlags(argc, argv, flags,
                      {bench::flag("--seeds", config.seedsPerCell),
                       bench::flag("--ops", config.opsPerTrial),
                       bench::flag("--seed", config.seed),
                       bench::threadsFlag(config.threads),
                       bench::flag("--out", out)});
    if (config.seedsPerCell == 0 || config.opsPerTrial == 0)
        bench::usage(argv[0], flags);
    config.threads = sim::resolveThreads(config.threads);

    bench::banner("RAS campaign",
                  "seeded media faults vs the zero-SDC invariant");
    bench::paperRef("LightPC Section V-A / VIII: ECC corrects, scrub"
                    " retires, the MCE contains or cold-boots —"
                    " never silent corruption");

    const fault::RasCampaignResult r = fault::runRasCampaign(config);

    const std::vector<std::string> columns = {
        "trials", "checked_reads", "xcc_corrections", "rs_corrections",
        "uncorrectable", "retired", "mce_contained", "mce_cold_boots",
        "sdc"};
    stats::Table table(bench::row({"ber", "wear", "policy"}, columns));
    for (const fault::RasCell &c : r.cells)
        table.addRow(bench::row(
            {fmtRate(c.ber), fmtRate(c.wear), c.policy},
            bench::counterCells(fault::rasCellCounters(), c, columns)));
    table.print(std::cout);

    std::cout << "\ntotals:\n";
    bench::printCounters(fault::rasCounters(), r);
    for (const std::string &note : r.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";

    const std::uint64_t expected_trials = config.bers.size()
        * config.wearLevels.size() * 2 * config.seedsPerCell;
    bench::check(r.trials == expected_trials,
                 "every cell ran its seeded trials ("
                 + std::to_string(r.trials) + ")");
    // The checked-in artifact must come from a full-size run; CI
    // smoke runs (--seeds 2) are exempt from the floor.
    if (config.seedsPerCell >= 32)
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

    bench::JsonWriter json(out);
    json.field("bench", "ras_campaign")
        .field("seed", config.seed)
        .field("threads", config.threads)
        .digest(r.digest)
        .field("ops_per_trial", config.opsPerTrial)
        .counters(fault::rasCounters(), r)
        .array("cells");
    for (const fault::RasCell &c : r.cells)
        json.object()
            .field("ber", c.ber, "%g")
            .field("wear", c.wear, "%g")
            .field("policy", c.policy)
            .counters(fault::rasCellCounters(), c)
            .close();
    if (!json.finish())
        return 1;

    return bench::result();
}
