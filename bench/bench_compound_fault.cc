/**
 * @file
 * Compound-failure campaign driver.
 *
 * Runs the seeded compound campaign — cut-during-Stop at every drain
 * sub-phase, cut-during-Go with the double-resume idempotence proof,
 * brownout aborts and capped-backoff baseline retries, >= 3-cut
 * Poisson storms against a single multi-epoch backing store, and
 * op-log torn-tail recovery with a two-copy byte-identity proof — and
 * asserts the extended durability invariant: every failure pattern
 * converges onto the durable EP-cut or a cold boot, never a third
 * outcome. Emits BENCH_compound.json.
 *
 *   bench_compound_fault [--trials N] [--seed S] [--threads N|-j N]
 *                        [--out FILE]
 *
 * --threads 0 (the default) uses every host thread; the campaign
 * digest is identical at any thread count.
 */

#include <iostream>
#include <string>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/compound.hh"
#include "sim/parallel.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    std::uint64_t trials = 500;
    std::uint64_t seed = 2026;
    unsigned threads = 0;
    std::string out = "BENCH_compound.json";

    const char *flags = "[--trials N] [--seed S] [--threads N|-j N]"
                        " [--out FILE]";
    bench::parseFlags(argc, argv, flags,
                      {bench::flag("--trials", trials),
                       bench::flag("--seed", seed),
                       bench::threadsFlag(threads),
                       bench::flag("--out", out)});
    if (trials == 0)
        bench::usage(argv[0], flags);
    threads = sim::resolveThreads(threads);

    bench::banner("Compound failures",
                  "nested cuts, brownouts, storms, supervised recovery");
    bench::paperRef("full system persistence must hold when the next"
                    " outage lands inside the recovery from the last");

    fault::CompoundConfig config;
    config.trials = trials;
    config.seed = seed;
    config.threads = threads;
    const fault::CompoundResult r = fault::runCompoundCampaign(config);

    std::cout << "PSU " << r.psu << ":\n";
    bench::printCounters(fault::compoundCounters(), r);
    for (const std::string &note : r.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";

    // The acceptance matrix.
    bench::check(r.violations == 0,
                 "zero durability/SDC/convergence violations over "
                     + std::to_string(r.trials) + " trials");
    bench::check(r.trials >= 500 || trials < 500,
                 "campaign ran the full default trial count");

    using pecos::StopSubPhase;
    bool all_stop = true;
    for (std::size_t p = 1; p < r.stopPhaseCuts.size(); ++p)
        all_stop = all_stop && r.stopPhaseCuts[p] > 0;
    bench::check(all_stop,
                 "cuts landed in every Stop drain sub-phase");

    using pecos::GoSubPhase;
    bench::check(r.goPhaseCount(GoSubPhase::DeviceRestore) > 0
                     && r.goPhaseCount(GoSubPhase::ProcessThaw) > 0
                     && r.goPhaseCount(GoSubPhase::Complete) > 0,
                 "cuts landed mid context-restore, mid process-thaw,"
                 " and post-convergence");
    bench::check(r.tornResumes > 0,
                 "torn resumes were produced and replayed");
    bench::check(r.idempotenceChecks == r.goCutTrials,
                 "every Go-cut trial ran the double-resume"
                 " idempotence proof");

    bench::check(r.abortedStops > 0
                     && r.abortContinues == r.abortedStops,
                 "brownout aborts resumed in place and survived the"
                 " next persistence cycle");
    bench::check(r.baselineRetries > 0 && r.baselineRecoveries > 0,
                 "baseline dumps retried through the sag with capped"
                 " backoff and recovered");

    bench::check(r.stormTrials > 0 && r.stormCutsTotal
                     >= 3 * r.stormTrials,
                 "every storm carried at least three cuts");
    bench::check(r.maxCutEpochs >= 3,
                 "a single store survived >= 3 durability epochs");

    bench::check(r.oplogTrials > 0
                     && r.oplogReplayChecks == r.oplogTrials,
                 "every op-log trial ran the two-copy byte-identity"
                 " replay proof");
    bench::check(r.oplogTornTails > 0,
                 "op-log cuts produced torn tails that recovery"
                 " discarded");
    bench::check(r.oplogRecordsReplayed > 0,
                 "op-log recoveries replayed committed records");

    // Determinism anchors: the same seed must reproduce the same
    // campaign bit-for-bit, and a single-threaded rerun must match
    // the parallel one exactly (the reduction is canonical-order).
    const fault::CompoundResult again = fault::runCompoundCampaign(config);
    bench::check(again.digest == r.digest,
                 "campaign is deterministic under its seed");
    fault::CompoundConfig seq_config = config;
    seq_config.threads = 1;
    const fault::CompoundResult seq =
        fault::runCompoundCampaign(seq_config);
    bench::check(seq.digest == r.digest,
                 "parallel digest equals sequential digest");

    bench::JsonWriter json(out);
    json.field("bench", "compound_fault")
        .field("seed", seed)
        .field("threads", threads)
        .field("psu", r.psu)
        .counters(fault::compoundCounters(), r)
        .digest(r.digest);
    if (!json.finish())
        return 1;

    return bench::result();
}
