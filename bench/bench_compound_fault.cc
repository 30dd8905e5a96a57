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
 * The shared flags are campaignMain()'s (campaign_io.hh). The
 * campaign digest is identical at any thread count, which
 * ParallelDeterminism.CompoundCampaignDigestIsThreadInvariant and the
 * CI determinism job's 1- vs 4-thread JSON diff check.
 */

#include <iostream>
#include <string>

#include "campaign_io.hh"
#include "fault/compound.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    fault::CompoundConfig cfg;
    const bench::Campaign<fault::CompoundResult> campaign{
        .bench = "compound_fault",
        .out = "BENCH_compound.json",
        .title = "Compound failures",
        .what = "nested cuts, brownouts, storms, supervised recovery",
        .paper = "full system persistence must hold when the next"
                 " outage lands inside the recovery from the last",
        .flags = {bench::flag("--trials", "N", cfg.trials)},
        .valid = [&] { return cfg.trials > 0; },
        .run = [&] { return fault::runCompoundCampaign(cfg); },
        .table = [](const auto &r) {
            std::cout << "PSU " << r.psu << ":\n";
            bench::printCounters(fault::compoundCounters(), r);
        },
        .notes = [](const auto &r) { return r.violationNotes; },
        // The acceptance matrix.
        .anchors = [&](const auto &r) {
            bench::check(r.violations == 0,
                         "zero durability/SDC/convergence violations over "
                             + std::to_string(r.trials) + " trials");
            bench::check(r.trials >= 500 || cfg.trials < 500,
                         "campaign ran the full default trial count");

            bool all_stop = true;
            for (std::size_t p = 1; p < r.stopPhaseCuts.size(); ++p)
                all_stop = all_stop && r.stopPhaseCuts[p] > 0;
            bench::check(all_stop,
                         "cuts landed in every Stop drain sub-phase");

            using pecos::GoSubPhase;
            bench::check(r.goPhaseCount(GoSubPhase::DeviceRestore) > 0
                             && r.goPhaseCount(GoSubPhase::ProcessThaw) > 0
                             && r.goPhaseCount(GoSubPhase::Complete) > 0,
                         "cuts landed mid context-restore, mid"
                         " process-thaw, and post-convergence");
            bench::check(r.tornResumes > 0,
                         "torn resumes were produced and replayed");
            bench::check(r.idempotenceChecks == r.goCutTrials,
                         "every Go-cut trial ran the double-resume"
                         " idempotence proof");

            bench::check(r.abortedStops > 0
                             && r.abortContinues == r.abortedStops,
                         "brownout aborts resumed in place and survived"
                         " the next persistence cycle");
            bench::check(r.baselineRetries > 0 && r.baselineRecoveries > 0,
                         "baseline dumps retried through the sag with"
                         " capped backoff and recovered");

            bench::check(r.stormTrials > 0
                             && r.stormCutsTotal >= 3 * r.stormTrials,
                         "every storm carried at least three cuts");
            bench::check(r.maxCutEpochs >= 3,
                         "a single store survived >= 3 durability epochs");

            bench::check(r.oplogTrials > 0
                             && r.oplogReplayChecks == r.oplogTrials,
                         "every op-log trial ran the two-copy"
                         " byte-identity replay proof");
            bench::check(r.oplogTornTails > 0,
                         "op-log cuts produced torn tails that recovery"
                         " discarded");
            bench::check(r.oplogRecordsReplayed > 0,
                         "op-log recoveries replayed committed records");
        },
        .json = [&](bench::JsonWriter &json, const auto &r) {
            json.field("seed", cfg.seed)
                .field("threads", cfg.threads)
                .field("psu", r.psu)
                .counters(fault::compoundCounters(), r)
                .digest(r.digest);
        },
    };
    return bench::campaignMain(argc, argv, cfg.seed, cfg.threads, campaign);
}
