/**
 * @file
 * Power-cut fault-injection campaign driver.
 *
 * Sweeps seeded power-cut ticks across every persistence mode (SnG,
 * the three checkpoint baselines, and the SnG-OpLog KV fast path) on
 * both measured PSUs, runs
 * recovery after each cut, and asserts the durability invariant: the
 * machine resumes iff the mechanism's commit record beat the rails
 * (and untorn), otherwise it comes up cold — never a third outcome.
 * Emits BENCH_fault.json with per-phase cut-coverage histograms.
 *
 *   fault_campaign_main [--cuts N] [--seed S] [--threads N|-j N]
 *                       [--out FILE]
 *
 * --cuts is per mode and PSU; the default 100 yields 200 seeded cut
 * ticks per persistence mode. The shared flags are campaignMain()'s
 * (campaign_io.hh).
 */

#include <string>
#include <vector>

#include "campaign_io.hh"
#include "fault/campaign.hh"
#include "power/psu.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    using Results = std::vector<fault::CampaignResult>;
    fault::CampaignConfig base;
    base.cuts = 100;
    const bench::Campaign<Results> campaign{
        .bench = "fault_campaign",
        .out = "BENCH_fault.json",
        .title = "Fault campaign",
        .what = "seeded power cuts vs the durability invariant",
        .paper = "LightPC survives AC loss at any instant: resume"
                 " iff the EP-cut committed, else cold boot",
        .flags = {bench::flag("--cuts", "N", base.cuts)},
        .valid = [&] { return base.cuts > 0; },
        .run = [&] {
            const power::PsuModel psus[] = {power::PsuModel::atx(),
                                            power::PsuModel::dellServer()};
            Results results;
            for (const auto run :
                 {fault::runSngCampaign, fault::runSysPcCampaign,
                  fault::runSCheckPcCampaign, fault::runACheckPcCampaign,
                  fault::runOpLogCampaign}) {
                for (const power::PsuModel &psu : psus) {
                    fault::CampaignConfig config = base;
                    config.psu = psu;
                    results.push_back(run(config));
                }
            }
            return results;
        },
        .table = [](const Results &results) {
            for (const fault::CampaignResult &r : results) {
                std::cout << r.mode << "/" << r.psu << ":\n";
                bench::printCounters(fault::campaignCounters(), r);
            }
        },
        .notes = [](const Results &results) {
            std::vector<std::string> notes;
            for (const fault::CampaignResult &r : results)
                notes.insert(notes.end(), r.violationNotes.begin(),
                             r.violationNotes.end());
            return notes;
        },
        // The invariant matrix. Also require the sweep to have
        // exercised every reachable window: all three Stop phases for
        // SnG and the mid-dump window for each baseline.
        .anchors = [](const Results &results) {
            using fault::CutPhase;
            for (const fault::CampaignResult &r : results) {
                const std::string where = r.mode + "/" + r.psu;
                bench::check(r.violations == 0,
                             where + ": zero invariant violations over "
                                 + std::to_string(r.cuts) + " cuts");
                bench::check(r.resumes + r.coldBoots == r.cuts,
                             where + ": every cut resolved to resume or"
                                     " cold boot");
                if (r.mode == "SnG") {
                    bench::check(r.phaseCount(CutPhase::ProcessStop) > 0
                                     && r.phaseCount(CutPhase::DeviceStop) > 0
                                     && r.phaseCount(CutPhase::EpCut) > 0,
                                 where + ": cuts landed in all three Stop"
                                         " phases");
                } else if (r.mode == "SnG-OpLog") {
                    bench::check(r.phaseCount(CutPhase::MidDump) > 0
                                     && r.phaseCount(CutPhase::CommitWindow)
                                            > 0,
                                 where + ": cuts landed both mid-append"
                                         " and inside a group commit's"
                                         " tail store");
                } else {
                    bench::check(r.phaseCount(CutPhase::MidDump) > 0,
                                 where + ": cuts landed mid-dump");
                }
            }
        },
        .json = [&](bench::JsonWriter &json, const Results &results) {
            std::uint64_t violations = 0;
            for (const fault::CampaignResult &r : results)
                violations += r.violations;
            json.field("cuts_per_mode_psu", base.cuts)
                .field("seed", base.seed)
                .field("threads", base.threads)
                .field("total_violations", violations)
                .array("campaigns");
            for (const fault::CampaignResult &r : results)
                json.object()
                    .field("mode", r.mode)
                    .field("psu", r.psu)
                    .counters(fault::campaignCounters(), r)
                    .digest(r.digest)
                    .close();
        },
    };
    return bench::campaignMain(argc, argv, base.seed, base.threads, campaign);
}
