/**
 * @file
 * Energy-storage provisioning bench: how much stored energy must a
 * machine carry — ATX bulk cap + supercap + LiFePO4 UPS, with
 * per-machine aging spread — for each persistence mode to ride out
 * single cuts, three-cut storms, and brownout sieges?
 *
 * Sweeps fault::runEnergyCampaign over storage sizing x persistence
 * mode x outage intensity, prints the per-cell survival grid and the
 * headline minimum-provisioning table, and writes BENCH_energy.json.
 *
 *   bench_energy [--seeds N] [--aging CYCLES] [--scales S1,S2,...]
 *       [--seed S] [--threads N|-j N] [--out FILE]
 *
 * The shared flags are campaignMain()'s (campaign_io.hh).
 *
 * Anchors (exit nonzero on failure):
 *  - every grid trial ran, zero durability violations fleet-wide;
 *  - SnG *and* SnG+OpLog meet every intensity at a strictly smaller
 *    provisioned storage scale than each checkpointing baseline;
 *  - the storm rungs exercised the EnergyGuard: Stops were deferred
 *    on a weak plane and later admitted (and every admitted Stop
 *    landed its commit — that is folded into the violation count);
 *  - the brownout siege produced proactive-EP-cut-saved-the-machine
 *    trials (the in-trial counterfactual would have died).
 *
 * The digest's thread-invariance is checked once, outside the bench:
 * EnergyCampaign.DigestIsInvariantAcrossThreadCounts, and the CI
 * determinism job's 1- vs 4-thread JSON diff.
 */

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign_io.hh"
#include "fault/energy_campaign.hh"
#include "stats/table.hh"

using namespace lightpc;

namespace
{

/**
 * Parse "S1,S2,..." into @p scales, each piece a bench::parseNumber
 * double. @return false (leaving @p scales alone) if any piece is not.
 */
bool
parseScales(std::string_view arg, std::vector<double> &scales)
{
    std::vector<double> parsed;
    for (;;) {
        const std::size_t comma = arg.find(',');
        if (!bench::parseNumber(arg.substr(0, comma),
                                parsed.emplace_back()))
            return false;
        if (comma == std::string_view::npos)
            break;
        arg.remove_prefix(comma + 1);
    }
    scales = std::move(parsed);
    return true;
}

const fault::EnergyProvision *
provisionOf(const fault::EnergyCampaignResult &res,
            net::PersistMode mode, std::uint32_t intensity)
{
    for (const fault::EnergyProvision &p : res.provisioning)
        if (p.mode == mode && p.intensity == intensity)
            return &p;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    fault::EnergyCampaignConfig cfg;
    const bench::Campaign<fault::EnergyCampaignResult> campaign{
        .bench = "energy_provisioning",
        .out = "BENCH_energy.json",
        .title = "Energy provisioning",
        .what = "state-of-charge-aware persistence across the"
                " storage-sizing sweep: single cuts, cut storms,"
                " and brownout sieges",
        .paper = "full system persistence needs only enough"
                 " stored energy to finish one Stop: capacitance"
                 " sized for the worst-case drain, not for ride-"
                 "through (Sections III-IV)",
        .flags = {bench::flag("--seeds", "N", cfg.seedsPerCell),
                  bench::flag("--aging", "CYCLES", cfg.agingSpreadCycles),
                  {"--scales", "S1,S2,...",
                   [&cfg](const char *s) {
                       return parseScales(s, cfg.sizingScales);
                   }}},
        .valid = [&] {
            return cfg.seedsPerCell > 0 && cfg.agingSpreadCycles >= 0.0;
        },
        .run = [&] {
            std::cout << "sweeping " << cfg.sizingScales.size()
                      << " storage scales x " << cfg.intensities.size()
                      << " intensities x " << cfg.modes.size()
                      << " modes x " << cfg.seedsPerCell << " seeds = "
                      << fault::energyCampaignTrials(cfg)
                      << " trials on " << cfg.threads
                      << " thread(s)...\n\n";
            return fault::runEnergyCampaign(cfg);
        },
        .table = [](const auto &res) {
            const std::vector<std::string> columns = {
                "trials", "survived", "commits_durable", "resumes",
                "cold_boots", "stops_deferred", "proactive_saves",
                "min_soc_permille", "violations"};
            stats::Table table(
                bench::row({"scale", "joules", "storm", "mode"}, columns));
            for (const fault::EnergyCellStats &c : res.cells)
                table.addRow(bench::row(
                    {stats::Table::num(c.scale, 3),
                     stats::Table::num(c.provisionedJoules),
                     std::to_string(c.intensity),
                     net::persistModeName(c.mode)},
                    bench::counterCells(fault::energyCounters(), c,
                                        columns)));
            table.print(std::cout);

            std::cout << "\nminimum provisioned storage per mode:\n";
            stats::Table prov({"mode", "storm", "min scale", "joules"});
            for (const fault::EnergyProvision &p : res.provisioning) {
                prov.addRow({net::persistModeName(p.mode),
                             std::to_string(p.intensity),
                             p.met ? stats::Table::num(p.scale) : "unmet",
                             p.met ? stats::Table::num(p.joules) : "-"});
            }
            prov.print(std::cout);
        },
        .notes = [](const auto &res) { return res.violationNotes; },
        .anchors = [&](const auto &res) {
            bench::check(res.total.trials == fault::energyCampaignTrials(cfg),
                         "every grid trial ran ("
                             + std::to_string(res.total.trials) + ")");
            bench::check(res.total.violations == 0,
                         "zero durability violations fleet-wide");

            // The headline: Stop-and-Go survives every intensity rung at
            // strictly less provisioned storage than every checkpointing
            // baseline under the same outage schedules.
            for (const std::uint32_t intensity : cfg.intensities) {
                const std::string where =
                    "storm=" + std::to_string(intensity);
                const fault::EnergyProvision *sng =
                    provisionOf(res, net::PersistMode::SnG, intensity);
                const fault::EnergyProvision *oplog =
                    provisionOf(res, net::PersistMode::OpLog, intensity);
                bench::check(sng && sng->met && oplog && oplog->met,
                             where + ": SnG and SnG-OpLog met the sweep");
                if (!sng || !sng->met || !oplog || !oplog->met)
                    continue;
                for (const net::PersistMode mode : cfg.modes) {
                    if (!bench::isBaseline(mode))
                        continue;
                    const fault::EnergyProvision *base =
                        provisionOf(res, mode, intensity);
                    const std::string name = net::persistModeName(mode);
                    if (base && base->met) {
                        bench::check(sng->scale < base->scale,
                                     where + ": SnG provisions less storage"
                                         " than " + name);
                        bench::check(oplog->scale < base->scale,
                                     where + ": SnG-OpLog provisions less"
                                         " storage than " + name);
                    } else {
                        bench::check(true,
                                     where + ": " + name + " never met the"
                                         " sweep (SnG did at scale "
                                         + std::to_string(sng->scale) + ")");
                    }
                }
            }

            bench::check(res.total.stopsDeferred > 0,
                         "the guard deferred voluntary Stops on weak planes");
            bench::check(res.total.deferredStopsAdmitted > 0,
                         "deferred Stops were admitted once recharged");
            bench::check(res.total.proactiveStops > 0,
                         "low-charge warnings fired proactive EP-cuts");
            bench::check(res.total.proactiveSaves > 0,
                         "proactive EP-cuts saved machines the"
                         " counterfactual would have lost");
        },
        .json = [&](bench::JsonWriter &json, const auto &res) {
            json.field("seed", cfg.seed)
                .field("seeds_per_cell", cfg.seedsPerCell)
                .field("aging_spread_cycles", cfg.agingSpreadCycles,
                       "%.1f")
                .field("threads", cfg.threads)
                .counters(fault::energyCounters(), res.total)
                .array("provisioning");
            for (const fault::EnergyProvision &p : res.provisioning)
                json.object()
                    .field("mode", net::persistModeName(p.mode))
                    .field("intensity", p.intensity)
                    .field("met", p.met)
                    .field("min_scale", p.scale, "%.3f")
                    .field("min_joules", p.joules, "%.4f")
                    .close();
            json.close().array("cells");
            for (const fault::EnergyCellStats &c : res.cells)
                json.object()
                    .field("scale", c.scale, "%.3f")
                    .field("joules", c.provisionedJoules, "%.4f")
                    .field("intensity", c.intensity)
                    .field("mode", net::persistModeName(c.mode))
                    .counters(fault::energyCounters(), c)
                    .close();
            json.close().digest(res.digest);
        },
    };
    return bench::campaignMain(argc, argv, cfg.seed, cfg.threads, campaign);
}
