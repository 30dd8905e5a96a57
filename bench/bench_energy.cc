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
 *   bench_energy [--seeds N] [--seed S] [--aging CYCLES]
 *       [--out FILE] [--threads N|-j N]
 *
 * Anchors (exit nonzero on failure):
 *  - every grid trial ran, zero durability violations fleet-wide;
 *  - SnG *and* SnG+OpLog meet every intensity at a strictly smaller
 *    provisioned storage scale than each checkpointing baseline;
 *  - the storm rungs exercised the EnergyGuard: Stops were deferred
 *    on a weak plane and later admitted (and every admitted Stop
 *    landed its commit — that is folded into the violation count);
 *  - the brownout siege produced proactive-EP-cut-saved-the-machine
 *    trials (the in-trial counterfactual would have died);
 *  - the campaign digest is bit-identical when re-run at a different
 *    --threads value.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/energy_campaign.hh"
#include "sim/parallel.hh"
#include "stats/table.hh"

using namespace lightpc;

namespace
{

std::vector<double>
parseScales(const char *arg)
{
    std::vector<double> scales;
    const std::string s(arg);
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t next = s.find(',', pos);
        if (next == std::string::npos)
            next = s.size();
        scales.push_back(std::strtod(s.substr(pos, next - pos).c_str(),
                                     nullptr));
        pos = next + 1;
    }
    return scales;
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
    cfg.threads = 0;  // every host thread unless --threads says otherwise
    std::string out = "BENCH_energy.json";

    const char *flags = "[--seeds N] [--seed S] [--aging CYCLES]"
                        " [--scales S1,S2,...] [--out FILE]"
                        " [--threads N|-j N]";
    bench::parseFlags(
        argc, argv, flags,
        {bench::flag("--seeds", cfg.seedsPerCell),
         bench::flag("--seed", cfg.seed),
         bench::flag("--aging", cfg.agingSpreadCycles),
         {"--scales", nullptr,
          [&cfg](const char *s) {
              if (std::vector<double> scales = parseScales(s);
                  !scales.empty())
                  cfg.sizingScales = scales;
          }},
         bench::flag("--out", out), bench::threadsFlag(cfg.threads)});
    if (cfg.seedsPerCell == 0 || cfg.agingSpreadCycles < 0.0)
        bench::usage(argv[0], flags);
    cfg.threads = sim::resolveThreads(cfg.threads);

    bench::banner("Energy provisioning",
                  "state-of-charge-aware persistence across the"
                  " storage-sizing sweep: single cuts, cut storms,"
                  " and brownout sieges");
    bench::paperRef("full system persistence needs only enough"
                    " stored energy to finish one Stop: capacitance"
                    " sized for the worst-case drain, not for ride-"
                    "through (Sections III-IV)");

    const std::uint64_t trials = fault::energyCampaignTrials(cfg);
    std::cout << "sweeping " << cfg.sizingScales.size()
              << " storage scales x " << cfg.intensities.size()
              << " intensities x " << cfg.modes.size() << " modes x "
              << cfg.seedsPerCell << " seeds = " << trials
              << " trials on " << cfg.threads << " thread(s)...\n";

    const fault::EnergyCampaignResult res =
        fault::runEnergyCampaign(cfg);

    // Determinism anchor: same grid, different worker count.
    fault::EnergyCampaignConfig other = cfg;
    other.threads = cfg.threads == 1 ? 2 : 1;
    std::cout << "repeating the sweep on " << other.threads
              << " thread(s) (determinism)...\n\n";
    const fault::EnergyCampaignResult repeat =
        fault::runEnergyCampaign(other);

    const std::vector<std::string> columns = {
        "trials", "survived", "commits_durable", "resumes", "cold_boots",
        "stops_deferred", "proactive_saves", "min_soc_permille",
        "violations"};
    stats::Table table(
        bench::row({"scale", "joules", "storm", "mode"}, columns));
    for (const fault::EnergyCellStats &c : res.cells)
        table.addRow(bench::row(
            {stats::Table::num(c.scale, 3),
             stats::Table::num(c.provisionedJoules),
             std::to_string(c.intensity), net::persistModeName(c.mode)},
            bench::counterCells(fault::energyCounters(), c, columns)));
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

    for (const std::string &note : res.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";

    // --- anchors --------------------------------------------------

    bench::check(res.total.trials == trials,
                 "every grid trial ran ("
                     + std::to_string(res.total.trials)
                     + ")");
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
    bench::check(res.digest == repeat.digest,
                 "digest bit-identical across thread counts");

    // --- JSON -----------------------------------------------------

    bench::JsonWriter json(out);
    json.field("bench", "energy_provisioning")
        .field("seed", cfg.seed)
        .field("seeds_per_cell", cfg.seedsPerCell)
        .field("aging_spread_cycles", cfg.agingSpreadCycles, "%.1f")
        .field("threads", cfg.threads)
        .field("deterministic", res.digest == repeat.digest)
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
    if (!json.finish())
        return 1;

    return bench::result();
}
