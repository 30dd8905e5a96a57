/**
 * @file
 * Ablation — instruction fetch through the 16 KB L1 I$ (Table I).
 *
 * The prototype's cores carry 16 KB instruction caches and fetch
 * their code from OC-PMEM like everything else. The evaluation
 * figures are data-traffic-bound, so the main model leaves fetch
 * off; this ablation turns it on and sweeps the code footprint to
 * show when instruction misses start to matter on PRAM-backed
 * memory — and that LightPC's read path keeps even a thrashing
 * frontend close to the DRAM machine (fetches are reads, the access
 * class PRAM is good at).
 */

#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "platform/system.hh"
#include "stats/table.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

using namespace lightpc;
using namespace lightpc::platform;

namespace
{

struct Point
{
    double ipc;
    double fetchStallShare;
};

Point
run(PlatformKind kind, std::uint64_t code_bytes)
{
    SystemConfig config;
    config.kind = kind;
    config.scaleDivisor = 30000;
    System system(config);

    workload::SyntheticConfig wconfig;
    wconfig.scaleDivisor = config.scaleDivisor;
    const auto &spec = workload::findWorkload("gcc");
    workload::SyntheticStream stream(spec, wconfig, 0,
                                     System::workloadBase);

    // Rebuild core 0 with instruction fetch enabled.
    cpu::CoreParams params;
    params.modelIFetch = true;
    params.branchProbability = 0.08;
    cpu::Core core(system.eventQueue(), params, system.memoryPort());
    core.setCodeRegion(std::uint64_t(3) << 30, code_bytes);
    core.run(stream, 0);
    system.eventQueue().run();

    Point p;
    p.ipc = core.ipc();
    p.fetchStallShare =
        static_cast<double>(core.stats().fetchStallTicks)
        / static_cast<double>(core.localTime());
    return p;
}

} // namespace

int
main()
{
    bench::banner("Ablation", "instruction-fetch footprint sweep"
                              " (16 KB I$)");

    const std::uint64_t footprints[] = {
        8 << 10, 64 << 10, 512 << 10, 4 << 20};
    stats::Table table({"code size", "LightPC IPC", "fetch stalls",
                        "LegacyPC IPC", "fetch stalls"});
    std::vector<Point> light_points, legacy_points;
    for (const std::uint64_t bytes : footprints) {
        const Point light = run(PlatformKind::LightPC, bytes);
        const Point legacy = run(PlatformKind::LegacyPC, bytes);
        light_points.push_back(light);
        legacy_points.push_back(legacy);
        table.addRow(
            {bytes >= (1 << 20)
                 ? std::to_string(bytes >> 20) + "MB"
                 : std::to_string(bytes >> 10) + "KB",
             stats::Table::num(light.ipc, 3),
             stats::Table::percent(light.fetchStallShare, 1),
             stats::Table::num(legacy.ipc, 3),
             stats::Table::percent(legacy.fetchStallShare, 1)});
    }
    table.print(std::cout);
    std::cout << "\n";

    bench::paperRef("Table I: 16 KB I$/D$ per core; code and data"
                    " both live on OC-PMEM");

    bench::check(light_points.front().fetchStallShare < 0.02,
                 "resident code fetches are effectively free");
    bench::check(light_points.back().fetchStallShare
                     > light_points.front().fetchStallShare + 0.05,
                 "thrashing code footprints surface fetch stalls");
    bench::check(light_points.back().ipc
                     > 0.5 * legacy_points.back().ipc,
                 "fetches are reads served at PRAM read speed:"
                 " LightPC stays within 2x of DRAM even while"
                 " thrashing (DRAM's row hits help sequential"
                 " fetch)");
    bench::check(legacy_points.back().fetchStallShare > 0.5,
                 "with no L2, a thrashing frontend dominates on"
                 " either memory — code must fit the 16 KB I$ on"
                 " this class of machine");
    return bench::result();
}
