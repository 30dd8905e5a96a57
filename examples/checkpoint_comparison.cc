/**
 * @file
 * Surviving a power failure four ways.
 *
 * Runs the same HPC workload (AMG) under the four persistence
 * strategies the paper compares and walks through what each one
 * costs — during execution, at the power event, and at recovery.
 * A condensed, narrated version of Figs. 19-21.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "mem/timed_mem.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "stats/table.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

using namespace lightpc;
using namespace lightpc::platform;

namespace
{

constexpr std::uint64_t scale = 25000;

struct Outcome
{
    std::string name;
    Tick exec;          ///< extrapolated benchmark execution
    Tick at_power_down; ///< work needed after the failure signal
    Tick at_recovery;   ///< work needed before the benchmark resumes
    bool survives_atx;  ///< power-down work fits the 16 ms budget
};

Tick
full(Tick measured)
{
    return measured * scale;
}

} // namespace

int
main()
{
    const auto &spec = workload::findWorkload("AMG");
    std::cout << "How " << spec.name
              << " survives a power failure, four ways\n\n";

    std::vector<Outcome> outcomes;

    // --- LightPC: orthogonal persistence --------------------------
    {
        SystemConfig config;
        config.kind = PlatformKind::LightPC;
        config.scaleDivisor = scale;
        System system(config);
        const auto run = system.run(spec);
        const auto stop =
            system.sng().stop(system.eventQueue().now());
        const auto go =
            system.sng().resume(stop.offlineDone + tickMs);
        outcomes.push_back({"LightPC (SnG)", full(run.elapsed),
                            stop.totalTicks(), go.totalTicks(),
                            stop.totalTicks() <= 16 * tickMs});
    }

    // --- SysPC: hibernate images ----------------------------------
    {
        SystemConfig config;
        config.kind = PlatformKind::LegacyPC;
        config.scaleDivisor = scale;
        System system(config);
        const auto run = system.run(spec);
        mem::TimedMem pmem(system.memoryPort());
        persist::ImageCheckpoint syspc(pmem, persist::sysPcKind);
        const std::uint64_t image =
            system.kernel().systemImageBytes();
        const Tick t0 = system.eventQueue().now();
        const Tick dump = syspc.dump(t0, image) - t0;
        const Tick load = syspc.load(t0, image) - t0;
        outcomes.push_back({"SysPC (image)", full(run.elapsed), dump,
                            load, dump <= 16 * tickMs});
    }

    // --- A-CheckPC: per-function checkpoints -----------------------
    {
        SystemConfig config;
        config.kind = PlatformKind::LegacyPC;
        config.scaleDivisor = scale;
        Tick plain;
        {
            System probe(config);
            plain = probe.run(spec).elapsed;
        }
        System system(config);
        workload::SyntheticConfig wconfig;
        wconfig.scaleDivisor = scale;
        auto streams = workload::makeStreams(
            spec, wconfig, system.coreCount(), System::workloadBase);
        persist::ACheckPcParams aparams;
        std::vector<std::unique_ptr<persist::ACheckPcStream>> wrapped;
        std::vector<cpu::InstrStream *> raw;
        for (auto &stream : streams) {
            wrapped.push_back(
                std::make_unique<persist::ACheckPcStream>(*stream,
                                                          aparams));
            raw.push_back(wrapped.back().get());
        }
        const auto run = system.runStreams(raw);
        persist::ImageCosts costs;
        mem::TimedMem pmem(system.memoryPort());
        const Tick recovery = costs.coldReboot
            + (pmem.readSpan(0, 0, 256 << 20) - 0);
        // Checkpoint copies are woven through execution; nothing
        // additional is needed at the power event itself.
        outcomes.push_back({"A-CheckPC", full(run.elapsed) - plain
                                * (scale - 1),
                            0, recovery, true});
        // Note: exec here carries the interleaved checkpoint cost.
        outcomes.back().exec = full(run.elapsed);
    }

    // --- S-CheckPC: periodic BLCR dumps ----------------------------
    {
        SystemConfig config;
        config.kind = PlatformKind::LegacyPC;
        config.scaleDivisor = scale;
        System system(config);
        const auto run = system.run(spec);
        const Tick exec_full = full(run.elapsed);
        mem::TimedMem pmem(system.memoryPort());
        persist::ImageCheckpoint blcr(pmem, persist::sCheckPcKind);
        const std::uint64_t vm =
            (std::uint64_t(7) << 28) + spec.footprintBytes * 6;
        const Tick one_dump =
            blcr.dump(system.eventQueue().now(), vm)
            - system.eventQueue().now();
        const std::uint64_t dumps = std::max<std::uint64_t>(
            1, exec_full / tickSec);
        persist::ImageCosts costs;
        const Tick recovery = costs.coldReboot
            + (blcr.load(0, vm) - 0);
        outcomes.push_back({"S-CheckPC", exec_full + dumps * one_dump,
                            one_dump / 3, recovery, true});
    }

    stats::Table table({"mechanism", "execution(s)",
                        "at power-down", "at recovery",
                        "fits 16ms hold-up?"});
    for (const auto &o : outcomes) {
        auto human = [](Tick t) {
            return t >= tickSec
                ? stats::Table::num(ticksToSec(t), 2) + " s"
                : stats::Table::num(ticksToMs(t), 1) + " ms";
        };
        table.addRow({o.name,
                      stats::Table::num(ticksToSec(o.exec), 2),
                      human(o.at_power_down), human(o.at_recovery),
                      o.survives_atx ? "yes" : "NO - data loss"});
    }
    table.print(std::cout);

    const auto &light = outcomes[0];
    std::cout
        << "\nLightPC executes unencumbered (no checkpoints, no"
           " journals), needs only "
        << ticksToMs(light.at_power_down)
        << " ms of hold-up power to draw the EP-cut, and resumes"
           " every process "
        << ticksToMs(light.at_recovery)
        << " ms after power returns -- from the exact instruction"
           " it stopped at.\n";
    return 0;
}
