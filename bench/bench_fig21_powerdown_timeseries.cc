/**
 * @file
 * Fig. 21 — Time-series analysis across a power-down / power-up
 * cycle: benchmark progress (IPC) and dynamic system power.
 *
 * One representative workload (Redis) executes on LightPC and on
 * SysPC (LegacyPC + system images). Mid-run the power fails: LightPC
 * draws the EP-cut (Stop) and later re-executes from it (Go); SysPC
 * must finish dumping the system image past the hold-up window and
 * reload it at power-up.
 *
 * Paper anchors: LightPC Stop 19 Mcycles / Go 12.8 Mcycles vs SysPC
 * 7 Bcycles store / 4.2 Bcycles load (Go 358x faster); Stop consumes
 * 4.5 W / 53 mJ and Go 4.4 W / 52 mJ vs SysPC's 20 W / 19.7 J dump.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "mem/timed_mem.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "power/power_model.hh"
#include "stats/table.hh"
#include "stats/time_series.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

using namespace lightpc;
using namespace lightpc::platform;

namespace
{

constexpr Tick sliceTicks = 100 * tickUs;
constexpr Tick offGap = 100 * tickMs;  // mains outage duration

struct Timeline
{
    stats::TimeSeries ipc{"ipc"};
    stats::TimeSeries watts{"power"};
    Tick persistDown = 0;  ///< power-down persistence work
    Tick persistUp = 0;    ///< power-up recovery work
    double downJoules = 0.0;
    double upJoules = 0.0;
};

/** Sample benchmark IPC and platform power over execution slices. */
void
sampleExec(System &system, Tick until, Timeline &tl,
           std::uint32_t active_cores)
{
    const power::PowerModel &power = system.powerModel();
    std::uint64_t prev_instr = 0;
    for (std::uint32_t c = 0; c < system.coreCount(); ++c)
        prev_instr += system.core(c).stats().instructions;
    std::uint64_t prev_mem = system.psm().stats().reads
        + system.psm().stats().writes;
    std::uint64_t prev_dram =
        system.dram() ? system.dram()->totalAccesses() : 0;

    while (system.eventQueue().now() < until
           && !system.eventQueue().empty()) {
        const Tick slice_start = system.eventQueue().now();
        const Tick slice_end = std::min(until, slice_start + sliceTicks);
        system.eventQueue().run(slice_end);

        // The queue stops at its last event, which may fall short of
        // slice_end: sample at the tick it actually reached, so the
        // next phase recorded from now() never goes back in time.
        const Tick reached = system.eventQueue().now();
        const Tick elapsed = reached - slice_start;
        if (elapsed == 0)
            break;

        std::uint64_t instr = 0;
        for (std::uint32_t c = 0; c < system.coreCount(); ++c)
            instr += system.core(c).stats().instructions;
        const std::uint64_t mem_now = system.psm().stats().reads
            + system.psm().stats().writes;
        const std::uint64_t dram_now =
            system.dram() ? system.dram()->totalAccesses() : 0;

        const double cycles = static_cast<double>(elapsed)
            / periodFromMhz(1600) * system.coreCount();
        tl.ipc.record(reached,
                      static_cast<double>(instr - prev_instr)
                          / cycles * system.coreCount());

        power::ActivitySample sample;
        sample.duration = elapsed;
        sample.coresActive = active_cores;
        sample.coresIdle = system.coreCount() - active_cores;
        sample.coreUtilization = 0.9;
        sample.pramDimms = 6;
        sample.pramReads = mem_now - prev_mem;
        if (system.dram()) {
            sample.dramDimms = system.dram()->dimmCount();
            sample.dramAccesses = dram_now - prev_dram;
        }
        tl.watts.record(reached, power.powerOf(sample));

        prev_instr = instr;
        prev_mem = mem_now;
        prev_dram = dram_now;
        if (reached < slice_end)
            break;  // cores ran out of work
    }
}

/** Record a persistence interval at a fixed power level. */
void
recordPhase(Timeline &tl, Tick from, Tick to, double watts,
            bool power_up)
{
    tl.ipc.record(from, 0.0);
    tl.ipc.record(to, 0.0);
    tl.watts.record(from, watts);
    tl.watts.record(to, watts);
    const double joules = watts * ticksToSec(to - from);
    if (power_up) {
        tl.persistUp += to - from;
        tl.upJoules += joules;
    } else {
        tl.persistDown += to - from;
        tl.downJoules += joules;
    }
}

double
persistWatts(const System &, bool cores_on, bool dram_on)
{
    // Persistence phases: cores partially busy with kernel work, no
    // benchmark; memory traffic folded into the phase power level.
    power::ActivitySample sample;
    sample.duration = tickSec;
    sample.coresActive = cores_on ? 8 : 0;
    sample.coresIdle = cores_on ? 0 : 8;
    sample.coreUtilization = 0.45;
    sample.pramDimms = 6;
    if (dram_on)
        sample.dramDimms = 6;
    return power::PowerModel().powerOf(sample);
}

} // namespace

int
main()
{
    bench::banner("Fig. 21", "dynamic IPC and power across a"
                             " power-down / power-up cycle");

    const auto &spec = workload::findWorkload("Redis");
    constexpr std::uint64_t scale = 12000;
    const Tick down_at = 2 * tickMs;

    // ---- LightPC: SnG -------------------------------------------
    Timeline light;
    Tick light_stop_ticks, light_go_ticks;
    {
        SystemConfig config;
        config.kind = PlatformKind::LightPC;
        config.scaleDivisor = scale;
        System system(config);
        workload::SyntheticConfig wconfig;
        wconfig.scaleDivisor = scale;
        auto streams = workload::makeStreams(
            spec, wconfig, system.coreCount(), System::workloadBase);
        for (std::size_t i = 0; i < streams.size(); ++i)
            system.core(static_cast<std::uint32_t>(i))
                .run(*streams[i], 0);

        sampleExec(system, down_at, light, 8);
        for (std::uint32_t c = 0; c < system.coreCount(); ++c)
            system.core(c).stop();
        const auto stop =
            system.sng().stop(system.eventQueue().now());
        light_stop_ticks = stop.totalTicks();
        recordPhase(light, stop.start, stop.offlineDone,
                    persistWatts(system, true, false), false);

        const auto go = system.sng().resume(stop.offlineDone
                                            + offGap);
        light_go_ticks = go.totalTicks();
        recordPhase(light, go.start, go.done,
                    persistWatts(system, true, false), true);

        // Re-execute the parked benchmark from the EP-cut.
        for (std::size_t i = 0; i < streams.size(); ++i)
            system.core(static_cast<std::uint32_t>(i))
                .run(*streams[i], go.done);
        system.eventQueue().run(go.done);  // skip the outage gap
        sampleExec(system, go.done + 2 * tickMs, light, 8);
    }

    // ---- SysPC: system images -----------------------------------
    Timeline sys;
    Tick sys_store_ticks, sys_load_ticks;
    {
        SystemConfig config;
        config.kind = PlatformKind::LegacyPC;
        config.scaleDivisor = scale;
        System system(config);
        workload::SyntheticConfig wconfig;
        wconfig.scaleDivisor = scale;
        auto streams = workload::makeStreams(
            spec, wconfig, system.coreCount(), System::workloadBase);
        for (std::size_t i = 0; i < streams.size(); ++i)
            system.core(static_cast<std::uint32_t>(i))
                .run(*streams[i], 0);

        sampleExec(system, down_at, sys, 8);
        for (std::uint32_t c = 0; c < system.coreCount(); ++c)
            system.core(c).stop();

        mem::TimedMem pmem(system.memoryPort());
        persist::ImageCheckpoint syspc(pmem, persist::sysPcKind);
        const std::uint64_t image =
            system.kernel().systemImageBytes();
        const Tick t0 = system.eventQueue().now();
        const Tick dumped = syspc.dump(t0, image);
        sys_store_ticks = dumped - t0;
        recordPhase(sys, t0, dumped,
                    persistWatts(system, true, true), false);

        const Tick up_at = dumped + offGap;
        const Tick loaded = syspc.load(up_at, image);
        sys_load_ticks = loaded - up_at;
        recordPhase(sys, up_at, loaded,
                    persistWatts(system, true, true), true);

        for (std::size_t i = 0; i < streams.size(); ++i)
            system.core(static_cast<std::uint32_t>(i))
                .run(*streams[i], loaded);
        system.eventQueue().run(loaded);  // skip the outage gap
        sampleExec(system, loaded + 2 * tickMs, sys, 8);
    }

    // ---- report ---------------------------------------------------
    auto mc = [](Tick t) {
        return static_cast<double>(t / periodFromMhz(1600)) / 1e6;
    };
    stats::Table table({"platform", "down work", "down energy",
                        "up work", "up energy"});
    table.addRow({"LightPC",
                  stats::Table::num(mc(light_stop_ticks), 1) + " Mc",
                  stats::Table::num(light.downJoules * 1e3, 1)
                      + " mJ",
                  stats::Table::num(mc(light_go_ticks), 1) + " Mc",
                  stats::Table::num(light.upJoules * 1e3, 1)
                      + " mJ"});
    table.addRow({"SysPC",
                  stats::Table::num(mc(sys_store_ticks) / 1e3, 2)
                      + " Bc",
                  stats::Table::num(sys.downJoules, 1) + " J",
                  stats::Table::num(mc(sys_load_ticks) / 1e3, 2)
                      + " Bc",
                  stats::Table::num(sys.upJoules, 1) + " J"});
    table.print(std::cout);

    std::cout << "\n(a) benchmark IPC series (downsampled; 0 during"
                 " persistence)\n";
    for (const auto &[name, tl] :
         {std::pair<const char *, const Timeline &>{"LightPC",
                                                    light},
          {"SysPC", sys}}) {
        std::cout << name << ":";
        for (const auto &s : tl.ipc.downsample(16))
            std::cout << " " << stats::Table::num(s.value, 2);
        std::cout << "\n";
    }
    std::cout << "\n(b) power series (downsampled, W)\n";
    for (const auto &[name, tl] :
         {std::pair<const char *, const Timeline &>{"LightPC",
                                                    light},
          {"SysPC", sys}}) {
        std::cout << name << ":";
        for (const auto &s : tl.watts.downsample(16))
            std::cout << " " << stats::Table::num(s.value, 1);
        std::cout << "\n";
    }
    std::cout << "\n";

    bench::paperRef("LightPC Stop 19 Mc / Go 12.8 Mc vs SysPC 7 Bc"
                    " store / 4.2 Bc load (Go 358x faster); Stop"
                    " 4.5 W / 53 mJ, Go 4.4 W / 52 mJ vs SysPC 20 W"
                    " / 19.7 J");

    bench::check(mc(light_stop_ticks) < 40.0,
                 "Stop completes within tens of Mcycles");
    bench::check(mc(light_go_ticks) < 40.0,
                 "Go completes within tens of Mcycles");
    bench::check(sys_store_ticks
                     > 100 * static_cast<Tick>(light_stop_ticks),
                 "SysPC's image store dwarfs LightPC's Stop");
    bench::check(sys_load_ticks
                     > 50 * static_cast<Tick>(light_go_ticks),
                 "SysPC's image load dwarfs LightPC's Go");
    bench::check(light.downJoules + light.upJoules < 0.3,
                 "SnG spends millijoules across the power cycle");
    bench::check(sys.downJoules > 5.0,
                 "SysPC needs joules of external energy to finish"
                 " its dump");
    return bench::result();
}
