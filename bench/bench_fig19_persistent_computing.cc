/**
 * @file
 * Fig. 19 — Execution cycles of the persistent-computing platforms,
 * normalized to LightPC, with one power down mid-run.
 *
 * Four orthogonal persistence mechanisms execute every workload:
 *  - LightPC: SnG Stop at the power event, Go on recovery.
 *  - SysPC:   runs free on LegacyPC; dumps the full system image at
 *             the power event and reloads it on recovery.
 *  - A-CheckPC: synchronous per-function stack/heap checkpoints
 *             (stream-level copies), cold reboot + restore on
 *             recovery.
 *  - S-CheckPC: periodic (1 Hz at paper scale) BLCR-style VM dumps
 *             with stop-the-world semantics, cold reboot + restore.
 *
 * Execution is measured at reduced scale and extrapolated to the
 * Table II full-run length; persistence control runs at natural
 * scale (image sizes do not shrink with the workload sample).
 *
 * Paper: LightPC shorter than SysPC / A-CheckPC / S-CheckPC by
 * 1.6x / 8.8x / 2.4x; SysPC 5.5x faster than A-CheckPC; S-CheckPC
 * cuts A-CheckPC by 73% but stays 52% behind SysPC.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "mem/timed_mem.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

using namespace lightpc;
using namespace lightpc::platform;

namespace
{

constexpr std::uint64_t scale = 30000;

/** Extrapolated full-run execution time. */
Tick
fullExec(Tick measured)
{
    return measured * scale;
}

struct MechanismResult
{
    Tick execTicks = 0;     ///< benchmark execution (full scale)
    Tick persistTicks = 0;  ///< persistence control (full scale)

    Tick total() const { return execTicks + persistTicks; }
};

MechanismResult
runLightPc(const workload::WorkloadSpec &spec)
{
    SystemConfig config;
    config.kind = PlatformKind::LightPC;
    config.scaleDivisor = scale;
    System system(config);
    const auto run = system.run(spec);

    const auto stop = system.sng().stop(system.eventQueue().now());
    const auto go = system.sng().resume(stop.offlineDone + tickMs);

    MechanismResult result;
    result.execTicks = fullExec(run.elapsed);
    result.persistTicks = stop.totalTicks() + go.totalTicks();
    return result;
}

MechanismResult
runSysPc(const workload::WorkloadSpec &spec)
{
    SystemConfig config;
    config.kind = PlatformKind::LegacyPC;
    config.scaleDivisor = scale;
    System system(config);
    const auto run = system.run(spec);

    mem::TimedMem pmem(system.memoryPort());
    persist::ImageCheckpoint syspc(pmem, persist::sysPcKind);
    const std::uint64_t image = system.kernel().systemImageBytes();
    const Tick t0 = system.eventQueue().now();
    const Tick dumped = syspc.dump(t0, image);
    const Tick loaded = syspc.load(dumped, image);

    MechanismResult result;
    result.execTicks = fullExec(run.elapsed);
    result.persistTicks = loaded - t0;
    return result;
}

MechanismResult
runACheckPc(const workload::WorkloadSpec &spec)
{
    SystemConfig config;
    config.kind = PlatformKind::LegacyPC;
    config.scaleDivisor = scale;

    // Plain run for the execution share...
    Tick plain;
    {
        System system(config);
        plain = system.run(spec).elapsed;
    }

    // ...then the checkpointing run with per-function copies.
    System system(config);
    workload::SyntheticConfig wconfig;
    wconfig.scaleDivisor = scale;
    auto streams = workload::makeStreams(spec, wconfig,
                                         system.coreCount(),
                                         System::workloadBase);
    persist::ACheckPcParams aparams;
    std::vector<std::unique_ptr<persist::ACheckPcStream>> wrapped;
    std::vector<cpu::InstrStream *> raw;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        aparams.seed = 97 + i;
        wrapped.push_back(std::make_unique<persist::ACheckPcStream>(
            *streams[i], aparams));
        raw.push_back(wrapped.back().get());
    }
    const auto run = system.runStreams(raw);

    // Recovery: kernel/machine state is gone -> cold reboot, then
    // restore the last checkpoint set.
    mem::TimedMem pmem(system.memoryPort());
    persist::ImageCosts costs;
    std::uint64_t ckpt_bytes = 0;
    for (const auto &stream : wrapped)
        ckpt_bytes += stream->copiedBytes() / 64;  // resident set
    const Tick t0 = system.eventQueue().now();
    Tick recovered = t0 + costs.coldReboot;
    recovered = pmem.readSpan(recovered, 0, std::max<std::uint64_t>(
        ckpt_bytes, 64 << 20));

    MechanismResult result;
    result.execTicks = fullExec(plain);
    result.persistTicks =
        fullExec(run.elapsed - plain) + (recovered - t0);
    return result;
}

MechanismResult
runSCheckPc(const workload::WorkloadSpec &spec)
{
    SystemConfig config;
    config.kind = PlatformKind::LegacyPC;
    config.scaleDivisor = scale;
    System system(config);
    const auto run = system.run(spec);
    const Tick exec_full = fullExec(run.elapsed);

    // One BLCR dump per second of full-scale execution,
    // stop-the-world while the VM image goes out.
    mem::TimedMem pmem(system.memoryPort());
    persist::ImageCheckpoint blcr(pmem, persist::sCheckPcKind);
    const std::uint64_t vm_bytes =
        (std::uint64_t(7) << 28) + spec.footprintBytes * 6;
    const std::uint64_t dumps =
        std::max<std::uint64_t>(1, exec_full / tickSec);
    Tick persist_ticks = 0;
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(dumps, 4);
         ++i)
        persist_ticks += blcr.dump(system.eventQueue().now(),
                                   vm_bytes)
            - system.eventQueue().now();
    // Dumps beyond the sampled few cost the same.
    persist_ticks = persist_ticks * dumps
        / std::min<std::uint64_t>(dumps, 4);

    // Recovery: cold reboot + restore the last image.
    persist::ImageCosts costs;
    const Tick t0 = system.eventQueue().now();
    Tick recovered = t0 + costs.coldReboot;
    recovered = blcr.load(recovered, vm_bytes);
    persist_ticks += recovered - t0;

    MechanismResult result;
    result.execTicks = exec_full;
    result.persistTicks = persist_ticks;
    return result;
}

double
cyclesB(Tick t)
{
    return static_cast<double>(t / periodFromMhz(1600)) / 1e9;
}

} // namespace

int
main()
{
    bench::banner("Fig. 19", "persistent computing: execution +"
                             " persistence-control cycles");

    stats::Table table({"workload", "LightPC(Bc)", "SysPC", "A-Check",
                        "S-Check", "Sys/Light", "A/Light",
                        "S/Light"});
    std::vector<double> sys_norm, a_norm, s_norm;
    std::vector<double> persist_share_light;

    for (const auto &spec : workload::tableTwo()) {
        const auto light = runLightPc(spec);
        const auto sys = runSysPc(spec);
        const auto acheck = runACheckPc(spec);
        const auto scheck = runSCheckPc(spec);

        const double ns = static_cast<double>(sys.total())
            / light.total();
        const double na = static_cast<double>(acheck.total())
            / light.total();
        const double nss = static_cast<double>(scheck.total())
            / light.total();
        sys_norm.push_back(ns);
        a_norm.push_back(na);
        s_norm.push_back(nss);
        persist_share_light.push_back(
            static_cast<double>(light.persistTicks)
            / light.total());

        table.addRow({spec.name,
                      stats::Table::num(cyclesB(light.total()), 2),
                      stats::Table::num(cyclesB(sys.total()), 2),
                      stats::Table::num(cyclesB(acheck.total()), 2),
                      stats::Table::num(cyclesB(scheck.total()), 2),
                      stats::Table::ratio(ns), stats::Table::ratio(na),
                      stats::Table::ratio(nss)});
    }
    table.print(std::cout);

    const double avg_sys = stats::geomean(sys_norm);
    const double avg_a = stats::geomean(a_norm);
    const double avg_s = stats::geomean(s_norm);
    stats::Summary share;
    for (double x : persist_share_light)
        share.add(x);
    std::cout << "\nnormalized to LightPC (geomean): SysPC "
              << stats::Table::ratio(avg_sys) << "  A-CheckPC "
              << stats::Table::ratio(avg_a) << "  S-CheckPC "
              << stats::Table::ratio(avg_s) << "\n"
              << "LightPC persistence-control share of total: "
              << stats::Table::percent(share.mean(), 2) << "\n\n";

    bench::paperRef("LightPC beats SysPC/A-CheckPC/S-CheckPC by"
                    " 1.6x/8.8x/2.4x; SnG accounts for only 0.3% of"
                    " total execution; SysPC 5.5x faster than"
                    " A-CheckPC; S-CheckPC 52% behind SysPC");

    bench::check(avg_sys > 1.0, "SysPC pays for its system images");
    bench::check(avg_a > avg_s && avg_s > avg_sys,
                 "ordering: LightPC < SysPC < S-CheckPC <"
                 " A-CheckPC");
    bench::check(avg_a > 3.0,
                 "per-function checkpointing is several times"
                 " slower");
    bench::check(share.mean() < 0.02,
                 "SnG is a negligible share of LightPC execution");
    return bench::result();
}
