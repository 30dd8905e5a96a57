/**
 * @file
 * Fig. 20 — Persistence-control flush latency vs PSU hold-up time.
 *
 * How long must power stay up after the failure signal for each
 * mechanism to reach a safe state?
 *  - SysPC must finish dumping the entire system image: orders of
 *    magnitude beyond any hold-up time (paper: 172x ATX, 112x
 *    server).
 *  - S-CheckPC must flush the in-flight checkpoint chunk and its
 *    outstanding OC-PMEM writes (paper: 3.5x ATX, 1.4x server) —
 *    it survives only because each *completed* checkpoint is a
 *    committed transaction.
 *  - LightPC's Stop completes within the hold-up time (paper:
 *    12.8 ms, 33%/21% below the ATX/server budgets).
 */

#include <iostream>

#include "bench_common.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "pecos/sng.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "power/psu.hh"
#include "stats/table.hh"

using namespace lightpc;
using namespace lightpc::platform;

int
main()
{
    bench::banner("Fig. 20", "persistence flush latency vs PSU"
                             " hold-up");

    const Tick atx_holdup =
        power::PsuModel::atx().holdupTime(18.9);  // 22 ms measured
    const Tick server_holdup =
        power::PsuModel::dellServer().holdupTime(18.9);  // 55 ms

    // SysPC: the full system image must land on OC-PMEM.
    SystemConfig config;
    config.kind = PlatformKind::LegacyPC;
    Tick syspc_flush;
    {
        System system(config);
        mem::TimedMem pmem(system.memoryPort());
        persist::ImageCheckpoint syspc(pmem, persist::sysPcKind);
        const std::uint64_t image =
            system.kernel().systemImageBytes();
        syspc_flush = syspc.dump(0, image);
    }

    // S-CheckPC: flush the in-flight checkpoint chunk (~tens of MB)
    // to OC-PMEM plus the outstanding buffered writes.
    Tick scheck_flush;
    {
        System system(config);
        mem::TimedMem pmem(system.memoryPort());
        const std::uint64_t chunk = std::uint64_t(128) << 20;
        // Simulate the span exactly: the fence must see the real
        // media backlog, which extrapolated lines would hide.
        pmem.setSampleLimit(chunk / 64);
        scheck_flush =
            pmem.writeSpan(0, System::pmemWindowBase, chunk);
        scheck_flush = system.psm().flush(scheck_flush);
    }

    // LightPC: SnG Stop on a busy system.
    kernel::KernelParams kparams;
    kparams.busy = true;
    kernel::Kernel kern(kparams);
    psm::Psm psm;
    mem::BackingStore store;
    pecos::Sng sng(kern, psm, store, {});
    sng.setFallbackDirtyLines(220);
    const Tick lightpc_flush = sng.stop(0).totalTicks();

    stats::Table table({"mechanism", "flush(ms)", "vs ATX(22ms)",
                        "vs server(55ms)", "safe on power loss?"});
    auto add = [&](const std::string &name, Tick flush) {
        table.addRow(
            {name, stats::Table::num(ticksToMs(flush), 1),
             stats::Table::ratio(static_cast<double>(flush)
                                 / atx_holdup),
             stats::Table::ratio(static_cast<double>(flush)
                                 / server_holdup),
             flush <= atx_holdup ? "yes (within ATX)"
                 : flush <= server_holdup ? "server PSU only"
                                          : "NO"});
    };
    add("SysPC image dump", syspc_flush);
    add("S-CheckPC flush", scheck_flush);
    add("LightPC Stop", lightpc_flush);
    table.print(std::cout);
    std::cout << "\n";

    bench::paperRef("SysPC 172x/112x the ATX/server hold-up;"
                    " S-CheckPC 3.5x/1.4x; LightPC Stop 12.8 ms,"
                    " 33%/21% below the budgets");

    bench::check(syspc_flush > 50 * atx_holdup,
                 "SysPC cannot possibly finish within hold-up");
    bench::check(scheck_flush > atx_holdup,
                 "S-CheckPC's in-flight flush misses the ATX"
                 " budget");
    bench::check(scheck_flush < 4 * server_holdup,
                 "S-CheckPC flush is near the server budget");
    bench::check(lightpc_flush < atx_holdup,
                 "LightPC's Stop fits inside the measured ATX"
                 " hold-up");
    bench::check(lightpc_flush
                     < power::PsuModel::atx().spec().specHoldup,
                 "LightPC's Stop even fits the 16 ms spec");
    return bench::result();
}
