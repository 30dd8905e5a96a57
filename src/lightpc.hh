/**
 * @file
 * Umbrella header: the LightPC simulator's public API in one
 * include.
 *
 * Fine-grained headers remain available (and are what the library
 * itself uses); this is a convenience for downstream applications:
 *
 * @code
 *   #include "lightpc.hh"
 *
 *   lightpc::platform::System system({});
 *   auto run = system.run(lightpc::workload::findWorkload("Redis"));
 *   auto cut = system.sng().stop(system.eventQueue().now());
 * @endcode
 */

#ifndef LIGHTPC_LIGHTPC_HH
#define LIGHTPC_LIGHTPC_HH

// Simulation kernel.
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

// Statistics and reporting.
#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "stats/time_series.hh"

// Memory substrate.
#include "mem/backing_store.hh"
#include "mem/dram_device.hh"
#include "mem/memory_port.hh"
#include "mem/pmem_dimm.hh"
#include "mem/pram_device.hh"
#include "mem/request.hh"
#include "mem/timed_mem.hh"

// The Persistent Support Module and its reliability tiers.
#include "psm/bare_nvdimm.hh"
#include "psm/psm.hh"
#include "psm/start_gap.hh"
#include "psm/symbol_ecc.hh"
#include "psm/xcc.hh"

// Cores and caches.
#include "cache/l1_cache.hh"
#include "cpu/core.hh"
#include "cpu/instr.hh"

// Power and PSU models.
#include "power/power_model.hh"
#include "power/psu.hh"

// PecOS: kernel substrate and Stop-and-Go.
#include "kernel/device.hh"
#include "kernel/kernel.hh"
#include "kernel/process.hh"
#include "pecos/scaling.hh"
#include "pecos/sng.hh"

// Persistence mechanisms.
#include "persist/checkpoint.hh"
#include "persist/object_pool.hh"

// Power-cut fault injection.
#include "fault/campaign.hh"
#include "fault/power_rail.hh"

// Workloads.
#include "workload/spec.hh"
#include "workload/stream_bench.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

// Platform assemblies.
#include "platform/dram_array.hh"
#include "platform/pmem_modes.hh"
#include "platform/system.hh"

#endif // LIGHTPC_LIGHTPC_HH
