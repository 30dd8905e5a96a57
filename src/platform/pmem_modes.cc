#include "platform/pmem_modes.hh"

#include <algorithm>

#include "power/power_model.hh"
#include "sim/logging.hh"
#include "workload/synthetic.hh"

namespace lightpc::platform
{

std::string
pmemModeName(PmemMode mode)
{
    switch (mode) {
      case PmemMode::DramOnly:
        return "DRAM-only";
      case PmemMode::MemMode:
        return "mem-mode";
      case PmemMode::AppMode:
        return "app-mode";
      case PmemMode::ObjectMode:
        return "object-mode";
      case PmemMode::TransMode:
        return "trans-mode";
    }
    return "?";
}

PmemArray::PmemArray(std::uint32_t dimms,
                     const mem::PmemDimmParams &params,
                     std::uint64_t interleave_bytes)
    : interleave(interleave_bytes)
{
    if (dimms == 0)
        fatal("PmemArray requires at least one DIMM");
    for (std::uint32_t i = 0; i < dimms; ++i)
        devices.push_back(std::make_unique<mem::PmemDimm>(params));
}

mem::AccessResult
PmemArray::access(const mem::MemRequest &req, Tick when)
{
    ++accesses;
    const std::uint64_t chunk = req.addr / interleave;
    mem::PmemDimm &dev = *devices[chunk % devices.size()];
    mem::MemRequest local = req;
    local.addr = (chunk / devices.size()) * interleave
        + req.addr % interleave;
    return dev.access(local, when);
}

NmemPort::NmemPort(DramArray &dram, PmemArray &pmem,
                   std::uint64_t cache_bytes)
    : dram(dram), pmem(pmem), tags(cache_bytes, 4096, 16)
{
}

mem::AccessResult
NmemPort::access(const mem::MemRequest &req, Tick when)
{
    // The NMEM controller caches PMEM contents in local-node DRAM;
    // the "snarf" shared-memory interface overlaps the PMEM and DRAM
    // transfers on a miss.
    const auto tag = tags.access(req.addr,
                                 req.op == mem::MemOp::Write);
    if (tag.hit) {
        ++_hits;
        return dram.access(req, when);
    }

    ++_misses;
    if (tag.evicted && tag.evictedDirty) {
        // Write the victim 4 KB block back to PMEM (background).
        mem::MemRequest wb;
        wb.op = mem::MemOp::Write;
        wb.addr = tag.evictedBlock;
        pmem.access(wb, when);
    }

    // Fill: PMEM read overlapped with the DRAM-side installation.
    const mem::AccessResult pmem_result = pmem.access(req, when);
    const mem::AccessResult dram_result = dram.access(req, when);
    mem::AccessResult result = pmem_result;
    result.completeAt =
        std::max(pmem_result.completeAt, dram_result.completeAt);

    // The NMEM controller prefetches the next 4 KB block into the
    // DRAM cache in the background (the snarf interface overlaps
    // the transfer), hiding the miss cost of sequential sweeps.
    const mem::Addr next_block = tags.blockOf(req.addr) + 4096;
    if (!tags.contains(next_block)) {
        const auto pf = tags.access(next_block, /*dirty=*/false);
        if (pf.evicted && pf.evictedDirty) {
            mem::MemRequest wb;
            wb.op = mem::MemOp::Write;
            wb.addr = pf.evictedBlock;
            pmem.access(wb, when);
        }
        mem::MemRequest pf_req;
        pf_req.op = mem::MemOp::Read;
        pf_req.addr = next_block;
        pmem.access(pf_req, when);
    }
    return result;
}

ObjectModeStream::ObjectModeStream(cpu::InstrStream &inner_in,
                                   const PmdkStreamParams &params_in)
    : inner(inner_in), params(params_in), rng(params_in.seed)
{
}

bool
ObjectModeStream::next(cpu::Instr &out)
{
    if (pendingAlu > 0) {
        --pendingAlu;
        out = {cpu::InstrKind::Alu, 0};
        return true;
    }
    if (holding) {
        holding = false;
        out = held;
        return true;
    }
    if (!inner.next(out))
        return false;

    if (out.kind != cpu::InstrKind::Alu
        && rng.chance(params.swizzleProbability)) {
        // Persistent-pointer swizzle: dereference the object header
        // in the pool metadata region, then offset arithmetic,
        // before the actual access.
        held = out;
        holding = true;
        pendingAlu = PmdkStreamParams::swizzleOps - 1;
        const mem::Addr header = PmdkStreamParams::metadataBase
            + (rng.below(PmdkStreamParams::metadataBytes)
               & ~std::uint64_t(63));
        out = {cpu::InstrKind::Load, header};
        return true;
    }
    return true;
}

TransModeStream::TransModeStream(cpu::InstrStream &inner_in,
                                 const PmdkStreamParams &params_in)
    : objectStream(inner_in, params_in),
      params(params_in),
      logCursor(PmdkStreamParams::logBase)
{
}

bool
TransModeStream::next(cpu::Instr &out)
{
    if (pendingAlu > 0) {
        --pendingAlu;
        out = {cpu::InstrKind::Alu, 0};
        return true;
    }
    if (pendingLogStore) {
        // The undo-log copy of the line about to change (the 100%
        // write-traffic overhead of durable transactions).
        pendingLogStore = false;
        out = {cpu::InstrKind::Store, logCursor};
        logCursor += mem::cacheLineBytes;
        return true;
    }
    if (holding) {
        holding = false;
        out = held;
        return true;
    }
    if (!objectStream.next(out))
        return false;

    if (out.kind == cpu::InstrKind::Store) {
        held = out;
        holding = true;
        pendingLogStore = true;
        if (++storesInTx >= params.txStores) {
            // TX_END: pmem_persist flushes each logged cacheline
            // (the stores and their log copies), then fences.
            storesInTx = 0;
            ++_commits;
            pendingAlu = PmdkStreamParams::flushOps * params.txStores * 2
                + PmdkStreamParams::fenceOps;
        }
        // Emit the log store first.
        pendingLogStore = false;
        out = {cpu::InstrKind::Store, logCursor};
        logCursor += mem::cacheLineBytes;
        return true;
    }
    return true;
}

PmemModeResult
runPmemMode(PmemMode mode, const workload::WorkloadSpec &spec,
            std::uint64_t scale_divisor, std::uint64_t seed,
            std::uint32_t cores)
{
    // Mode-specific memory fabric. The DIMM's internal SRAM/DRAM
    // buffers are scaled with the same divisor as the workload
    // footprints (the real 190 GB working sets dwarf the 16 GB of
    // internal DRAM by ~12x; the scaled footprints must dwarf the
    // scaled buffers the same way, or app-direct mode would be
    // entirely buffer-served).
    auto dram = std::make_unique<DramArray>(6);
    mem::PmemDimmParams dimm_params;
    dimm_params.sramBytes = 64 * 1024;
    dimm_params.dramBytes = std::uint64_t(2) << 20;
    auto pmem = std::make_unique<PmemArray>(4, dimm_params);
    std::unique_ptr<NmemPort> nmem;

    mem::MemoryPort *port = nullptr;
    switch (mode) {
      case PmemMode::DramOnly:
        port = dram.get();
        break;
      case PmemMode::MemMode:
        nmem = std::make_unique<NmemPort>(*dram, *pmem);
        port = nmem.get();
        break;
      case PmemMode::AppMode:
      case PmemMode::ObjectMode:
      case PmemMode::TransMode:
        port = pmem.get();
        break;
    }

    SystemConfig config;
    config.kind = PlatformKind::LegacyPC;
    config.cores = cores;
    config.scaleDivisor = scale_divisor;
    config.seed = seed;
    config.overridePort = port;
    System system(config);

    workload::SyntheticConfig wconfig;
    wconfig.scaleDivisor = scale_divisor;
    wconfig.seed = seed;
    auto streams = workload::makeStreams(spec, wconfig, cores,
                                         System::workloadBase);

    PmdkStreamParams pmdk;
    pmdk.seed = seed * 31 + 7;
    std::vector<std::unique_ptr<cpu::InstrStream>> decorated;
    std::vector<cpu::InstrStream *> raw;
    for (auto &stream : streams) {
        cpu::InstrStream *use = stream.get();
        if (mode == PmemMode::ObjectMode) {
            decorated.push_back(
                std::make_unique<ObjectModeStream>(*use, pmdk));
            use = decorated.back().get();
        } else if (mode == PmemMode::TransMode) {
            decorated.push_back(
                std::make_unique<TransModeStream>(*use, pmdk));
            use = decorated.back().get();
        }
        raw.push_back(use);
    }

    PmemModeResult result;
    result.mode = mode;
    result.run = system.runStreams(raw);
    result.run.workload = spec.name;
    result.run.platform = pmemModeName(mode);

    // Memory-subsystem power, measured the way Fig. 4b does
    // (LIKWID/RAPL style): per-access dynamic energy dominates, with
    // only the active controllers' standby power on top — idle DIMM
    // background is not attributed to the workload.
    const auto &k = system.powerModel().constants();
    power::EnergyMeter meter;
    const bool has_dram =
        mode == PmemMode::DramOnly || mode == PmemMode::MemMode;
    const bool has_pmem = mode != PmemMode::DramOnly;
    if (has_dram) {
        meter.addStatic(0.5, result.run.elapsed);
        meter.addDynamic(k.dram.accessNanojoules,
                         dram->totalAccesses());
    }
    if (has_pmem) {
        meter.addStatic(0.7, result.run.elapsed);
        meter.addDynamic(k.pmem.accessNanojoules,
                         pmem->totalAccesses());
    }
    result.memJoules = meter.joules();
    result.memWatts = meter.averageWatts(result.run.elapsed);
    result.run.watts = result.memWatts;
    result.run.joules = result.memJoules;
    return result;
}

} // namespace lightpc::platform
