/**
 * @file
 * The conventional PMEM operating modes compared in Fig. 4.
 *
 * Five configurations run the same workloads:
 *
 *  - DramOnly: the non-persistent reference (local-node DRAM).
 *  - MemMode: PMEM as working memory behind the NMEM controller,
 *    which caches PMEM data in local-node DRAM and overlaps the
 *    transfer latencies ("snarf") — within ~1.3% of DRAM-only.
 *  - AppMode: app-direct + DAX; loads/stores go to the PMEM DIMM
 *    complex itself (internal buffer lookups, device-level
 *    translation) — ~28% slower, ~47% more memory power.
 *  - ObjectMode: libpmemobj on top of app-direct; every object
 *    access pays offset-pointer swizzling in software (~1.8x).
 *  - TransMode: object mode with durable transactions; stores are
 *    undo-logged and every commit runs a pmem_persist cacheline
 *    flush loop (~8.7x vs DRAM-only).
 *
 * Object/Trans overheads are modeled as *instruction-stream
 * decorators*: the software work (swizzle arithmetic, log copies,
 * flush stalls) becomes real instructions and real extra memory
 * traffic, so the slowdown and power both emerge mechanistically.
 */

#ifndef LIGHTPC_PLATFORM_PMEM_MODES_HH
#define LIGHTPC_PLATFORM_PMEM_MODES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/instr.hh"
#include "mem/memory_port.hh"
#include "mem/pmem_dimm.hh"
#include "mem/tag_cache.hh"
#include "platform/dram_array.hh"
#include "platform/system.hh"
#include "sim/rng.hh"
#include "workload/spec.hh"

namespace lightpc::platform
{

/** The five Fig. 4 configurations. */
enum class PmemMode
{
    DramOnly,
    MemMode,
    AppMode,
    ObjectMode,
    TransMode,
};

std::string pmemModeName(PmemMode mode);

/**
 * Interleaved PMEM DIMMs behind one port (app-direct path).
 */
class PmemArray : public mem::MemoryPort
{
  public:
    explicit PmemArray(std::uint32_t dimms = 4,
                       const mem::PmemDimmParams &params =
                           mem::PmemDimmParams(),
                       std::uint64_t interleave_bytes = 4096);

    mem::AccessResult access(const mem::MemRequest &req,
                             Tick when) override;

    std::uint32_t dimmCount() const
    {
        return static_cast<std::uint32_t>(devices.size());
    }

    mem::PmemDimm &dimm(std::uint32_t idx) { return *devices[idx]; }

    std::uint64_t totalAccesses() const { return accesses; }

  private:
    std::uint64_t interleave;
    std::vector<std::unique_ptr<mem::PmemDimm>> devices;
    std::uint64_t accesses = 0;
};

/**
 * The NMEM controller: DRAM as a cache in front of PMEM (mem-mode).
 */
class NmemPort : public mem::MemoryPort
{
  public:
    NmemPort(DramArray &dram, PmemArray &pmem,
             std::uint64_t cache_bytes = std::uint64_t(16) << 30);

    mem::AccessResult access(const mem::MemRequest &req,
                             Tick when) override;

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

  private:
    DramArray &dram;
    PmemArray &pmem;
    mem::TagCache tags;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

/** Software-overhead knobs for the PMDK-like runtime. */
struct PmdkStreamParams
{
    /** Probability that a memory op pays an object-ID swizzle. */
    double swizzleProbability = 0.05;

    /** ALU instructions per swizzle (offset arithmetic + checks). */
    static constexpr std::uint32_t swizzleOps = 14;

    /**
     * Object metadata region the swizzle dereferences (root/header
     * lookups — extra memory traffic object-mode pays).
     */
    static constexpr mem::Addr metadataBase = std::uint64_t(2) << 32;
    static constexpr std::uint64_t metadataBytes = std::uint64_t(8) << 20;

    /** Stores per transaction (TX_BEGIN .. TX_END granularity). */
    std::uint32_t txStores = 8;

    /** ALU-equivalents per cacheline flushed by pmem_persist. */
    static constexpr std::uint32_t flushOps = 95;

    /** ALU-equivalents for the commit fence. */
    static constexpr std::uint32_t fenceOps = 160;

    /** Undo-log region base (extra write traffic, 100% overhead). */
    static constexpr mem::Addr logBase = std::uint64_t(3) << 32;

    std::uint64_t seed = 1234;
};

/**
 * Object-mode decorator: swizzle work before object accesses.
 */
class ObjectModeStream : public cpu::InstrStream
{
  public:
    ObjectModeStream(cpu::InstrStream &inner,
                     const PmdkStreamParams &params);

    bool next(cpu::Instr &out) override;

  private:
    cpu::InstrStream &inner;
    PmdkStreamParams params;
    Rng rng;
    std::uint32_t pendingAlu = 0;
    cpu::Instr held;
    bool holding = false;
};

/**
 * Trans-mode decorator: object mode plus undo logging and commit
 * flush loops.
 */
class TransModeStream : public cpu::InstrStream
{
  public:
    TransModeStream(cpu::InstrStream &inner,
                    const PmdkStreamParams &params);

    bool next(cpu::Instr &out) override;

    std::uint64_t commits() const { return _commits; }

  private:
    ObjectModeStream objectStream;
    PmdkStreamParams params;
    std::uint32_t storesInTx = 0;
    std::uint32_t pendingAlu = 0;
    bool pendingLogStore = false;
    mem::Addr logCursor;
    cpu::Instr held;
    bool holding = false;
    std::uint64_t _commits = 0;
};

/** Result row of one Fig. 4 run. */
struct PmemModeResult
{
    PmemMode mode;
    RunResult run;

    /** Memory-subsystem-only power (what Fig. 4b reports). */
    double memWatts = 0.0;
    double memJoules = 0.0;
};

/**
 * Run one workload under one mode on a fresh system.
 */
PmemModeResult runPmemMode(PmemMode mode,
                           const workload::WorkloadSpec &spec,
                           std::uint64_t scale_divisor = 100,
                           std::uint64_t seed = 42,
                           std::uint32_t cores = 8);

} // namespace lightpc::platform

#endif // LIGHTPC_PLATFORM_PMEM_MODES_HH
