/**
 * @file
 * Platform assembly: LegacyPC, LightPC-B, and LightPC (Section VI).
 *
 * All three share the computing complex (8 RV64 out-of-order cores,
 * 16 KB L1 I/D, Table I); they differ in the memory subsystem:
 *
 *  - LegacyPC: all processes and data in local-node DRAM; OC-PMEM is
 *    present only as the persistence target of the checkpoint
 *    baselines (addresses above `pmemWindowBase` route to the PSM).
 *  - LightPC-B: everything on OC-PMEM, but the PSM runs without
 *    early-return writes or ECC reconstruction (reads block behind
 *    in-flight writes).
 *  - LightPC: everything on OC-PMEM with the full PSM.
 */

#ifndef LIGHTPC_PLATFORM_SYSTEM_HH
#define LIGHTPC_PLATFORM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/l1_cache.hh"
#include "cpu/core.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/memory_port.hh"
#include "pecos/mce.hh"
#include "pecos/sng.hh"
#include "platform/dram_array.hh"
#include "power/power_model.hh"
#include "psm/psm.hh"
#include "sim/event_queue.hh"
#include "stats/histogram.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

namespace lightpc::platform
{

/** Which memory subsystem the platform uses. */
enum class PlatformKind
{
    LegacyPC,
    LightPCB,
    LightPC,
};

/** Display name. */
std::string platformName(PlatformKind kind);

/** Platform configuration (defaults per Table I, ASIC timing). */
struct SystemConfig
{
    PlatformKind kind = PlatformKind::LightPC;
    std::uint32_t cores = 8;
    std::uint64_t freqMhz = 1600;

    /** Workload downscale divisor (see DESIGN.md section 5). */
    std::uint64_t scaleDivisor = 100;

    std::uint64_t seed = 42;

    /** Kernel population (SnG experiments). */
    kernel::KernelParams kernel;

    /** PSM overrides applied on top of the kind's defaults. */
    std::uint32_t pmemDimms = 6;

    /** Full PSM parameter override (kind defaults when absent). */
    std::optional<psm::PsmParams> psmParams;

    /**
     * Machine-check policy override, applied on top of psmParams /
     * the kind defaults (so RAS campaigns can flip the arm without
     * re-deriving the whole PSM configuration).
     */
    std::optional<psm::McePolicy> mcePolicy;

    /** Media-fault model applied to every PRAM device group. */
    std::optional<mem::MediaFaultParams> mediaFaults;

    /** Retirement spare pool size (physical line slots). */
    std::optional<std::uint64_t> spareLines;

    /**
     * Optional externally-owned port the cores use instead of the
     * platform memory (the Fig. 4 PMEM-mode experiments).
     */
    mem::MemoryPort *overridePort = nullptr;
};

/** Result of running one workload to completion. */
struct RunResult
{
    std::string workload;
    std::string platform;
    Tick elapsed = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;

    double watts = 0.0;
    double joules = 0.0;

    /** Mean memory-level read latency in ns (Fig. 16). */
    double memReadLatencyNs = 0.0;

    /** Aggregate cache behaviour (Table II validation). */
    double loadHitRate = 0.0;
    double storeHitRate = 0.0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;

    psm::PsmStats psmStats;
    cpu::CoreStats coreTotals;

    bool operator==(const RunResult &) const = default;
};

/**
 * One platform instance. Construct fresh per run.
 */
class System
{
  public:
    explicit System(const SystemConfig &config = SystemConfig());
    ~System();

    const SystemConfig &config() const { return _config; }

    EventQueue &eventQueue() { return eq; }

    /** The OC-PMEM controller (present on every platform kind). */
    psm::Psm &psm() { return *_psm; }

    /** Functional OC-PMEM contents. */
    mem::BackingStore &pmemStore() { return _pmemStore; }

    /** LegacyPC working memory (null on LightPC/B). */
    DramArray *dram() { return _dram.get(); }

    /** The port workload cores are attached to. */
    mem::MemoryPort &memoryPort() { return *routedPort; }

    cpu::Core &core(std::uint32_t idx) { return *cores[idx]; }
    std::uint32_t coreCount() const
    {
        return static_cast<std::uint32_t>(cores.size());
    }

    kernel::Kernel &kernel() { return *_kernel; }
    pecos::Sng &sng() { return *_sng; }
    pecos::MceHandler &mceHandler() { return *_mce; }

    const power::PowerModel &powerModel() const { return _power; }

    /** Base address the workload data region starts at. */
    static constexpr mem::Addr workloadBase = 16 << 20;

    /** Addresses at or above this route to OC-PMEM on LegacyPC. */
    static constexpr mem::Addr pmemWindowBase = std::uint64_t(1) << 40;

    /**
     * Run one Table II workload to completion (multithreaded specs
     * use every core).
     */
    RunResult run(const workload::WorkloadSpec &spec);

    /**
     * Run caller-provided streams, one per entry, on cores 0..n-1.
     * @param until Optional time limit (maxTick = to completion).
     */
    RunResult runStreams(std::vector<cpu::InstrStream *> streams,
                         Tick until = maxTick);

    /** Build the power-accounting sample for [0, elapsed]. */
    power::ActivitySample activity(Tick elapsed,
                                   std::uint32_t active_cores) const;

    /** Snapshot counters into a RunResult (after eq has run). */
    RunResult collect(Tick elapsed, std::uint32_t active_cores) const;

  private:
    /** Routes LegacyPC traffic between DRAM and the PSM window. */
    class RoutedPort : public mem::MemoryPort
    {
      public:
        RoutedPort(DramArray *dram, psm::Psm &psm)
            : dram(dram), psm(psm)
        {}

        mem::AccessResult
        access(const mem::MemRequest &req, Tick when) override
        {
            if (dram && req.addr < pmemWindowBase)
                return dram->access(req, when);
            mem::MemRequest local = req;
            local.addr = req.addr >= pmemWindowBase
                ? req.addr - pmemWindowBase : req.addr;
            return psm.access(local, when);
        }

        /**
         * One PSM walk when every line lands on one side of
         * pmemWindowBase and none in DRAM; otherwise per line.
         */
        Tick
        accessLines(mem::MemOp op, mem::Addr first_line,
                    std::uint64_t lines, Tick when) override
        {
            if (lines == 0)
                return when;
            const mem::Addr last_line =
                first_line + (lines - 1) * mem::cacheLineBytes;
            if (first_line >= pmemWindowBase)
                return psm.accessLines(op, first_line - pmemWindowBase,
                                       lines, when);
            if (!dram && last_line < pmemWindowBase)
                return psm.accessLines(op, first_line, lines, when);
            return MemoryPort::accessLines(op, first_line, lines, when);
        }

        Tick fence(Tick when) override { return psm.flush(when); }

      private:
        DramArray *dram;
        psm::Psm &psm;
    };

    SystemConfig _config;
    EventQueue eq;
    std::unique_ptr<psm::Psm> _psm;
    std::unique_ptr<DramArray> _dram;
    std::unique_ptr<RoutedPort> ownedPort;
    mem::MemoryPort *routedPort = nullptr;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    mem::BackingStore _pmemStore;
    std::unique_ptr<kernel::Kernel> _kernel;
    std::unique_ptr<pecos::Sng> _sng;
    std::unique_ptr<pecos::MceHandler> _mce;
    power::PowerModel _power;
};

/** PSM parameters for a platform kind (Table I defaults). */
psm::PsmParams psmParamsFor(PlatformKind kind, std::uint32_t dimms);

} // namespace lightpc::platform

#endif // LIGHTPC_PLATFORM_SYSTEM_HH
