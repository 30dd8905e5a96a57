/**
 * @file
 * Core timing model.
 *
 * Approximates the prototype's out-of-order RISC-V core with the
 * properties the evaluation depends on: ALU work and L1 hits retire
 * at pipeline speed, loads that miss L1 *block* (following
 * instructions wait for the data), and stores retire through a store
 * buffer so write latency is tolerable until backpressure.
 *
 * Cores advance through the shared EventQueue one "episode" at a
 * time — from one below-L1 interaction to the next — which keeps
 * multi-core accesses to the shared memory timeline ordered.
 */

#ifndef LIGHTPC_CPU_CORE_HH
#define LIGHTPC_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/l1_cache.hh"
#include "cpu/instr.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace lightpc::cpu
{

/** Configuration of one core. */
struct CoreParams
{
    /** Clock frequency in MHz (ASIC config: 1600, FPGA: 400). */
    std::uint64_t freqMhz = 1600;

    /** Effective issue rate for ALU work / L1 hits (CPI). */
    double baseCpi = 1.0;

    /** Store-buffer entries. */
    std::uint32_t storeBufferEntries = 8;

    /** Max instructions retired per episode (event granularity). */
    std::uint32_t episodeLimit = 256;

    /** L1 D-cache configuration. */
    cache::L1Params dcache;

    /**
     * Model instruction fetch through the 16 KB L1 I-cache
     * (Table I). Off by default: the Table II workloads are
     * characterized by their data traffic, and their code working
     * sets fit the I$; enable it to study code-footprint effects
     * (bench_ablation_icache).
     */
    bool modelIFetch = false;

    /** L1 I-cache configuration (used when modelIFetch). */
    cache::L1Params icache;

    /** Probability an instruction redirects fetch (taken branch). */
    double branchProbability = 0.05;

    /** Seed for the synthetic fetch-target generator. */
    static constexpr std::uint64_t fetchSeed = 17;
};

/** Per-core statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Tick busyTicks = 0;        ///< issue + hit time
    Tick loadStallTicks = 0;   ///< blocked on L1 load misses
    Tick storeStallTicks = 0;  ///< store buffer backpressure
    Tick fetchStallTicks = 0;  ///< frontend blocked on I$ misses

    bool operator==(const CoreStats &) const = default;
};

/**
 * One core with a private L1 D-cache.
 */
class Core
{
  public:
    /** A core that schedules its episodes on @p eq. */
    Core(EventQueue &eq, const CoreParams &params,
         mem::MemoryPort &mem_port);

    const CoreParams &params() const { return _params; }

    /** The core's clock domain. */
    const ClockDomain &clock() const { return _clock; }

    /** Attach a stream and begin executing at @p when. */
    void run(InstrStream &stream, Tick when);

    /**
     * Stop fetching immediately (SnG's Drive-to-Idle parking the
     * core on the idle task). The stream can be re-attached later
     * with run() and continues from where it stopped.
     */
    void stop();

    /** True when no work is scheduled (stopped or stream done). */
    bool idle() const { return !active; }

    /** True when the attached stream ran to completion. */
    bool finished() const { return streamDone; }

    /** The core's local time (last retirement). */
    Tick localTime() const { return now; }

    /** Callback invoked when the stream completes. */
    void onFinished(std::function<void()> cb) { finishedCb = cb; }

    /** The private D-cache (SnG flushes it at Auto-Stop). */
    cache::L1Cache &dcache() { return *_dcache; }
    const cache::L1Cache &dcache() const { return *_dcache; }

    /** The private I-cache (null unless modelIFetch). */
    cache::L1Cache *icache() { return _icache.get(); }

    /**
     * Place the code region instruction fetch walks (only
     * meaningful with modelIFetch). Call before run().
     */
    void setCodeRegion(mem::Addr base, std::uint64_t bytes);

    const CoreStats &stats() const { return _stats; }
    void resetStats() { _stats = CoreStats{}; }

    /** Instructions per cycle over everything run so far. */
    double ipc() const;

  private:
    /** Execute until the next below-L1 interaction. */
    void episode();

    void scheduleEpisode();

    /** Stall the core in the store buffer if it is full. */
    Tick storeBufferAdmit(Tick when, Tick complete_at);

    /** Fetch the instruction at the synthetic PC; may stall. */
    void fetch();

    EventQueue &eq;
    CoreParams _params;
    ClockDomain _clock;
    Tick issueCost;  ///< ticks per retired ALU/hit instruction
    std::unique_ptr<cache::L1Cache> _dcache;
    std::unique_ptr<cache::L1Cache> _icache;
    Rng fetchRng;
    mem::Addr codeBase = std::uint64_t(3) << 30;
    std::uint64_t codeBytes = 256 * 1024;
    std::uint64_t fetchPc = 0;
    InstrStream *stream = nullptr;
    bool active = false;
    bool streamDone = false;
    /** Invalidates episode events from a previous run()/stop(). */
    std::uint64_t generation = 0;
    Tick now = 0;
    Tick startedAt = 0;
    std::vector<Tick> storeBuffer;
    CoreStats _stats;
    std::function<void()> finishedCb;
};

} // namespace lightpc::cpu

#endif // LIGHTPC_CPU_CORE_HH
