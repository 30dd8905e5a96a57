/**
 * @file
 * Synthetic instruction stream matched to a Table II workload.
 *
 * The generator reproduces, statistically, the properties the memory
 * system reacts to:
 *
 *  - load/store mix from the Table II read/write counts;
 *  - D$ hit rates via a resident hot set (always hits after warmup)
 *    vs a cold streaming footprint (always misses);
 *  - row-buffer locality via geometric sequential runs through the
 *    cold footprint;
 *  - read-after-write behaviour via an affinity knob that redirects
 *    cold reads at recently-written lines (the Fig. 16 driver).
 *
 * Multithreaded workloads instantiate one stream per core with
 * disjoint hot sets and interleaved cold regions, sharing the total
 * operation budget.
 */

#ifndef LIGHTPC_WORKLOAD_SYNTHETIC_HH
#define LIGHTPC_WORKLOAD_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/instr.hh"
#include "sim/rng.hh"
#include "workload/spec.hh"

namespace lightpc::workload
{

/** Runtime scaling for a synthetic stream. */
struct SyntheticConfig
{
    /** Divide the paper-scale operation counts by this factor. */
    std::uint64_t scaleDivisor = 100;

    /** RNG seed (combined with the thread id). */
    std::uint64_t seed = 42;

    /** Number of threads sharing the budget (1 for ST workloads). */
    std::uint32_t threads = 1;

    /**
     * Hot-set size per thread in bytes. 6 KB in a 16 KB 4-way L1
     * leaves enough headroom that cold-stream pollution does not
     * depress the achieved hit rates below the Table II targets.
     */
    static constexpr std::uint64_t hotBytes = 6 * 1024;

    /**
     * L1 lines assumed when computing the read-after-write target
     * age (see SyntheticStream::coldAddr): a cold line lives about
     * this many cold allocations before its dirty writeback, and a
     * dependent read arriving then collides with the cooling PRAM.
     */
    static constexpr std::uint64_t assumedCacheLines = 256;
};

/**
 * One thread's synthetic stream.
 */
class SyntheticStream : public cpu::InstrStream
{
  public:
    /**
     * @param spec      The Table II row to imitate.
     * @param config    Scaling parameters.
     * @param thread_id This stream's index in [0, config.threads).
     * @param base_addr Start of this workload's address region.
     */
    SyntheticStream(const WorkloadSpec &spec,
                    const SyntheticConfig &config,
                    std::uint32_t thread_id, mem::Addr base_addr);

    bool next(cpu::Instr &out) override { return generate(out, 1); }

    /**
     * Merge up to @p budget instructions into one entry: the ALU
     * instructions before the next memory op, then that op.
     */
    bool
    nextRun(cpu::Instr &out, std::uint32_t budget) override
    {
        return generate(out, budget);
    }

    /** Total instructions this stream will produce. */
    std::uint64_t totalInstructions() const { return totalInstr; }

    /** Instructions produced so far. */
    std::uint64_t produced() const { return count; }

    /** Restart the stream from the beginning (same sequence). */
    void rewind();

  private:
    /** The one generation body behind next() and nextRun(). */
    bool generate(cpu::Instr &out, std::uint32_t budget);

    mem::Addr hotAddr();
    mem::Addr coldAddr(bool is_read);

    const WorkloadSpec &spec;
    SyntheticConfig config;
    std::uint64_t seedBase;
    Rng rng;
    mem::Addr hotBase;
    mem::Addr coldBase;
    std::uint64_t coldLines;
    std::uint64_t totalInstr;
    std::uint64_t count = 0;

    /** Rng::chanceThreshold of each fixed probability. */
    std::uint64_t memThreshold;
    std::uint64_t readThreshold;
    std::uint64_t readHitThreshold;
    std::uint64_t writeHitThreshold;
    std::uint64_t rawThreshold;
    std::uint64_t runEndThreshold;  ///< 1 / mean sequential run

    /** Sequential-run state. */
    std::uint64_t cursorLine = 0;
    std::uint64_t runRemaining = 0;

    /** Ring of recently written cold lines (RAW affinity). */
    std::vector<mem::Addr> recentWrites;
    std::size_t recentPos = 0;
    std::size_t recentCount = 0;

    /** Cold-write age (ring distance) at which L1 evicts a line. */
    std::uint64_t evictionAge = 64;
};

/**
 * Create the per-core streams for @p spec: `threads` streams for
 * multithreaded workloads, one otherwise.
 */
std::vector<std::unique_ptr<SyntheticStream>>
makeStreams(const WorkloadSpec &spec, const SyntheticConfig &config,
            std::uint32_t available_cores, mem::Addr base_addr);

/**
 * Multi-programmed consolidation: one single-threaded instance of
 * each named workload on its own core, with disjoint address
 * regions — the "server running many things at once" scenario the
 * paper's busy system approximates.
 *
 * @pre specs.size() <= available cores.
 */
std::vector<std::unique_ptr<SyntheticStream>>
makeMixedStreams(const std::vector<std::string> &names,
                 const SyntheticConfig &config, mem::Addr base_addr);

} // namespace lightpc::workload

#endif // LIGHTPC_WORKLOAD_SYNTHETIC_HH
