/**
 * @file
 * L1 cache timing model.
 *
 * A write-back, write-allocate, set-associative cache with a small
 * writeback buffer. Two properties matter for LightPC:
 *
 *  - Loads that miss block their core until the memory below
 *    responds (reads are the critical path, Section VI-A).
 *  - Dirty-line state is enumerable so SnG's "cache dump" can flush
 *    the real dirty footprint through the PSM at PRAM write speed.
 */

#ifndef LIGHTPC_CACHE_L1_CACHE_HH
#define LIGHTPC_CACHE_L1_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/memory_port.hh"
#include "mem/request.hh"
#include "mem/tag_cache.hh"
#include "sim/ticks.hh"

namespace lightpc::cache
{

/** Configuration of one L1 cache. */
struct L1Params
{
    /** Capacity in bytes (prototype: 16 KB each for I$ and D$). */
    std::uint64_t capacityBytes = 16 * 1024;

    /** Line size in bytes. */
    std::uint32_t lineBytes = mem::cacheLineBytes;

    /** Associativity. */
    std::uint32_t ways = 4;

    /** Hit latency. */
    Tick hitLatency = 2 * tickNs;

    /** Writeback buffer entries. */
    std::uint32_t writebackEntries = 8;

    /** Per-line iteration cost of a whole-cache flush (controller). */
    Tick flushPerLine = 2 * tickNs;
};

/** Outcome of a cache access from the core's perspective. */
struct CacheAccess
{
    bool hit = false;
    /** When the core may proceed. */
    Tick completeAt = 0;
};

/** Cache statistics. */
struct L1Stats
{
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t writebacks = 0;
    Tick writebackStallTicks = 0;

    bool operator==(const L1Stats &) const = default;

    double
    loadHitRate() const
    {
        const auto total = loadHits + loadMisses;
        return total ? static_cast<double>(loadHits)
            / static_cast<double>(total) : 0.0;
    }

    double
    storeHitRate() const
    {
        const auto total = storeHits + storeMisses;
        return total ? static_cast<double>(storeHits)
            / static_cast<double>(total) : 0.0;
    }
};

/**
 * One L1 cache bound to a memory port.
 */
class L1Cache
{
  public:
    L1Cache(const L1Params &params, mem::MemoryPort &below);

    const L1Params &params() const { return _params; }

    /** Service a load issued at @p when. */
    CacheAccess load(mem::Addr addr, Tick when);

    /** Service a store issued at @p when. */
    CacheAccess store(mem::Addr addr, Tick when);

    /**
     * Cache dump: write every dirty line back through the memory
     * port (used by SnG's Auto-Stop and by pmem_persist-style flush
     * loops).
     *
     * @return When the last line has been *issued*; call
     *         MemoryPort::fence() afterwards to wait for media.
     */
    Tick flushAll(Tick when);

    /** Invalidate everything (cold boot). */
    void invalidateAll();

    /** Current number of dirty lines. */
    std::uint64_t dirtyLines() const { return tags.dirtyLines(); }

    /** Current number of valid lines. */
    std::uint64_t validLines() const { return tags.validLines(); }

    const L1Stats &stats() const { return _stats; }

    /** Reset statistics (not contents). */
    void resetStats() { _stats = L1Stats{}; }

  private:
    /** Retire writeback-buffer entries that have completed. */
    void drainWritebacks(Tick now);

    /** Issue one line writeback; may stall if the buffer is full. */
    Tick issueWriteback(mem::Addr block, Tick when);

    L1Params _params;
    mem::MemoryPort &below;
    mem::TagCache tags;
    /** Completion times of in-flight writebacks. */
    std::vector<Tick> wbBusyUntil;
    L1Stats _stats;
};

} // namespace lightpc::cache

#endif // LIGHTPC_CACHE_L1_CACHE_HH
