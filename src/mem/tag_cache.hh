/**
 * @file
 * Tag-only set-associative cache model.
 *
 * Tracks presence, dirtiness, and LRU order without storing data.
 * Used for the SRAM and DRAM buffer levels inside the Optane-style
 * PMEM DIMM model; the CPU's L1 model in cache/ builds on the same
 * structure but adds flush enumeration.
 */

#ifndef LIGHTPC_MEM_TAG_CACHE_HH
#define LIGHTPC_MEM_TAG_CACHE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "sim/fast_div.hh"
#include "sim/logging.hh"

namespace lightpc::mem
{

/**
 * LRU set-associative tag array.
 */
class TagCache
{
  public:
    /** Result of a lookup-and-allocate operation. */
    struct Outcome
    {
        bool hit = false;
        /** A valid line was evicted to make room. */
        bool evicted = false;
        /** The evicted line was dirty. */
        bool evictedDirty = false;
        /** Block address of the evicted line (when evicted). */
        Addr evictedBlock = 0;
    };

    /**
     * @param capacity_bytes Total capacity.
     * @param line_bytes     Block size (power of two).
     * @param ways           Associativity.
     */
    TagCache(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
             std::uint32_t ways)
        : lineBytes(line_bytes), numWays(ways)
    {
        if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
            fatal("TagCache line size must be a power of two");
        if (ways == 0 || ways > 64)
            fatal("TagCache associativity must be 1..64 ways");
        const std::uint64_t lines = capacity_bytes / line_bytes;
        numSets = static_cast<std::uint32_t>(lines / ways);
        if (numSets == 0)
            numSets = 1;
        lineDecode.set(lineBytes);
        setDecode.set(numSets);
        sets.assign(std::size_t(numSets) * numWays, Line{});
    }

    std::uint32_t ways() const { return numWays; }
    std::uint32_t setCount() const { return numSets; }

    /** Block (line-aligned) address for @p addr. */
    Addr blockOf(Addr addr) const { return addr & ~Addr(lineBytes - 1); }

    /** Probe without modifying state. */
    bool
    contains(Addr addr) const
    {
        const Addr block = blockOf(addr);
        return matchMask(setRange(block).first, block) != 0;
    }

    /**
     * Access @p addr, allocating on miss.
     *
     * @param addr  Byte address.
     * @param dirty Mark the line dirty (stores / fills of dirty data).
     */
    Outcome
    access(Addr addr, bool dirty)
    {
        const Addr block = blockOf(addr);
        const std::size_t base = setRange(block).first;
        Outcome out;

        // Compare every way before branching: which way hits is as
        // random as the workload, so a per-way early exit mispredicts.
        if (const std::uint64_t hits = matchMask(base, block)) {
            Line &line = sets[base + std::countr_zero(hits)];
            out.hit = true;
            line.lastUse = ++useClock;
            line.dirty = line.dirty || dirty;
            return out;
        }

        // Miss: the last invalid way, else the least recently used.
        std::uint32_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < numWays; ++w) {
            const Line &line = sets[base + w];
            if (!line.valid) {
                victim = w;
                oldest = 0;
            } else if (line.lastUse < oldest) {
                victim = w;
                oldest = line.lastUse;
            }
        }

        Line &line = sets[base + victim];
        if (line.valid) {
            out.evicted = true;
            out.evictedDirty = line.dirty;
            out.evictedBlock = line.block;
        }
        line.valid = true;
        line.dirty = dirty;
        line.block = block;
        line.lastUse = ++useClock;
        return out;
    }

    /** Invalidate one block if present. @return true if it was dirty. */
    bool
    invalidate(Addr addr)
    {
        const Addr block = blockOf(addr);
        const std::size_t base = setRange(block).first;
        const std::uint64_t hits = matchMask(base, block);
        if (hits == 0)
            return false;
        Line &line = sets[base + std::countr_zero(hits)];
        const bool dirty = line.dirty;
        line = Line{};
        return dirty;
    }

    /** Number of valid lines. */
    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const auto &line : sets)
            n += line.valid ? 1 : 0;
        return n;
    }

    /** Number of valid dirty lines. */
    std::uint64_t
    dirtyLines() const
    {
        std::uint64_t n = 0;
        for (const auto &line : sets)
            n += (line.valid && line.dirty) ? 1 : 0;
        return n;
    }

    /** Collect all dirty block addresses (cache dump support). */
    std::vector<Addr>
    collectDirty() const
    {
        std::vector<Addr> blocks;
        for (const auto &line : sets)
            if (line.valid && line.dirty)
                blocks.push_back(line.block);
        return blocks;
    }

    /** Clear dirty bits (after a flush) without invalidating. */
    void
    cleanAll()
    {
        for (auto &line : sets)
            line.dirty = false;
    }

    /** Drop everything. */
    void
    invalidateAll()
    {
        std::fill(sets.begin(), sets.end(), Line{});
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr block = 0;
        std::uint64_t lastUse = 0;
    };

    /**
     * Bit w set when way w of the set starting at @p base holds
     * @p block. A block lives in at most one way, so at most one bit
     * is set.
     */
    std::uint64_t
    matchMask(std::size_t base, Addr block) const
    {
        const Line *set = &sets[base];
        std::uint64_t hits = 0;
        for (std::uint32_t w = 0; w < numWays; ++w)
            hits |= std::uint64_t(set[w].valid & (set[w].block == block))
                << w;
        return hits;
    }

    /** First index of the set holding @p block, plus the set index. */
    std::pair<std::size_t, std::uint32_t>
    setRange(Addr block) const
    {
        const std::uint32_t set = static_cast<std::uint32_t>(
            setDecode.mod(lineDecode.div(block)));
        return {std::size_t(set) * numWays, set};
    }

    std::uint32_t lineBytes;
    std::uint32_t numWays;
    std::uint32_t numSets;
    FastDiv lineDecode;  ///< divisor: lineBytes
    FastDiv setDecode;   ///< divisor: numSets
    std::uint64_t useClock = 0;
    std::vector<Line> sets;
};

} // namespace lightpc::mem

#endif // LIGHTPC_MEM_TAG_CACHE_HH
