/**
 * @file
 * Unit tests for the tag-only cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/tag_cache.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using mem::TagCache;

TEST(TagCache, MissThenHit)
{
    TagCache cache(1024, 64, 2);
    EXPECT_FALSE(cache.access(0, false).hit);
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_TRUE(cache.access(63, false).hit);   // same line
    EXPECT_FALSE(cache.access(64, false).hit);  // next line
}

TEST(TagCache, LruEviction)
{
    // 2 ways, 64 B lines, 2 sets -> set stride 128.
    TagCache cache(256, 64, 2);
    cache.access(0, false);    // set 0, way A
    cache.access(256, false);  // set 0, way B
    cache.access(0, false);    // touch A (B becomes LRU)
    const auto out = cache.access(512, false);  // set 0, evicts B
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.evictedBlock, 256u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(256));
}

TEST(TagCache, DirtyPropagatesToEviction)
{
    TagCache cache(128, 64, 1);  // direct-mapped, 2 sets
    cache.access(0, true);
    const auto out = cache.access(128, false);  // same set
    EXPECT_TRUE(out.evicted);
    EXPECT_TRUE(out.evictedDirty);
}

TEST(TagCache, CleanMissEvictionIsNotDirty)
{
    TagCache cache(128, 64, 1);
    cache.access(0, false);
    const auto out = cache.access(128, false);
    EXPECT_TRUE(out.evicted);
    EXPECT_FALSE(out.evictedDirty);
}

TEST(TagCache, HitUpgradesDirtiness)
{
    TagCache cache(128, 64, 1);
    cache.access(0, false);
    cache.access(0, true);  // store hit
    const auto out = cache.access(128, false);
    EXPECT_TRUE(out.evictedDirty);
}

TEST(TagCache, DirtyLineAccounting)
{
    TagCache cache(4096, 64, 4);
    cache.access(0, true);
    cache.access(64, false);
    cache.access(128, true);
    EXPECT_EQ(cache.validLines(), 3u);
    EXPECT_EQ(cache.dirtyLines(), 2u);
    const auto dirty = cache.collectDirty();
    EXPECT_EQ(dirty.size(), 2u);
}

TEST(TagCache, CleanAllKeepsContents)
{
    TagCache cache(4096, 64, 4);
    cache.access(0, true);
    cache.cleanAll();
    EXPECT_EQ(cache.dirtyLines(), 0u);
    EXPECT_TRUE(cache.contains(0));
}

TEST(TagCache, InvalidateReturnsDirtiness)
{
    TagCache cache(4096, 64, 4);
    cache.access(0, true);
    cache.access(64, false);
    EXPECT_TRUE(cache.invalidate(0));
    EXPECT_FALSE(cache.invalidate(64));
    EXPECT_FALSE(cache.invalidate(128));  // absent
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(TagCache, InvalidateAll)
{
    TagCache cache(4096, 64, 4);
    for (int i = 0; i < 10; ++i)
        cache.access(i * 64, true);
    cache.invalidateAll();
    EXPECT_EQ(cache.validLines(), 0u);
    EXPECT_EQ(cache.dirtyLines(), 0u);
}

TEST(TagCache, RejectsBadGeometry)
{
    EXPECT_THROW(TagCache(1024, 63, 2), FatalError);
    EXPECT_THROW(TagCache(1024, 64, 0), FatalError);
    EXPECT_THROW(TagCache(std::uint64_t(65) * 64, 64, 65), FatalError);
}

TEST(TagCache, CapacityWorksAsExpected)
{
    // 16 lines total: fill them all, the 17th distinct line evicts.
    TagCache cache(1024, 64, 4);
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(cache.access(i * 64, false).hit);
    EXPECT_EQ(cache.validLines(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(cache.access(i * 64, false).hit);
}

TEST(TagCache, NonPowerOfTwoSetCountIndexesByModulo)
{
    // 384 B / 64 B lines / 2 ways -> 3 sets: line n maps to set n % 3,
    // through FastDiv's division fallback rather than a mask.
    TagCache cache(384, 64, 2);
    ASSERT_EQ(cache.setCount(), 3u);
    EXPECT_FALSE(cache.access(0 * 64, false).hit);  // set 0
    EXPECT_FALSE(cache.access(1 * 64, true).hit);   // set 1
    EXPECT_FALSE(cache.access(2 * 64, false).hit);  // set 2
    EXPECT_FALSE(cache.access(3 * 64, true).hit);   // set 0, way B
    EXPECT_TRUE(cache.access(0, false).hit);        // line 3 now LRU

    // Line 6 is set 0 again: the set is full, so line 3 goes.
    auto out = cache.access(6 * 64, false);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.evicted);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(out.evictedBlock, 3u * 64);

    // Line 4 is set 1 (a mask would say set 0): a free way, no victim.
    out = cache.access(4 * 64, false);
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.evicted);

    // Line 7 fills set 1 past its ways: the LRU line 1 goes, dirty.
    out = cache.access(7 * 64, false);
    EXPECT_TRUE(out.evicted);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(out.evictedBlock, 1u * 64);

    // A high line index: (2^40 + 1) % 3 == 2, set 2's free way.
    out = cache.access(((std::uint64_t(1) << 40) + 1) * 64, true);
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.evicted);

    for (const std::uint64_t line : {0, 2, 4, 6, 7})
        EXPECT_TRUE(cache.contains(line * 64)) << "line " << line;
    EXPECT_FALSE(cache.contains(1 * 64));
    EXPECT_FALSE(cache.contains(3 * 64));
    EXPECT_EQ(cache.validLines(), 6u);
    EXPECT_EQ(cache.dirtyLines(), 1u);
}

/**
 * Reference LRU, a plain scan per operation: a hit is any valid way
 * holding the block; a miss fills the highest-numbered invalid way,
 * else evicts the least recently used one. The way a line lands in
 * fixes the order of collectDirty() (and so of an L1 flush).
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint32_t sets, std::uint32_t ways,
                 std::uint32_t line_bytes)
        : lineBytes(line_bytes), numWays(ways),
          lines(std::size_t(sets) * ways)
    {}

    TagCache::Outcome
    access(mem::Addr addr, bool dirty)
    {
        const mem::Addr block = addr / lineBytes * lineBytes;
        Line *set = setOf(block);
        TagCache::Outcome out;
        if (Line *line = find(set, block)) {
            out.hit = true;
            line->dirty = line->dirty || dirty;
            line->lastUse = ++clock;
            return out;
        }
        Line *victim = nullptr;
        for (std::uint32_t w = numWays; w-- > 0 && !victim;)
            if (!set[w].valid)
                victim = &set[w];
        for (std::uint32_t w = 0; w < numWays && !victim; ++w)
            if (set[w].lastUse == minUse(set))
                victim = &set[w];
        if (victim->valid) {
            out.evicted = true;
            out.evictedDirty = victim->dirty;
            out.evictedBlock = victim->block;
        }
        *victim = Line{true, dirty, block, ++clock};
        return out;
    }

    bool
    contains(mem::Addr addr)
    {
        const mem::Addr block = addr / lineBytes * lineBytes;
        return find(setOf(block), block) != nullptr;
    }

    bool
    invalidate(mem::Addr addr)
    {
        const mem::Addr block = addr / lineBytes * lineBytes;
        Line *line = find(setOf(block), block);
        if (!line)
            return false;
        const bool dirty = line->dirty;
        *line = Line{};
        return dirty;
    }

    void
    cleanAll()
    {
        for (auto &line : lines)
            line.dirty = false;
    }

    void
    invalidateAll()
    {
        std::fill(lines.begin(), lines.end(), Line{});
    }

    std::uint64_t
    validLines() const
    {
        return std::count_if(lines.begin(), lines.end(),
                             [](const Line &l) { return l.valid; });
    }

    /** Dirty blocks in set order, then way order. */
    std::vector<mem::Addr>
    dirtyBlocks() const
    {
        std::vector<mem::Addr> blocks;
        for (const auto &line : lines)
            if (line.valid && line.dirty)
                blocks.push_back(line.block);
        return blocks;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        mem::Addr block = 0;
        std::uint64_t lastUse = 0;
    };

    Line *
    setOf(mem::Addr block)
    {
        const std::size_t sets = lines.size() / numWays;
        return &lines[block / lineBytes % sets * numWays];
    }

    Line *
    find(Line *set, mem::Addr block)
    {
        for (std::uint32_t w = 0; w < numWays; ++w)
            if (set[w].valid && set[w].block == block)
                return &set[w];
        return nullptr;
    }

    std::uint64_t
    minUse(const Line *set) const
    {
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < numWays; ++w)
            oldest = std::min(oldest, set[w].lastUse);
        return oldest;
    }

    std::uint32_t lineBytes;
    std::uint32_t numWays;
    std::vector<Line> lines;
    std::uint64_t clock = 0;
};

TEST(TagCache, MatchesReferenceLruUnderFuzz)
{
    constexpr std::uint32_t line = 64;
    Rng rng(31);
    for (std::uint32_t ways = 1; ways <= 8; ++ways) {
        for (const std::uint32_t sets : {1u, 3u, 4u, 5u, 12u, 16u}) {
            SCOPED_TRACE(testing::Message()
                         << ways << " ways, " << sets << " sets");
            TagCache cache(std::uint64_t(sets) * ways * line, line, ways);
            ASSERT_EQ(cache.setCount(), sets);
            ReferenceLru ref(sets, ways, line);
            // Twice the capacity in distinct blocks: hits and misses.
            const std::uint64_t blocks = 2 * std::uint64_t(sets) * ways;
            for (int op = 0; op < 4000; ++op) {
                const mem::Addr addr =
                    rng.below(blocks) * line + rng.below(line);
                const std::uint64_t pick = rng.below(100);
                if (pick < 70) {
                    const bool dirty = rng.chance(0.4);
                    const auto got = cache.access(addr, dirty);
                    const auto want = ref.access(addr, dirty);
                    ASSERT_EQ(got.hit, want.hit) << "op " << op;
                    ASSERT_EQ(got.evicted, want.evicted) << "op " << op;
                    ASSERT_EQ(got.evictedDirty, want.evictedDirty)
                        << "op " << op;
                    ASSERT_EQ(got.evictedBlock, want.evictedBlock)
                        << "op " << op;
                } else if (pick < 85) {
                    ASSERT_EQ(cache.contains(addr), ref.contains(addr))
                        << "op " << op;
                } else if (pick < 98) {
                    ASSERT_EQ(cache.invalidate(addr),
                              ref.invalidate(addr))
                        << "op " << op;
                } else if (pick < 99) {
                    cache.cleanAll();
                    ref.cleanAll();
                } else if (rng.chance(0.2)) {
                    cache.invalidateAll();
                    ref.invalidateAll();
                }
                const auto dirty = ref.dirtyBlocks();
                ASSERT_EQ(cache.validLines(), ref.validLines())
                    << "op " << op;
                ASSERT_EQ(cache.dirtyLines(), dirty.size()) << "op " << op;
                ASSERT_EQ(cache.collectDirty(), dirty) << "op " << op;
            }
        }
    }
}

} // namespace
