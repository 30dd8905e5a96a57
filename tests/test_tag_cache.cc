/**
 * @file
 * Unit tests for the tag-only cache model.
 */

#include <gtest/gtest.h>

#include "mem/tag_cache.hh"
#include "sim/logging.hh"

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

} // namespace
