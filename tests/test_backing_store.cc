/**
 * @file
 * Unit tests for the functional backing store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/backing_store.hh"

namespace
{

using namespace lightpc;
using mem::BackingStore;

TEST(BackingStore, UnwrittenReadsAsZero)
{
    BackingStore store;
    std::uint8_t buf[16];
    std::memset(buf, 0xff, sizeof(buf));
    store.read(0x1000, buf, sizeof(buf));
    for (std::uint8_t b : buf)
        EXPECT_EQ(b, 0);
}

TEST(BackingStore, RoundTripsValues)
{
    BackingStore store;
    store.writeValue<std::uint64_t>(0x42, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(store.readValue<std::uint64_t>(0x42),
              0xdeadbeefcafef00dULL);
}

TEST(BackingStore, CrossPageAccess)
{
    BackingStore store;
    const std::uint64_t addr = BackingStore::pageBytes - 4;
    store.writeValue<std::uint64_t>(addr, 0x0123456789abcdefULL);
    EXPECT_EQ(store.readValue<std::uint64_t>(addr),
              0x0123456789abcdefULL);
    EXPECT_EQ(store.materializedPages(), 2u);
}

TEST(BackingStore, ClearZeroesAndReleasesWholePages)
{
    BackingStore store;
    store.writeValue<std::uint32_t>(0, 7);
    store.writeValue<std::uint32_t>(BackingStore::pageBytes, 9);
    EXPECT_EQ(store.materializedPages(), 2u);
    store.clear(0, BackingStore::pageBytes);
    EXPECT_EQ(store.materializedPages(), 1u);
    EXPECT_EQ(store.readValue<std::uint32_t>(0), 0u);
    EXPECT_EQ(store.readValue<std::uint32_t>(BackingStore::pageBytes),
              9u);
}

TEST(BackingStore, PartialClearZeroesRange)
{
    BackingStore store;
    store.writeValue<std::uint32_t>(100, 0xaaaaaaaa);
    store.writeValue<std::uint32_t>(200, 0xbbbbbbbb);
    store.clear(100, 4);
    EXPECT_EQ(store.readValue<std::uint32_t>(100), 0u);
    EXPECT_EQ(store.readValue<std::uint32_t>(200), 0xbbbbbbbbu);
}

TEST(BackingStore, EqualsIgnoresZeroPages)
{
    BackingStore a, b;
    a.writeValue<std::uint32_t>(0x5000, 0);  // explicit zero page
    EXPECT_TRUE(a.equals(b));
    EXPECT_TRUE(b.equals(a));
    b.writeValue<std::uint32_t>(0x5000, 3);
    EXPECT_FALSE(a.equals(b));
    EXPECT_FALSE(b.equals(a));
}

TEST(BackingStore, EqualsDetectsDifferences)
{
    BackingStore a, b;
    a.writeValue<std::uint64_t>(64, 1);
    b.writeValue<std::uint64_t>(64, 1);
    EXPECT_TRUE(a.equals(b));
    b.writeValue<std::uint64_t>(72, 2);
    EXPECT_FALSE(a.equals(b));
}

TEST(BackingStore, ResetDropsEverything)
{
    BackingStore store;
    store.writeValue<std::uint64_t>(0, 1);
    store.reset();
    EXPECT_EQ(store.materializedPages(), 0u);
    EXPECT_EQ(store.readValue<std::uint64_t>(0), 0u);
}

TEST(BackingStore, LargeBlockCopy)
{
    BackingStore store;
    std::vector<std::uint8_t> data(3 * BackingStore::pageBytes + 17);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    store.write(12345, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    store.read(12345, back.data(), back.size());
    EXPECT_EQ(data, back);
}

/**
 * Every copy length the store's short-copy path and its plain memcpy
 * fallback can see (0-130 bytes), at offsets on both sides of a page
 * boundary and across a written/absent page pair, against a flat
 * byte-array model. Reads must fill exactly the requested bytes.
 */
TEST(BackingStore, EveryShortLengthMatchesAFlatModel)
{
    constexpr std::uint64_t page = BackingStore::pageBytes;
    constexpr std::uint64_t base = 2 * page;  // model covers pages 2-4
    constexpr std::uint64_t edge = base + page;   // written pages 2|3
    constexpr std::uint64_t absent = edge + page;  // page 3|4, 4 unwritten
    constexpr std::uint64_t guard = 16;
    BackingStore store;
    std::vector<std::uint8_t> model(3 * page, 0);
    std::uint8_t fill = 1;

    auto expectRange = [&](std::uint64_t addr, std::uint64_t len) {
        std::vector<std::uint8_t> out(len + guard, 0xa5);
        store.read(addr, out.data(), len);
        for (std::uint64_t i = 0; i < len; ++i)
            ASSERT_EQ(out[i], model[addr - base + i])
                << "addr " << addr << " len " << len << " byte " << i;
        for (std::uint64_t i = len; i < len + guard; ++i)
            ASSERT_EQ(out[i], 0xa5) << "read overran, len " << len;
    };

    for (std::uint64_t len = 0; len <= 130; ++len) {
        // Unwritten pages read as zero, straddling or not.
        expectRange(edge - len / 2, len);
        expectRange(absent - len / 2, len);
    }
    for (std::uint64_t len = 0; len <= 130; ++len) {
        const std::uint64_t starts[] = {edge - len - 5, edge - len,
                                        edge - len / 2, edge - 1, edge,
                                        edge + 3};
        for (const std::uint64_t addr : starts) {
            if (len == 0 && addr < edge)
                continue;  // a zero-length write has no side
            std::vector<std::uint8_t> in(len);
            for (auto &b : in)
                b = fill += 37;
            store.write(addr, in.data(), len);
            std::copy(in.begin(), in.end(),
                      model.begin() + (addr - base));
            expectRange(addr, len);
            expectRange(addr - 70, len + 140);
        }
    }
    // Page 3 reached by the last writes, page 4 never written: a read
    // across the 3|4 boundary mixes a present and an absent page.
    for (std::uint64_t len = 0; len <= 130; ++len)
        expectRange(absent - len / 2, len);
    EXPECT_EQ(store.materializedPages(), 2u);
}

/**
 * Writes of 9-130 bytes straddling an armed cut land a durable prefix
 * and nothing else, and the torn-prefix statistics stay pinned:
 * the copy path never changes what the cursor decides.
 */
TEST(BackingStore, TornPrefixStatisticsArePinned)
{
    constexpr std::uint64_t edge = 3 * BackingStore::pageBytes;
    std::uint64_t durable = 0, torn = 0, dropped = 0, lines = 0;
    for (std::uint64_t len = 9; len <= 130; ++len) {
        for (const std::uint64_t addr : {edge - len / 2, edge - 3}) {
            BackingStore store;
            std::vector<std::uint8_t> in(len);
            for (std::uint64_t i = 0; i < len; ++i)
                in[i] = static_cast<std::uint8_t>(i * 29 + len + 1);
            store.armPowerCut(500, len * 7 + addr);
            store.writeTimed(0, 1000, addr, in.data(), len);
            const mem::DurabilityCutStats &cs = store.cutStats();
            ASSERT_EQ(cs.tornWrites, 1u);
            ASSERT_EQ(cs.durableBytes + cs.droppedBytes, len);
            std::vector<std::uint8_t> out(len);
            store.read(addr, out.data(), len);
            for (std::uint64_t i = 0; i < len; ++i)
                ASSERT_EQ(out[i], i < cs.durableBytes ? in[i] : 0)
                    << "len " << len << " byte " << i;
            durable += cs.durableBytes;
            torn += cs.lastTornBytes;
            dropped += cs.droppedBytes;
            lines += cs.lastTornLine;
        }
    }
    EXPECT_EQ(durable, 9707u);
    EXPECT_EQ(torn, 5132u);
    EXPECT_EQ(dropped, 7251u);
    EXPECT_EQ(lines, 2998272u);
}

} // namespace
