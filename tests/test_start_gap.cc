/**
 * @file
 * Unit and property tests for Start-Gap wear leveling.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "psm/start_gap.hh"
#include "sim/digest.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::psm;

StartGapParams
smallParams(bool randomize = false)
{
    StartGapParams p;
    p.lines = 64;
    p.pageLines = 4;
    p.writeThreshold = 10;
    p.randomize = randomize;
    return p;
}

/** The core invariant: the mapping is a bijection into lines+1
 *  slots, with the gap slot unused. */
void
expectBijective(const StartGap &sg)
{
    std::set<std::uint64_t> used;
    for (std::uint64_t la = 0; la < sg.params().lines; ++la) {
        const std::uint64_t pa = sg.remap(la);
        EXPECT_LE(pa, sg.params().lines);
        EXPECT_NE(pa, sg.gap()) << "logical line " << la
                                << " mapped onto the gap";
        EXPECT_TRUE(used.insert(pa).second)
            << "collision at physical slot " << pa;
    }
}

TEST(StartGap, InitialMappingIsIdentityWithoutRandomizer)
{
    StartGap sg(smallParams());
    for (std::uint64_t la = 0; la < 64; ++la)
        EXPECT_EQ(sg.remap(la), la);
}

TEST(StartGap, BijectiveInitially)
{
    expectBijective(StartGap(smallParams()));
    expectBijective(StartGap(smallParams(true)));
}

TEST(StartGap, GapMovesEveryThresholdWrites)
{
    StartGap sg(smallParams());
    for (int i = 0; i < 9; ++i)
        EXPECT_FALSE(sg.recordWrite());
    EXPECT_TRUE(sg.recordWrite());
    EXPECT_EQ(sg.totalMoves(), 1u);
    EXPECT_EQ(sg.gap(), 63u);  // N -> N-1
}

TEST(StartGap, BijectiveAfterManyMoves)
{
    StartGap sg(smallParams());
    for (int w = 0; w < 10 * 200; ++w)
        sg.recordWrite();
    EXPECT_EQ(sg.totalMoves(), 200u);
    expectBijective(sg);
}

TEST(StartGap, BijectiveAfterManyMovesWithRandomizer)
{
    StartGap sg(smallParams(true));
    for (int w = 0; w < 10 * 333; ++w)
        sg.recordWrite();
    expectBijective(sg);
}

TEST(StartGap, GapWrapIncrementsStart)
{
    StartGap sg(smallParams());
    // 65 moves: gap walks 64 -> 0, then wraps with start++.
    for (std::uint64_t m = 0; m < 65; ++m)
        for (int w = 0; w < 10; ++w)
            sg.recordWrite();
    EXPECT_EQ(sg.start(), 1u);
    EXPECT_EQ(sg.gap(), sg.params().lines);
    expectBijective(sg);
}

TEST(StartGap, FullRotationShiftsEverything)
{
    StartGap sg(smallParams());
    // After N+1 moves the whole address space has rotated by one.
    for (std::uint64_t m = 0; m < 65; ++m)
        for (int w = 0; w < 10; ++w)
            sg.recordWrite();
    for (std::uint64_t la = 0; la < 63; ++la)
        EXPECT_EQ(sg.remap(la), la + 1);
}

TEST(StartGap, EachMoveDisplacesExactlyOneLine)
{
    StartGap sg(smallParams());
    std::vector<std::uint64_t> before(64);
    for (std::uint64_t la = 0; la < 64; ++la)
        before[la] = sg.remap(la);
    for (int w = 0; w < 10; ++w)
        sg.recordWrite();
    int changed = 0;
    for (std::uint64_t la = 0; la < 64; ++la)
        changed += sg.remap(la) != before[la] ? 1 : 0;
    EXPECT_EQ(changed, 1);
}

TEST(StartGap, RandomizerPreservesPageAdjacency)
{
    StartGap sg(smallParams(true));
    // Lines within a randomizer page stay adjacent.
    for (std::uint64_t page = 0; page < 16; ++page) {
        const std::uint64_t base = sg.remap(page * 4);
        for (std::uint64_t off = 1; off < 4; ++off)
            EXPECT_EQ(sg.remap(page * 4 + off), base + off);
    }
}

TEST(StartGap, RandomizerScattersPages)
{
    StartGapParams p;
    p.lines = 1 << 16;
    p.pageLines = 32;
    p.randomize = true;
    StartGap sg(p);
    // Consecutive pages should not stay consecutive.
    int adjacent = 0;
    for (std::uint64_t page = 0; page + 1 < 256; ++page) {
        const std::uint64_t a = sg.remap(page * 32) / 32;
        const std::uint64_t b = sg.remap((page + 1) * 32) / 32;
        adjacent += (b == a + 1) ? 1 : 0;
    }
    EXPECT_LT(adjacent, 16);
}

TEST(StartGap, SaveRestoreRoundTrip)
{
    StartGap sg(smallParams(true));
    for (int w = 0; w < 137; ++w)
        sg.recordWrite();
    const StartGapState saved = sg.save();

    StartGap fresh(smallParams(true));
    fresh.restore(saved);
    for (std::uint64_t la = 0; la < 64; ++la)
        EXPECT_EQ(fresh.remap(la), sg.remap(la));
    EXPECT_EQ(fresh.totalMoves(), sg.totalMoves());
}

TEST(StartGap, RestoreRejectsWrongSeed)
{
    StartGap sg(smallParams(true));
    StartGapState state = sg.save();
    state.randomizerSeed ^= 1;
    EXPECT_THROW(sg.restore(state), FatalError);
}

TEST(StartGap, RestoreRejectsOutOfRangeRegisters)
{
    StartGap sg(smallParams(true));
    StartGapState state = sg.save();
    state.start = sg.params().lines;
    EXPECT_THROW(sg.restore(state), FatalError);
    state = sg.save();
    state.gap = sg.params().lines + 1;
    EXPECT_THROW(sg.restore(state), FatalError);
}

TEST(StartGap, StateFitsInSixtyFourBytes)
{
    // "taking less than 64B per 4TB~6TB memory" (Section VIII).
    EXPECT_LE(sizeof(StartGapState), 64u);
}

TEST(StartGap, RejectsBadParams)
{
    StartGapParams p;
    p.lines = 1;
    EXPECT_THROW(StartGap{p}, FatalError);
    p = smallParams();
    p.writeThreshold = 0;
    EXPECT_THROW(StartGap{p}, FatalError);
    p = smallParams();
    p.pageLines = 5;  // does not divide 64
    EXPECT_THROW(StartGap{p}, FatalError);
}

/**
 * FNV digest of remap() over a sequential sweep and then a seeded
 * random sweep of `lines + 2` lines each. Every step moves the gap
 * once, so each sweep wraps it and advances the start register.
 */
std::uint64_t
remapDigest(const StartGapParams &p)
{
    StartGap sg(p);
    Rng rng(p.randomizerSeed);
    sim::Fnv64 fnv;
    const std::uint64_t steps = p.lines + 2;
    const auto step = [&](std::uint64_t line) {
        fnv.mix(sg.remap(line));
        for (std::uint64_t w = 0; w < p.writeThreshold; ++w)
            sg.recordWrite();
    };
    for (std::uint64_t i = 0; i < steps; ++i)
        step(i % p.lines);
    for (std::uint64_t i = 0; i < steps; ++i)
        step(rng.below(p.lines));
    EXPECT_EQ(sg.start(), 2u) << "the gap must wrap once per sweep";
    return fnv.h;
}

/** Property geometries: lines, pageLines, seed. Page counts that are
 *  not a power of two (96/8, 100/10) and odd Feistel widths rounded up
 *  to even ones (32/1, 32/4 and the default geometry) all take the
 *  cycle-walk path. */
struct SgCase
{
    std::uint64_t lines;
    std::uint64_t page_lines;
    std::uint64_t seed;
};

const SgCase sgCases[] = {{32, 1, 1},   {32, 4, 2},    {96, 8, 3},
                          {128, 32, 4}, {100, 10, 5}, {2048, 32, 6}};

StartGapParams
caseParams(const SgCase &c)
{
    StartGapParams p;
    p.lines = c.lines;
    p.pageLines = c.page_lines;
    p.writeThreshold = 3;
    p.randomizerSeed = c.seed;
    return p;
}

TEST(StartGap, GoldenRemapDigest)
{
    // Captured before the per-page memo; any change to the mapping
    // moves these values.
    StartGapParams dflt;
    dflt.writeThreshold = 1;  // one gap move per step keeps it quick
    EXPECT_EQ(remapDigest(dflt), 0x86fd465711d93812ULL);
    EXPECT_EQ(remapDigest(smallParams()), 0x1eb1f3b72e227253ULL);

    const std::uint64_t golden[] = {
        0x32ac70c077eafd96ULL, 0xef8786b71fb15401ULL, 0x1413a7b09448a662ULL,
        0xebeed9bae61f95f2ULL, 0x031207c6540b2931ULL, 0x91122ce517239ca2ULL};
    static_assert(std::size(golden) == std::size(sgCases));
    for (std::size_t i = 0; i < std::size(sgCases); ++i)
        EXPECT_EQ(remapDigest(caseParams(sgCases[i])), golden[i])
            << "geometry " << sgCases[i].lines << "/"
            << sgCases[i].page_lines;
}

/** Property sweep over sizes/seeds: always bijective after churn. */
class StartGapProperty : public ::testing::TestWithParam<SgCase>
{
};

TEST_P(StartGapProperty, BijectiveUnderChurn)
{
    StartGap sg(caseParams(GetParam()));
    for (int w = 0; w < 1000; ++w)
        sg.recordWrite();
    expectBijective(sg);
}

/** The page memo is invisible: a long-lived instance answers every
 *  remap exactly like a fresh one restored to the same registers. */
TEST_P(StartGapProperty, MemoMatchesColdInstance)
{
    const StartGapParams p = caseParams(GetParam());
    StartGap warm(p);
    Rng rng(GetParam().seed);
    StartGapState snapshot = warm.save();
    std::uint64_t line = 0;
    bool wrapped = false;
    for (int i = 0; i < 8000; ++i) {
        // Sequential runs through pages, with random jumps between.
        line = rng.chance(0.1) ? rng.below(p.lines) : (line + 1) % p.lines;
        StartGap cold(p);
        cold.restore(warm.save());
        ASSERT_EQ(warm.remap(line), cold.remap(line)) << "step " << i;
        for (std::uint64_t w = rng.below(2 * p.writeThreshold); w > 0; --w)
            warm.recordWrite();
        wrapped |= warm.start() != 0;
        // Power cycles: take an EP-cut, later recover from it.
        if (i % 500 == 0)
            snapshot = warm.save();
        else if (i % 500 == 250)
            warm.restore(snapshot);
    }
    EXPECT_TRUE(wrapped) << "the gap must wrap";
}

/** remapRun() reports maximal runs: every line of a run maps to the
 *  next slot, and a run stops at the randomizer page's end or at the
 *  first line that does not (the wrap or the gap). Registers cover
 *  the gap at 0 and at lines and a start that wraps the sum. */
TEST_P(StartGapProperty, RemapRunMatchesRemap)
{
    for (const bool randomize : {true, false}) {
        StartGapParams p = caseParams(GetParam());
        p.randomize = randomize;
        const std::uint64_t lines = p.lines;
        StartGap sg(p);
        StartGapState regs = sg.save();
        for (const std::uint64_t start : {std::uint64_t(0),
                 std::uint64_t(1), lines / 2 + 1, lines - 1}) {
            for (const std::uint64_t gap : {std::uint64_t(0),
                     std::uint64_t(1), lines / 2, lines - 1, lines}) {
                regs.start = start;
                regs.gap = gap;
                sg.restore(regs);
                for (std::uint64_t line = 0; line < lines; ++line) {
                    std::uint64_t run = 0;
                    const std::uint64_t slot = sg.remapRun(line, run);
                    ASSERT_EQ(slot, sg.remap(line));
                    const std::uint64_t page_left =
                        p.pageLines - line % p.pageLines;
                    std::uint64_t want = 1;
                    while (want < page_left
                           && sg.remap(line + want) == slot + want)
                        ++want;
                    ASSERT_EQ(run, want)
                        << "line " << line << " start " << start
                        << " gap " << gap << " randomize " << randomize;
                }
            }
        }
    }
}

/** recordWrites(n) is n recordWrite() calls that move no gap, and
 *  writesBeforeMove() counts exactly those calls. */
TEST_P(StartGapProperty, RecordWritesMatchesRecordWrite)
{
    StartGapParams p = caseParams(GetParam());
    p.writeThreshold = 7;
    StartGap bulk(p), single(p);
    Rng rng(GetParam().seed);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t n = rng.below(bulk.writesBeforeMove() + 1);
        bulk.recordWrites(n);
        for (std::uint64_t w = 0; w < n; ++w)
            ASSERT_FALSE(single.recordWrite());
        ASSERT_EQ(bulk.writesBeforeMove(), single.writesBeforeMove());
        if (bulk.writesBeforeMove() == 0) {
            ASSERT_TRUE(bulk.recordWrite());
            ASSERT_TRUE(single.recordWrite());
        }
        const StartGapState a = bulk.save(), b = single.save();
        ASSERT_EQ(a.start, b.start);
        ASSERT_EQ(a.gap, b.gap);
        ASSERT_EQ(a.writeCounter, b.writeCounter);
        ASSERT_EQ(a.totalMoves, b.totalMoves);
    }
    EXPECT_GT(bulk.totalMoves(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, StartGapProperty,
                         ::testing::ValuesIn(sgCases));

} // namespace
