/**
 * @file
 * Property tests over the PSM: invariants that must hold for any
 * request sequence, in every operating mode.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <type_traits>
#include <vector>

#include "psm/psm.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::psm;

/**
 * gtest_discover_tests names each case by its raw bytes, so the case
 * has no implicit padding (whose contents are unspecified and would
 * change the names from build to build). `nameTag` fills that slot
 * and keeps every case under its established ctest name; the test
 * never reads it.
 */
struct PsmCase
{
    bool earlyReturn;
    bool reconstruction;
    bool wearLeveling;
    std::uint8_t nameTag;
    DimmLayout layout;
    std::uint64_t seed;
};
static_assert(sizeof(PsmCase) == 16, "PsmCase must have no padding");

class PsmProperty : public ::testing::TestWithParam<PsmCase>
{
};

TEST_P(PsmProperty, AccessInvariantsUnderRandomTraffic)
{
    const PsmCase c = GetParam();
    PsmParams params;
    params.earlyReturnWrites = c.earlyReturn;
    params.eccReconstruction = c.reconstruction;
    params.wearLeveling = c.wearLeveling;
    params.dimm.layout = c.layout;
    Psm psm(params);
    Rng rng(c.seed);

    Tick t = 0;
    std::uint64_t reads = 0, writes = 0;
    for (int i = 0; i < 20000; ++i) {
        mem::MemRequest req;
        req.op = rng.chance(0.7) ? mem::MemOp::Read
                                 : mem::MemOp::Write;
        req.addr = rng.below(std::uint64_t(1) << 32) & ~63ull;
        const Tick when = t;
        const auto result = psm.access(req, when);

        // Completion never precedes issue + the mandatory bus hop.
        ASSERT_GE(result.completeAt, when + params.busLatency);
        // The media is never freed before the issuer's completion
        // when the access was synchronous.
        if (!c.earlyReturn && req.op == mem::MemOp::Write) {
            ASSERT_GE(result.mediaFreeAt, result.completeAt);
        }

        if (req.op == mem::MemOp::Read)
            ++reads;
        else
            ++writes;

        // Mix open-loop and closed-loop issue.
        t = rng.chance(0.5) ? result.completeAt
                            : when + rng.below(500 * tickNs);
    }

    // Stats account exactly the traffic offered.
    EXPECT_EQ(psm.stats().reads, reads);
    EXPECT_EQ(psm.stats().writes, writes);
    EXPECT_EQ(psm.readLatencyHist().count(), reads);

    // In full-LightPC mode nothing ever blocked; in baseline mode
    // nothing was ever reconstructed.
    if (c.reconstruction) {
        EXPECT_EQ(psm.stats().blockedReads, 0u);
    } else {
        EXPECT_EQ(psm.stats().reconstructedReads, 0u);
    }

    // A flush quiesces everything: afterwards a read at the fence
    // tick is served without blocking or reconstruction.
    const Tick fence = psm.flush(t);
    ASSERT_GE(fence, t);
    mem::MemRequest probe;
    probe.op = mem::MemOp::Read;
    probe.addr = 0;
    const auto after = psm.access(probe, fence);
    EXPECT_FALSE(after.reconstructed);
    EXPECT_FALSE(after.rowBufferHit);
    EXPECT_LE(after.completeAt,
              fence + params.busLatency
                  + params.dimm.device.readLatency);

    // Wear accounting matches the media writes that happened.
    for (std::uint32_t d = 0; d < params.dimms; ++d) {
        auto &dimm = psm.dimm(d);
        for (std::uint32_t g = 0; g < dimm.groupCount(); ++g) {
            const auto &dev = dimm.group(g);
            std::uint64_t sum = 0;
            for (const auto w : dev.wearByRegion())
                sum += w;
            ASSERT_EQ(sum, dev.writeCount());
        }
    }
}

/** Every PSM and device counter a line walk can move. */
void
expectSameModelState(Psm &a, Psm &b)
{
    static_assert(std::has_unique_object_representations_v<PsmStats>,
                  "PsmStats must compare bytewise");
    EXPECT_EQ(std::memcmp(&a.stats(), &b.stats(), sizeof(PsmStats)), 0);
    EXPECT_EQ(a.readLatencyHist().count(), b.readLatencyHist().count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.readLatencyHist().mean()),
              std::bit_cast<std::uint64_t>(b.readLatencyHist().mean()));
    for (std::uint32_t d = 0; d < a.params().dimms; ++d) {
        for (std::uint32_t g = 0; g < a.dimm(d).groupCount(); ++g) {
            const mem::PramDevice &x = a.dimm(d).group(g);
            const mem::PramDevice &y = b.dimm(d).group(g);
            ASSERT_EQ(x.busyUntil(), y.busyUntil());
            ASSERT_EQ(x.stallTicks(), y.stallTicks());
            ASSERT_EQ(x.readCount(), y.readCount());
            ASSERT_EQ(x.writeCount(), y.writeCount());
            ASSERT_EQ(x.wearByRegion(), y.wearByRegion());
        }
    }
}

TEST_P(PsmProperty, SpanMatchesLineByLine)
{
    // accessLines decodes the address once and walks the span; it
    // must be indistinguishable from one access() per line. Spans of
    // 1-200 lines, some wrapping at managedLines(), with a wear
    // threshold small enough that the Start-Gap gap moves mid-span.
    const PsmCase c = GetParam();
    PsmParams params;
    params.earlyReturnWrites = c.earlyReturn;
    params.eccReconstruction = c.reconstruction;
    params.wearLeveling = c.wearLeveling;
    params.dimm.layout = c.layout;
    params.wearThreshold = 7;
    Psm spans(params), lines(params);
    const std::uint64_t managed = spans.managedLines();
    Rng rng(c.seed);

    Tick t = 0;
    for (int i = 0; i < 400; ++i) {
        const mem::MemOp op = rng.chance(0.5) ? mem::MemOp::Read
                                              : mem::MemOp::Write;
        const std::uint64_t n = 1 + rng.below(200);
        // A quarter of the spans start just below the wrap; the rest
        // anywhere below 2^36 bytes, past the managed capacity too.
        const mem::Addr first = rng.chance(0.25)
            ? (managed - 1 - rng.below(n)) * mem::cacheLineBytes
            : rng.below(std::uint64_t(1) << 36) & ~63ull;

        const Tick got = spans.accessLines(op, first, n, t);
        Tick want = t;
        mem::MemRequest req;
        req.op = op;
        for (std::uint64_t k = 0; k < n; ++k) {
            req.addr = first + k * mem::cacheLineBytes;
            want = lines.access(req, want).completeAt;
        }
        ASSERT_EQ(got, want) << "span " << i << " of " << n << " lines";

        // Mix closed-loop and open-loop issue.
        t = rng.chance(0.5) ? got : t + rng.below(2000 * tickNs);
    }

    expectSameModelState(spans, lines);
    EXPECT_EQ(spans.flush(t), lines.flush(t));
    expectSameModelState(spans, lines);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PsmProperty,
    ::testing::Values(
        PsmCase{true, true, true, 0xE9, DimmLayout::DualChannel, 1},
        PsmCase{true, true, false, 0xE9, DimmLayout::DualChannel, 2},
        PsmCase{false, false, true, 0xDB, DimmLayout::DualChannel, 3},
        PsmCase{false, false, false, 0xE9, DimmLayout::DualChannel, 4},
        PsmCase{true, false, true, 0xDB, DimmLayout::DualChannel, 5},
        PsmCase{true, true, true, 0x00, DimmLayout::DramLike, 6},
        PsmCase{false, false, true, 0xE9, DimmLayout::DramLike, 7}));

/** A geometry small enough to invert the Start-Gap randomizer. */
PsmParams
spanRunParams(std::uint64_t wear_threshold)
{
    PsmParams params;
    params.dimms = 2;
    params.dimm.device.capacityBytes = 1 << 20;
    params.dimm.device.wearRegionBytes = 64 << 10;
    params.wearThreshold = wear_threshold;
    return params;
}

/**
 * Finds the logical line whose Start-Gap sum (its randomized line
 * plus the start register, mod the line count) is a given value, so
 * a span can start just below the gap or the wrap. The randomizer
 * permutes whole pages as a function of the seed and the geometry
 * only, so one inverse page table serves every register state.
 */
class SumLocator
{
  public:
    explicit SumLocator(const Psm &psm)
        : lines(psm.managedLines()),
          pageLines(psm.params().rowBufferBytes / mem::cacheLineBytes),
          pageAt(lines / pageLines)
    {
        StartGapParams sg;
        sg.lines = lines;
        sg.pageLines = pageLines;
        sg.randomizerSeed = psm.params().wearSeed;
        // Start 0 with the gap at `lines`: remap is the randomizer.
        const StartGap randomizer(sg);
        for (std::uint64_t page = 0; page < pageAt.size(); ++page)
            pageAt[randomizer.remap(page * pageLines) / pageLines] = page;
    }

    std::uint64_t
    lineAt(std::uint64_t sum, std::uint64_t start) const
    {
        const std::uint64_t r = (sum + lines - start) % lines;
        return pageAt[r / pageLines] * pageLines + r % pageLines;
    }

    /** Lines left in @p line's randomizer page, @p line included. */
    std::uint64_t pageLeft(std::uint64_t line) const
    {
        return pageLines - line % pageLines;
    }

  private:
    std::uint64_t lines;
    std::uint64_t pageLines;
    std::vector<std::uint64_t> pageAt;
};

/** Run one span on @p spans and line by line on @p lines. */
void
expectSpanMatches(Psm &spans, Psm &lines, mem::MemOp op,
                  std::uint64_t first_line, std::uint64_t n, Tick &t)
{
    const mem::Addr first = first_line * mem::cacheLineBytes;
    const Tick got = spans.accessLines(op, first, n, t);
    Tick want = t;
    mem::MemRequest req;
    req.op = op;
    for (std::uint64_t k = 0; k < n; ++k) {
        req.addr = first + k * mem::cacheLineBytes;
        want = lines.access(req, want).completeAt;
    }
    ASSERT_EQ(got, want) << n << " lines from line " << first_line;
    t = got;
}

/** Read @p n lines one at a time on both PSMs; each must hit or
 *  miss the row buffer alike. */
void
expectSameReadHits(Psm &a, Psm &b, std::uint64_t first_line,
                   std::uint64_t n, Tick &t)
{
    mem::MemRequest req;
    req.op = mem::MemOp::Read;
    for (std::uint64_t k = 0; k < n; ++k) {
        req.addr = (first_line + k) * mem::cacheLineBytes;
        const mem::AccessResult x = a.access(req, t);
        const mem::AccessResult y = b.access(req, t);
        ASSERT_EQ(x.rowBufferHit, y.rowBufferHit)
            << "line " << first_line + k;
        ASSERT_EQ(x.completeAt, y.completeAt);
        t = x.completeAt;
    }
}

class PsmSpanRuns : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PsmSpanRuns, CrossGapAndWrapLikeLineByLine)
{
    // Spans of 31-64 lines whose physical run crosses the gap or the
    // wrap of the Start-Gap sum, each starting on a physical row-page
    // boundary or off one, at the gap-move period under test. A
    // threshold of 1 moves the gap on every write.
    const PsmParams params = spanRunParams(GetParam());
    Psm spans(params), lines(params);
    const SumLocator locate(spans);
    const std::uint64_t managed = spans.managedLines();
    const std::uint64_t page_lines =
        params.rowBufferBytes / mem::cacheLineBytes;

    // Registers as a recovered EP-cut may hold them. A start off any
    // page boundary puts the wrap inside a randomizer page.
    StartGapState regs = spans.saveWearState();
    regs.start = managed / 3 + 5;
    regs.gap = managed / 2 + 7;
    spans.restoreWearState(regs);
    lines.restoreWearState(regs);

    Rng rng(GetParam());
    Tick t = 0;
    int gap_crossings = 0, wrap_crossings = 0;
    for (const std::uint64_t n : {31, 32, 33, 64}) {
        for (const bool aligned : {true, false}) {
            for (const bool at_gap : {true, false}) {
                for (int rep = 0; rep < 4; ++rep) {
                    regs = spans.saveWearState();
                    const std::uint64_t edge = at_gap ? regs.gap : managed;
                    // A sum in the last page_lines below the edge whose
                    // slot is (or is not) the first of a row page.
                    std::uint64_t sum = edge - 1 - rng.below(page_lines);
                    for (std::uint64_t d = 0; d < page_lines; ++d) {
                        const std::uint64_t s = edge - 1 - d;
                        const std::uint64_t slot = s + (s >= regs.gap);
                        if ((slot % page_lines == 0) == aligned
                            && (aligned || rng.chance(0.5))) {
                            sum = s;
                            break;
                        }
                    }
                    const std::uint64_t first =
                        locate.lineAt(sum, regs.start);
                    const std::uint64_t to_edge = edge - sum;
                    if (to_edge < n && to_edge < locate.pageLeft(first))
                        ++(at_gap ? gap_crossings : wrap_crossings);
                    expectSpanMatches(spans, lines, mem::MemOp::Write,
                                      first, n, t);
                    if (::testing::Test::HasFatalFailure())
                        return;
                    // Reading each line straight back shows where its
                    // write landed: a read hits the row buffer only
                    // at a dirty slot.
                    expectSameReadHits(spans, lines, first, n, t);
                    expectSpanMatches(spans, lines, mem::MemOp::Read,
                                      first, n, t);
                    if (::testing::Test::HasFatalFailure())
                        return;
                    t += rng.below(4000 * tickNs);
                }
            }
        }
    }
    EXPECT_GT(gap_crossings, 0);
    EXPECT_GT(wrap_crossings, 0);
    expectSameModelState(spans, lines);
    EXPECT_EQ(spans.flush(t), lines.flush(t));
    expectSameModelState(spans, lines);
}

INSTANTIATE_TEST_SUITE_P(WearThresholds, PsmSpanRuns,
                         ::testing::Values(1, 100));

TEST(PsmSpanRuns, RetirementMidSpanLikeLineByLine)
{
    // Media faults on fully worn PRAM: every written granule sticks,
    // so a read span over scattered written lines retires their slots
    // one by one, mid-span, while writes keep moving the gap.
    PsmParams params = spanRunParams(7);
    params.dimm.device.faults.enabled = true;
    params.dimm.device.faults.wearStuckRate = 1.0;
    params.dimm.device.faults.wearOnsetFraction = 0.0;
    params.symbolEccFallback = true;
    params.spareLines = 1024;
    Psm spans(params), lines(params);
    for (Psm *psm : {&spans, &lines})
        for (std::uint32_t d = 0; d < params.dimms; ++d)
            for (std::uint32_t g = 0; g < psm->dimm(d).groupCount(); ++g)
                psm->dimm(d).group(g).preWear(
                    params.dimm.device.enduranceCycles);

    const std::uint64_t managed = spans.managedLines();
    Rng rng(11);
    Tick t = 0;
    mem::MemRequest req;
    req.op = mem::MemOp::Write;
    for (int i = 0; i < 40; ++i) {
        const std::uint64_t base = rng.below(managed - 256);
        // Lines written one at a time, at least a few lines into the
        // read span, so the first retirement comes mid-span.
        for (int w = 0; w < 4; ++w) {
            req.addr = (base + 3 + rng.below(120)) * mem::cacheLineBytes;
            const Tick done = spans.access(req, t).completeAt;
            ASSERT_EQ(lines.access(req, t).completeAt, done);
            t = done;
        }
        const Tick quiet = spans.flush(t);
        ASSERT_EQ(lines.flush(t), quiet);
        t = quiet;

        const std::uint64_t retired = spans.stats().retiredLines;
        const bool table_empty = spans.retireTable().mappedCount() == 0;
        expectSpanMatches(spans, lines, mem::MemOp::Read, base, 128, t);
        if (::testing::Test::HasFatalFailure())
            return;
        if (i == 0) {
            EXPECT_TRUE(table_empty);
            EXPECT_GT(spans.stats().retiredLines, retired)
                << "the first read span must retire a slot";
        }
        // Write spans over retired slots, moving the gap.
        expectSpanMatches(spans, lines, mem::MemOp::Write,
                          base + rng.below(64), 1 + rng.below(96), t);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_EQ(spans.stats().sdcEvents, 0u);
    expectSameModelState(spans, lines);
    EXPECT_EQ(spans.flush(t), lines.flush(t));
    expectSameModelState(spans, lines);
}

/** How a read-run case configures its PSMs. */
enum class ReadRunMode
{
    LightPc,      ///< early-return writes, XCC reconstruction
    LightPcB,     ///< synchronous writes, blocking reads
    UnitFaults,   ///< LightPC with half of each unit pair dead
    MediaFaults,  ///< LightPC with the media-fault model on
};

/**
 * Small DualChannel geometry, wear leveling off so line L sits in
 * row page L / 32 of unit (L / 32) % units: the tests can aim spans
 * at one unit pair and its ECC lane.
 */
PsmParams
readRunParams(ReadRunMode mode)
{
    PsmParams params = spanRunParams(100);
    params.wearLeveling = false;
    if (mode == ReadRunMode::LightPcB) {
        params.earlyReturnWrites = false;
        params.eccReconstruction = false;
    }
    if (mode == ReadRunMode::MediaFaults) {
        params.dimm.device.faults.enabled = true;
        params.dimm.device.faults.transientBer = 1e-3;
    }
    return params;
}

/** Lines per row page and service units of @p psm. */
struct ReadRunGeometry
{
    std::uint64_t pageLines;
    std::uint64_t units;

    explicit ReadRunGeometry(const Psm &psm)
        : pageLines(psm.params().rowBufferBytes / mem::cacheLineBytes),
          units(psm.serviceUnits())
    {
    }

    /** First line of the @p k-th row page of unit @p unit. */
    std::uint64_t
    pageStart(std::uint64_t unit, std::uint64_t k) const
    {
        return (k * units + unit) * pageLines;
    }
};

/** Single-line access on both PSMs at @p when; both must agree. */
Tick
expectSameAccess(Psm &a, Psm &b, mem::MemOp op, std::uint64_t line,
                 Tick when)
{
    mem::MemRequest req;
    req.op = op;
    req.addr = line * mem::cacheLineBytes;
    const mem::AccessResult x = a.access(req, when);
    const mem::AccessResult y = b.access(req, when);
    EXPECT_EQ(x.completeAt, y.completeAt) << "line " << line;
    EXPECT_EQ(x.reconstructed, y.reconstructed) << "line " << line;
    return x.completeAt;
}

class PsmReadRuns : public ::testing::TestWithParam<ReadRunMode>
{
};

TEST_P(PsmReadRuns, ReadSpansLikeLineByLine)
{
    // Traffic on one unit pair (units 0 and 1 share an ECC lane):
    // single writes open row pages, leave lines dirty and, at each
    // page change, drain a page to the die, which then cools for
    // hundreds of ns. Read spans of 2-80 lines start anywhere in the
    // four hot pages of either unit, at closed-loop or random ticks,
    // so they meet dirty lines, a cooling die, a busy ECC lane and
    // row-page ends. After each span a read on the paired unit,
    // issued at the span's start tick, shows where the span left the
    // shared ECC lane.
    const ReadRunMode mode = GetParam();
    const PsmParams params = readRunParams(mode);
    Psm spans(params), lines(params);
    if (mode == ReadRunMode::UnitFaults) {
        for (Psm *psm : {&spans, &lines}) {
            psm->injectFault(0, 0, 0);
            psm->injectFault(0, 1, 1);
        }
    }
    const ReadRunGeometry geo(spans);
    ASSERT_GE(geo.units, 2u);
    Rng rng(static_cast<std::uint64_t>(mode) + 17);

    const auto hot_line = [&](std::uint64_t unit) {
        return geo.pageStart(unit, rng.below(4))
            + rng.below(geo.pageLines);
    };

    Tick t = 0;
    int mixed_spans = 0, forwarding_spans = 0;
    for (int i = 0; i < 3000; ++i) {
        if (rng.chance(0.4)) {
            t = expectSameAccess(spans, lines, mem::MemOp::Write,
                                 hot_line(rng.below(2)), t);
            continue;
        }
        const std::uint64_t unit = rng.below(2);
        const std::uint64_t first = hot_line(unit);
        const std::uint64_t n = 2 + rng.below(79);
        const PsmStats before = spans.stats();
        const Tick start = t;
        expectSpanMatches(spans, lines, mem::MemOp::Read, first, n, t);
        if (::testing::Test::HasFatalFailure())
            return;
        const PsmStats &after = spans.stats();
        const std::uint64_t rebuilt =
            after.reconstructedReads - before.reconstructedReads;
        const std::uint64_t forwarded =
            after.rowBufferReadHits - before.rowBufferReadHits;
        const std::uint64_t media = n - rebuilt - forwarded;
        mixed_spans += rebuilt != 0 && media != 0;
        forwarding_spans += forwarded != 0 && media != 0;

        expectSameAccess(spans, lines, mem::MemOp::Read, hot_line(1 - unit),
                         start);
        // Mix closed-loop and open-loop issue.
        t = rng.chance(0.5) ? t : start + rng.below(1500 * tickNs);
    }

    if (mode == ReadRunMode::LightPc) {
        EXPECT_GT(mixed_spans, 50)
            << "spans must cross from ECC rebuilds to media reads";
    }
    if (mode != ReadRunMode::LightPcB) {
        EXPECT_GT(forwarding_spans, 50);
    }
    expectSameModelState(spans, lines);
    EXPECT_EQ(spans.flush(t), lines.flush(t));
    expectSameModelState(spans, lines);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PsmReadRuns,
    ::testing::Values(ReadRunMode::LightPc, ReadRunMode::LightPcB,
                      ReadRunMode::UnitFaults, ReadRunMode::MediaFaults),
    [](const ::testing::TestParamInfo<ReadRunMode> &info) {
        switch (info.param) {
        case ReadRunMode::LightPc: return "LightPc";
        case ReadRunMode::LightPcB: return "LightPcB";
        case ReadRunMode::UnitFaults: return "UnitFaults";
        case ReadRunMode::MediaFaults: return "MediaFaults";
        }
        return "Unknown";
    });

TEST(PsmReadRuns, EccLaneBusyAfterAForward)
{
    // A span whose first line is forwarded from the open row buffer
    // reaches its second line with the die cooling and the ECC lane
    // still busy with the paired unit's rebuild: that line waits for
    // the lane, which only the per-line body models.
    const PsmParams params = readRunParams(ReadRunMode::LightPc);
    Psm spans(params), lines(params);
    const ReadRunGeometry geo(spans);
    const Tick bus = params.busLatency;
    const Tick rebuild =
        bus + params.dimm.device.readLatency + params.xorLatency;

    // Each unit: open page 1 (lines dirty), then write page 0, which
    // drains page 1 to the die and leaves page 0's first line dirty.
    Tick t = 0;
    for (std::uint64_t unit : {0, 1}) {
        for (std::uint64_t k = 0; k < 4; ++k)
            t = expectSameAccess(spans, lines, mem::MemOp::Write,
                                 geo.pageStart(unit, 1) + k, t);
        t = expectSameAccess(spans, lines, mem::MemOp::Write,
                             geo.pageStart(unit, 0), t);
    }
    ASSERT_TRUE(spans.dimm(0).group(0).busyAt(t + 4 * rebuild));

    // Unit 1 rebuilds a line and holds the shared lane until
    // t + rebuild; unit 0's span forwards its first line and is
    // ready for the second at t + bus + rowBufferLatency.
    expectSameAccess(spans, lines, mem::MemOp::Read,
                     geo.pageStart(1, 0) + 5, t);
    Tick span_done = t;
    expectSpanMatches(spans, lines, mem::MemOp::Read, geo.pageStart(0, 0),
                      8, span_done);
    // Line by line: one forward, one rebuild that starts its media
    // read when the lane frees at t + rebuild, then six more rebuilds
    // back to back.
    EXPECT_EQ(span_done, t + rebuild + (rebuild - bus) + 6 * rebuild);
    expectSameModelState(spans, lines);
    EXPECT_EQ(spans.flush(span_done), lines.flush(span_done));
}

TEST(PsmProperty, DeterministicAcrossIdenticalRuns)
{
    auto run = [] {
        Psm psm;
        Rng rng(77);
        Tick t = 0;
        for (int i = 0; i < 5000; ++i) {
            mem::MemRequest req;
            req.op = rng.chance(0.6) ? mem::MemOp::Read
                                     : mem::MemOp::Write;
            req.addr =
                rng.below(std::uint64_t(1) << 30) & ~63ull;
            t = psm.access(req, t).completeAt;
        }
        return t;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
