/**
 * @file
 * Property tests over the PSM: invariants that must hold for any
 * request sequence, in every operating mode.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <type_traits>

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
