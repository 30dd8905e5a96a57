/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "sim/rng.hh"

namespace
{

using lightpc::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenIsInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.between(3, 7);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

/**
 * chanceFixed's integer test for the draw x against uniform()'s
 * mapping of the same draw, (x >> 11) * 2^-53, compared with p.
 */
void
expectThresholdAgrees(double p, std::uint64_t x)
{
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    ASSERT_EQ((x >> 11) < Rng::chanceThreshold(p), u < p)
        << "p = " << p << ", x = " << x;
}

TEST(Rng, ChanceFixedMatchesChanceDrawForDraw)
{
    // Same seed on both sides: every draw, the same outcome.
    Rng a(29), b(29), probs(23);
    for (int i = 0; i < 20000; ++i) {
        const double p = i % 2 ? probs.uniform() : (i % 101) / 100.0;
        ASSERT_EQ(a.chance(p), b.chanceFixed(Rng::chanceThreshold(p)))
            << "p = " << p;
    }
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ChanceThresholdAgreesAroundTheCut)
{
    // Random p, with the draws either side of p * 2^53 where a
    // rounding slip would show; random low bits below the 53 that
    // count.
    Rng draws(19), probs(31);
    const std::uint64_t top = (std::uint64_t(1) << 53) - 1;
    for (int trial = 0; trial < 2000; ++trial) {
        const double p = probs.uniform();
        const auto cut = static_cast<std::uint64_t>(p * 0x1.0p53);
        const std::uint64_t last = std::min(cut + 1, top);
        for (std::uint64_t m = cut ? cut - 1 : 0; m <= last; ++m)
            expectThresholdAgrees(p, (m << 11) | (draws.next() >> 53));
    }
}

TEST(Rng, ChanceThresholdAgreesAtEdgeProbabilities)
{
    // Where p * 2^53 is a whole number k, the draws m = k - 1 and
    // m = k straddle it.
    const double whole[] = {0x1.0p-53, 0x3.0p-53, 0.25, 0.5, 0.75,
                            1.0 - 0x1.0p-53, 1.0};
    const std::uint64_t top = (std::uint64_t(1) << 53) - 1;
    for (const double p : whole) {
        const auto k = static_cast<std::uint64_t>(p * 0x1.0p53);
        EXPECT_EQ(Rng::chanceThreshold(p), k) << p;
        for (const std::uint64_t m : {k - 1, k, k + 1}) {
            if (m > top)
                continue;
            expectThresholdAgrees(p, m << 11);
            expectThresholdAgrees(p, (m << 11) | 0x7ff);
        }
    }
    // p <= 0 and NaN never hit, p >= 1 always does.
    const double others[] = {0.0, -0.0, -0.5, 1.5, 0x1.0p-60,
                             0x1.0p-1074, 0.3, 1.0 / 3.0, std::nan("")};
    for (const double p : others)
        for (const std::uint64_t m : {std::uint64_t(0), std::uint64_t(1),
                                      top / 3, top - 1, top})
            expectThresholdAgrees(p, m << 11);
    EXPECT_EQ(Rng::chanceThreshold(0.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(-1.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(std::nan("")), 0u);
    EXPECT_EQ(Rng::chanceThreshold(1.0), std::uint64_t(1) << 53);
    EXPECT_EQ(Rng::chanceThreshold(2.0), std::uint64_t(1) << 53);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(17);
    std::array<int, 8> counts{};
    for (int i = 0; i < 80000; ++i)
        ++counts[rng.below(8)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

} // namespace
