/**
 * @file
 * Unit tests for summaries, histograms, time series, and tables.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "stats/time_series.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::stats;

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.4);
}

TEST(Summary, EmptyIsSafe)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Summary, MergeMatchesPooledMoments)
{
    Summary a, b, pooled;
    for (double v : {2.0, 4.0, 4.0, 4.0})
        a.add(v), pooled.add(v);
    for (double v : {5.0, 5.0, 7.0, 9.0})
        b.add(v), pooled.add(v);
    a.merge(b);
    EXPECT_EQ(a.count(), pooled.count());
    EXPECT_DOUBLE_EQ(a.mean(), pooled.mean());
    EXPECT_NEAR(a.variance(), pooled.variance(), 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), pooled.min());
    EXPECT_DOUBLE_EQ(a.max(), pooled.max());

    Summary empty;
    empty.merge(a);
    EXPECT_DOUBLE_EQ(empty.mean(), a.mean());
    a.merge(Summary{});
    EXPECT_EQ(a.count(), 8u);
}

TEST(Summary, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0, 16.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Histogram, CountMeanMinMax)
{
    Histogram h;
    for (std::uint64_t v : {10u, 20u, 30u, 40u})
        h.add(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 25.0);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 40u);
}

TEST(Histogram, PercentilesApproximateWithinBucketResolution)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.add(v);
    // 1/32 relative resolution.
    EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 500.0, 32.0);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.99)), 990.0, 64.0);
    EXPECT_EQ(h.percentile(0.0), 1u);
}

TEST(Histogram, LargeValues)
{
    Histogram h;
    h.add(std::uint64_t(1) << 40);
    h.add(std::uint64_t(1) << 41);
    EXPECT_EQ(h.count(), 2u);
    // Bucket lower bound within 1/32 of the actual value.
    EXPECT_GE(h.percentile(1.0),
              (std::uint64_t(1) << 41) - (std::uint64_t(1) << 36));
}

TEST(Histogram, CvDetectsVariation)
{
    Histogram constant, varying;
    for (int i = 0; i < 100; ++i) {
        constant.add(50);
        varying.add(i % 2 == 0 ? 10 : 100);
    }
    EXPECT_NEAR(constant.cv(), 0.0, 1e-9);
    EXPECT_GT(varying.cv(), 0.5);
}

TEST(Histogram, RejectsBadSubBuckets)
{
    EXPECT_THROW(Histogram(0), FatalError);
    EXPECT_THROW(Histogram(33), FatalError);
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.add(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

/**
 * The staging buffer must be invisible: queries issued at arbitrary
 * points — mid-buffer, at the flush boundary, after explicit flush —
 * return exactly what unstaged sequential insertion produces.
 */
TEST(Histogram, StagingIsSequentiallyEquivalent)
{
    Histogram staged, reference;
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        // xorshift values spanning several orders of magnitude.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = x % 1'000'000;
        staged.add(v);
        reference.add(v);
        reference.flush();  // keep the reference unstaged
        if (i % 313 == 0) {
            // Querying mid-buffer flushes lazily and must agree.
            ASSERT_EQ(staged.count(), reference.count());
            ASSERT_DOUBLE_EQ(staged.mean(), reference.mean());
        }
    }
    staged.flush();
    EXPECT_EQ(staged.count(), reference.count());
    EXPECT_DOUBLE_EQ(staged.mean(), reference.mean());
    EXPECT_DOUBLE_EQ(staged.stddev(), reference.stddev());
    EXPECT_EQ(staged.min(), reference.min());
    EXPECT_EQ(staged.max(), reference.max());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(staged.percentile(q), reference.percentile(q));
}

/** Every query of @p a equals @p b's, the moments bit for bit. */
void
expectSameHistogram(const Histogram &a, const Histogram &b)
{
    ASSERT_EQ(a.count(), b.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
              std::bit_cast<std::uint64_t>(b.mean()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stddev()),
              std::bit_cast<std::uint64_t>(b.stddev()));
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (int i = 0; i <= 100; ++i)
        ASSERT_EQ(a.percentile(i / 100.0), b.percentile(i / 100.0)) << i;
}

/**
 * add(value, n) stages a run in one entry; it must equal n one-at-a-
 * time insertions for every query, whether the runs still sit in
 * the staging buffer or a full buffer has flushed them. Repeats are
 * long and values come from a small set, so equal runs also meet
 * back to back and merge.
 */
TEST(Histogram, RunLengthStagingMatchesOneAtATime)
{
    for (const std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        Histogram runs, reference;
        std::uint64_t samples = 0;
        for (int i = 0; i < 1200; ++i) {
            const std::uint64_t v = rng.chance(0.5)
                ? 60 + rng.below(8)
                : rng.below(1'000'000);
            const std::uint64_t n =
                rng.chance(0.3) ? 1 + rng.below(3000) : 1 + rng.below(4);
            runs.add(v, n);
            for (std::uint64_t k = 0; k < n; ++k)
                reference.add(v);
            reference.flush();
            samples += n;
            // Query a copy, so the staged state goes on untouched:
            // the first checks come before any capacity flush.
            if (i % 97 == 0 || i == 40) {
                const Histogram snapshot = runs;
                ASSERT_EQ(snapshot.count(), samples);
                expectSameHistogram(snapshot, reference);
            }
        }
        expectSameHistogram(runs, reference);
    }
}

TEST(Histogram, CountIncludesStagedSamples)
{
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.add(7);
    // Fewer than stagingCapacity samples: nothing flushed yet, but
    // count() must already see them.
    EXPECT_EQ(h.count(), 100u);
}

/**
 * merge() must be equivalent to having inserted both sample sets
 * into one histogram — the PSM-wide wear distribution is aggregated
 * from per-device histograms this way, and staged samples on either
 * side must not be dropped.
 */
TEST(Histogram, MergeEqualsUnionOfSamples)
{
    Histogram a, b, combined;
    std::uint64_t x = 99;
    for (int i = 0; i < 2000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = x % 500'000;
        (i % 2 ? a : b).add(v);
        combined.add(v);
    }
    // Leave both sides with staged samples: merge must flush them.
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
    // The pooled-variance merge reassociates the Welford update, so
    // the moments agree only to rounding.
    EXPECT_NEAR(a.stddev(), combined.stddev(),
                combined.stddev() * 1e-9);
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(a.percentile(q), combined.percentile(q));
}

TEST(Histogram, MergeWithEmptySides)
{
    Histogram filled, empty;
    for (int i = 1; i <= 64; ++i)
        filled.add(static_cast<std::uint64_t>(i));

    Histogram lhs_empty;
    lhs_empty.merge(filled);
    EXPECT_EQ(lhs_empty.count(), 64u);
    EXPECT_EQ(lhs_empty.max(), 64u);

    filled.merge(empty);
    EXPECT_EQ(filled.count(), 64u);
    EXPECT_DOUBLE_EQ(filled.mean(), 32.5);
}

TEST(Histogram, MergeRejectsMismatchedResolution)
{
    Histogram fine(32), coarse(8);
    EXPECT_THROW(fine.merge(coarse), FatalError);
}

TEST(TimeSeriesDeath, DecreasingTickPanics)
{
    TimeSeries ts("ipc");
    ts.record(100, 1.0);
    ts.record(100, 2.0);  // equal ticks are allowed
    EXPECT_DEATH(ts.record(99, 2.0), "precedes");
    // The guard fires before the sample lands.
    EXPECT_EQ(ts.samples().size(), 2u);
    EXPECT_EQ(ts.samples().back().when, 100u);
}

TEST(TimeSeries, DownsampleBoundsPoints)
{
    TimeSeries ts("ipc");
    for (Tick t = 0; t < 1000; ++t)
        ts.record(t, 1.0);
    const auto down = ts.downsample(10);
    EXPECT_LE(down.size(), 11u);
    for (const auto &s : down)
        EXPECT_DOUBLE_EQ(s.value, 1.0);
}

TEST(Table, FormatsAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRow)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::ratio(4.3, 1), "4.3x");
    EXPECT_EQ(Table::percent(0.73), "73%");
}

} // namespace

namespace
{

TEST(Table, CsvOutput)
{
    Table t({"name", "value"});
    t.addRow({"plain", "1"});
    t.addRow({"with,comma", "2"});
    t.addRow({"with\"quote", "3"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(),
              "name,value\n"
              "plain,1\n"
              "\"with,comma\",2\n"
              "\"with\"\"quote\",3\n");
}

} // namespace

// --- merge algebra (the parallel-reduction contract) ---------------
//
// The campaign engine folds per-trial partials in canonical index
// order, but the merge operations themselves must also be
// order-independent and associative so that *any* grouping of
// partials — per-worker pre-merges included — yields one answer.

namespace
{

std::vector<std::vector<double>>
randomChunks(std::uint64_t seed, std::size_t chunks)
{
    lightpc::Rng rng(seed);
    std::vector<std::vector<double>> out(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t n = 1 + rng.below(40);
        for (std::size_t i = 0; i < n; ++i)
            out[c].push_back(rng.uniform() * 1e4 - 5e3);
    }
    return out;
}

Summary
summarize(const std::vector<double> &xs)
{
    Summary s;
    for (const double x : xs)
        s.add(x);
    return s;
}

void
expectSummariesEqual(const Summary &a, const Summary &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_DOUBLE_EQ(a.min(), b.min());
    EXPECT_DOUBLE_EQ(a.max(), b.max());
    EXPECT_NEAR(a.sum(), b.sum(), 1e-6 * std::abs(a.sum()) + 1e-9);
    EXPECT_NEAR(a.mean(), b.mean(),
                1e-9 * std::abs(a.mean()) + 1e-9);
    EXPECT_NEAR(a.variance(), b.variance(),
                1e-6 * a.variance() + 1e-6);
}

TEST(SummaryMerge, OrderIndependent)
{
    const auto chunks = randomChunks(11, 12);

    Summary forward;
    for (const auto &c : chunks)
        forward.merge(summarize(c));

    Summary backward;
    for (auto it = chunks.rbegin(); it != chunks.rend(); ++it)
        backward.merge(summarize(*it));

    expectSummariesEqual(forward, backward);
}

TEST(SummaryMerge, AssociativeAndMatchesPooledAdd)
{
    const auto chunks = randomChunks(23, 9);

    // ((a+b)+c)+... — the sequential fold.
    Summary folded;
    for (const auto &c : chunks)
        folded.merge(summarize(c));

    // Pairwise tree — the per-worker pre-merge grouping.
    std::vector<Summary> level;
    for (const auto &c : chunks)
        level.push_back(summarize(c));
    while (level.size() > 1) {
        std::vector<Summary> next;
        for (std::size_t i = 0; i < level.size(); i += 2) {
            Summary s = level[i];
            if (i + 1 < level.size())
                s.merge(level[i + 1]);
            next.push_back(s);
        }
        level = std::move(next);
    }
    expectSummariesEqual(folded, level[0]);

    // And both match adding every sample into one summary.
    Summary pooled;
    for (const auto &c : chunks)
        for (const double x : c)
            pooled.add(x);
    expectSummariesEqual(folded, pooled);
}

TEST(HistogramMerge, OrderIndependentAndAssociativeExactly)
{
    // Bucketed counts are integers: merge in any grouping must be
    // *bit-exact*, percentiles included.
    lightpc::Rng rng(5);
    std::vector<Histogram> parts;
    Histogram forward, backward, tree;
    for (int c = 0; c < 10; ++c) {
        Histogram h;
        const std::size_t n = 1 + rng.below(200);
        for (std::size_t i = 0; i < n; ++i)
            h.add(rng.below(1 << 20));
        parts.push_back(h);
    }

    for (const Histogram &h : parts)
        forward.merge(h);
    for (auto it = parts.rbegin(); it != parts.rend(); ++it)
        backward.merge(*it);

    // Tree grouping: (0+1) + (2+3) + ...
    std::vector<Histogram> level = parts;
    while (level.size() > 1) {
        std::vector<Histogram> next;
        for (std::size_t i = 0; i < level.size(); i += 2) {
            Histogram h = level[i];
            if (i + 1 < level.size())
                h.merge(level[i + 1]);
            next.push_back(h);
        }
        level = std::move(next);
    }
    tree = level[0];

    EXPECT_EQ(forward.count(), backward.count());
    EXPECT_EQ(forward.count(), tree.count());
    EXPECT_DOUBLE_EQ(forward.mean(), backward.mean());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        EXPECT_EQ(forward.percentile(q), backward.percentile(q))
            << "q=" << q;
        EXPECT_EQ(forward.percentile(q), tree.percentile(q))
            << "q=" << q;
    }
    EXPECT_EQ(forward.min(), backward.min());
    EXPECT_EQ(forward.max(), tree.max());
}

} // namespace
