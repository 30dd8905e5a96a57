#include "stats/histogram.hh"

#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace lightpc::stats
{

namespace
{

unsigned
log2Floor(std::uint64_t v)
{
    return v ? 63u - static_cast<unsigned>(std::countl_zero(v)) : 0u;
}

} // namespace

Histogram::Histogram(unsigned sub_buckets)
    : subBuckets(sub_buckets)
{
    if (sub_buckets == 0 || (sub_buckets & (sub_buckets - 1)) != 0)
        fatal("Histogram sub_buckets must be a nonzero power of two");
    subBucketShift = log2Floor(sub_buckets);
    // 64 powers of two, each with subBuckets linear slots, plus a
    // dedicated slot for the values below subBuckets where the
    // exponent scheme degenerates.
    buckets.assign(static_cast<std::size_t>(64) * subBuckets + subBuckets,
                   0);
}

std::size_t
Histogram::bucketIndex(std::uint64_t value) const
{
    if (value < subBuckets)
        return static_cast<std::size_t>(value);
    const unsigned exp = log2Floor(value);
    const unsigned sub = static_cast<unsigned>(
        (value >> (exp - subBucketShift)) - subBuckets);
    return static_cast<std::size_t>(subBuckets)
        + static_cast<std::size_t>(exp - subBucketShift) * subBuckets
        + sub;
}

std::uint64_t
Histogram::bucketLow(std::size_t index) const
{
    if (index < subBuckets)
        return index;
    const std::size_t rel = index - subBuckets;
    const unsigned exp =
        static_cast<unsigned>(rel / subBuckets) + subBucketShift;
    const std::uint64_t sub = rel % subBuckets;
    return (std::uint64_t(subBuckets) + sub) << (exp - subBucketShift);
}

void
Histogram::flush() const
{
    // Replay in insertion order, one Welford update per sample:
    // Welford updates are order-dependent, and sequential replay
    // makes the batched results bit-identical to unstaged insertion.
    for (unsigned i = 0; i < stagedCount; ++i) {
        const Staged &s = staging[i];
        buckets[bucketIndex(s.value)] += s.n;
        const double x = static_cast<double>(s.value);
        for (std::uint64_t k = 0; k < s.n; ++k)
            summary.add(x);
    }
    stagedCount = 0;
    stagedSamples = 0;
}

std::uint64_t
Histogram::min() const
{
    flush();
    return summary.count()
        ? static_cast<std::uint64_t>(summary.min()) : 0;
}

std::uint64_t
Histogram::max() const
{
    flush();
    return summary.count()
        ? static_cast<std::uint64_t>(summary.max()) : 0;
}

std::uint64_t
Histogram::percentile(double q) const
{
    flush();
    const std::uint64_t total = count();
    if (total == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double target = q * static_cast<double>(total);
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        running += buckets[i];
        if (static_cast<double>(running) >= target && buckets[i] > 0)
            return bucketLow(i);
    }
    return static_cast<std::uint64_t>(summary.max());
}

void
Histogram::merge(const Histogram &other)
{
    if (other.subBuckets != subBuckets)
        fatal("Histogram::merge needs matching sub-bucket counts");
    flush();
    other.flush();
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    summary.merge(other.summary);
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    summary.reset();
    stagedCount = 0;
    stagedSamples = 0;
}

} // namespace lightpc::stats
