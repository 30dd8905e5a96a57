/**
 * @file
 * Log-bucketed latency histogram with percentile queries.
 *
 * Latency distributions in the paper (Fig. 2b) span three orders of
 * magnitude, so buckets grow geometrically: each power of two is
 * subdivided into a fixed number of linear sub-buckets, giving a
 * bounded relative quantile error with O(1) insertion.
 *
 * Samples are staged in a small buffer and folded into the buckets
 * and Welford summary in batches — the simulator records a sample on
 * every memory access, and staging keeps that hot path to a compare
 * and a store. The buffer is run-length coded: a value equal to the last staged
 * one adds to that entry's count, so the PSM's closed-form read runs
 * stage thousands of equal latencies in one entry. It preserves
 * insertion order and the flush replays it sequentially, one Welford
 * update per sample, so every query returns exactly what unstaged
 * one-at-a-time insertion would have produced.
 */

#ifndef LIGHTPC_STATS_HISTOGRAM_HH
#define LIGHTPC_STATS_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "stats/summary.hh"

namespace lightpc::stats
{

/**
 * HDR-style histogram over non-negative 64-bit values.
 */
class Histogram
{
  public:
    /**
     * @param sub_buckets Linear sub-buckets per power of two; higher
     *                    means finer quantiles (default 1/32 relative
     *                    resolution).
     */
    explicit Histogram(unsigned sub_buckets = 32);

    /** Record @p n samples of @p value, as n calls of add(value). */
    void
    add(std::uint64_t value, std::uint64_t n = 1)
    {
        stagedSamples += n;
        if (stagedCount != 0 && staging[stagedCount - 1].value == value) {
            staging[stagedCount - 1].n += n;
            return;
        }
        staging[stagedCount] = {value, n};
        if (++stagedCount == stagingCapacity)
            flush();
    }

    /**
     * Fold staged samples into the buckets and summary. Queries
     * flush implicitly; call this at epoch boundaries to bound the
     * staging latency explicitly.
     */
    void flush() const;

    /** Number of recorded values. */
    std::uint64_t
    count() const
    {
        return summary.count() + stagedSamples;
    }

    /** Arithmetic mean of recorded values. */
    double
    mean() const
    {
        flush();
        return summary.mean();
    }

    /** Smallest recorded value (0 when empty). */
    std::uint64_t min() const;

    /** Largest recorded value (0 when empty). */
    std::uint64_t max() const;

    /** Standard deviation. */
    double
    stddev() const
    {
        flush();
        return summary.stddev();
    }

    /** Coefficient of variation (non-determinism proxy). */
    double
    cv() const
    {
        flush();
        return summary.cv();
    }

    /**
     * Value at quantile @p q in [0, 1]; approximate to bucket
     * resolution. Returns 0 when empty.
     */
    std::uint64_t percentile(double q) const;

    /**
     * Fold another histogram's samples into this one. Both must use
     * the same sub-bucket resolution. Quantiles afterwards reflect
     * the union of the two sample sets (used to aggregate per-device
     * wear distributions PSM-wide).
     */
    void merge(const Histogram &other);

    /** Reset all recorded data. */
    void reset();

  private:
    std::size_t bucketIndex(std::uint64_t value) const;
    std::uint64_t bucketLow(std::size_t index) const;

    /** @p n consecutive samples of one value. */
    struct Staged
    {
        std::uint64_t value;
        std::uint64_t n;
    };

    /** 4 KiB of staged entries. */
    static constexpr unsigned stagingCapacity = 256;

    unsigned subBuckets;
    unsigned subBucketShift;
    // Queries flush lazily, so the folded state is mutable.
    mutable std::vector<std::uint64_t> buckets;
    mutable Summary summary;
    mutable std::array<Staged, stagingCapacity> staging;
    mutable unsigned stagedCount = 0;
    /** Samples in the staged entries. */
    mutable std::uint64_t stagedSamples = 0;
};

} // namespace lightpc::stats

#endif // LIGHTPC_STATS_HISTOGRAM_HH
