/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic model in the simulator draws from an explicitly
 * seeded Rng so that a given platform + workload + seed triple always
 * reproduces the same trace. The generator is xoshiro256** which is
 * fast enough to sit on the per-access path of the workload
 * generators.
 */

#ifndef LIGHTPC_SIM_RNG_HH
#define LIGHTPC_SIM_RNG_HH

#include <cmath>
#include <cstdint>

namespace lightpc
{

/** Deterministic xoshiro256** generator. */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds decorrelate. */
    explicit Rng(std::uint64_t seed = 1)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /**
     * Seed of the @p index-th independent stream of a campaign
     * rooted at @p seed. Trials that each construct
     * Rng(streamSeed(seed, i)) draw decorrelated sequences that
     * depend only on (seed, i) — never on how many values any other
     * trial consumed — which is what lets a thread pool run trials
     * in any order and still reproduce the sequential campaign
     * bit-for-bit.
     */
    static std::uint64_t
    streamSeed(std::uint64_t seed, std::uint64_t index)
    {
        // splitmix64 finalizer over the (seed, index) pair.
        std::uint64_t z =
            seed + 0x9e3779b97f4a7c15ULL * (index + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is
        // adequate here; bias is < 2^-64 * bound.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi]. @pre lo <= hi. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * chance(p) for a probability fixed ahead of time, with
     * @p threshold = chanceThreshold(p): the same draw and the same
     * outcome, decided by one integer compare. On a hot path whose
     * branch on the outcome mispredicts, that compare resolves it
     * sooner than the convert, multiply and compare of chance(p).
     */
    bool
    chanceFixed(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * The threshold for chanceFixed(). uniform() maps a draw x to
     * m * 2^-53 exactly (m = x >> 11 < 2^53), and scaling p by 2^53
     * is exact, so m * 2^-53 < p holds iff m < ceil(p * 2^53). p <= 0
     * and NaN never hit; p >= 1 always does.
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return std::uint64_t(1) << 53;
        return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

} // namespace lightpc

#endif // LIGHTPC_SIM_RNG_HH
