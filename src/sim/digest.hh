/**
 * @file
 * FNV-1a digest over 64-bit counters.
 *
 * Campaign results fold every observable counter into one of these;
 * equal digests at --threads 1 and --threads N are the determinism
 * proof the parallel campaign engine is held to. It is the one FNV
 * word mix in the tree: the cluster and service run digests and the
 * compound machine-state digest all fold through it.
 */

#ifndef LIGHTPC_SIM_DIGEST_HH
#define LIGHTPC_SIM_DIGEST_HH

#include <cstdint>

namespace lightpc::sim
{

/** Streaming FNV-1a over little-endian 64-bit words. */
struct Fnv64
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

} // namespace lightpc::sim

#endif // LIGHTPC_SIM_DIGEST_HH
