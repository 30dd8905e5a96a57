/**
 * @file
 * Operation mix for the KV service plane (src/net/).
 *
 * The mix is a workload-layer concern: it decides what the client
 * fleet asks for (GET/PUT/SCAN ratios, key popularity, value sizes),
 * independent of how the RPC plane delivers it. Keys are drawn
 * uniformly from a bounded key space so that PUT version counters
 * accumulate on hot keys and the duplicate-apply oracle has real
 * collisions to check.
 */

#ifndef LIGHTPC_WORKLOAD_SERVICE_MIX_HH
#define LIGHTPC_WORKLOAD_SERVICE_MIX_HH

#include <cstdint>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace lightpc::workload
{

/** KV operation kinds issued by the service client fleet. */
enum class KvOp : std::uint32_t
{
    Get = 0,
    Put = 1,
    Scan = 2,
};

/** Display name. */
inline const char *
kvOpName(KvOp op)
{
    switch (op) {
    case KvOp::Get: return "GET";
    case KvOp::Put: return "PUT";
    case KvOp::Scan: return "SCAN";
    }
    return "?";
}

/** GET/PUT/SCAN ratios plus key/value shape. */
struct ServiceMix
{
    double getFraction = 0.55;
    double putFraction = 0.40;  ///< remainder is SCAN

    /** Distinct keys (1-based; 0 is the empty-slot sentinel). */
    std::uint32_t keySpace = 1024;

    /** Slots touched per SCAN. */
    std::uint32_t scanLength = 16;

    /** Logical value payload per object (cost model input). */
    std::uint64_t valueBytes = 128;

    /** Draw an operation kind. */
    KvOp
    pickOp(Rng &rng) const
    {
        const double u = rng.uniform();
        if (u < getFraction)
            return KvOp::Get;
        if (u < getFraction + putFraction)
            return KvOp::Put;
        return KvOp::Scan;
    }

    /** Draw a key in [1, keySpace]. */
    std::uint64_t
    pickKey(Rng &rng) const
    {
        if (keySpace == 0)
            fatal("ServiceMix keySpace must be nonzero");
        return 1 + rng.below(keySpace);
    }
};

} // namespace lightpc::workload

#endif // LIGHTPC_WORKLOAD_SERVICE_MIX_HH
