/**
 * @file
 * SnG worst-case scalability (Fig. 22).
 *
 * The paper's FPGA cannot hold more than 8 physical cores, so the
 * authors instrument per-component worst-case costs and *estimate*
 * larger machines. Our substrate has no such limit: we simulate the
 * worst case directly — the maximum dpm_list population (730
 * drivers), every cacheline dirty, and the requested core count —
 * and report the measured Stop latency against the ATX (16 ms spec)
 * and server (55 ms) hold-up budgets.
 */

#ifndef LIGHTPC_PECOS_SCALING_HH
#define LIGHTPC_PECOS_SCALING_HH

#include <cstdint>

#include "pecos/sng.hh"

namespace lightpc::pecos
{

/** One Fig. 22 grid point. */
struct ScalingResult
{
    std::uint32_t cores = 0;
    StopReport report;

    bool
    withinBudget(Tick budget) const
    {
        return report.totalTicks() <= budget;
    }
};

/**
 * Simulate a worst-case Stop: @p cores cores, @p cache_bytes of
 * fully-dirty cache, the maximum driver population, and a busy
 * process load.
 */
ScalingResult simulateWorstCaseStop(std::uint32_t cores,
                                    std::uint64_t cache_bytes,
                                    std::uint64_t seed = 3);

} // namespace lightpc::pecos

#endif // LIGHTPC_PECOS_SCALING_HH
