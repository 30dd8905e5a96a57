#include "pecos/scaling.hh"

#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "psm/psm.hh"

namespace lightpc::pecos
{

ScalingResult
simulateWorstCaseStop(std::uint32_t cores, std::uint64_t cache_bytes,
                      std::uint64_t seed)
{
    kernel::KernelParams kparams;
    kparams.cores = cores;
    kparams.busy = true;
    kparams.seed = seed;
    kernel::Kernel kern(kparams);
    kern.devices() = kernel::DeviceManager::makeWorstCase(seed);

    psm::Psm psm;
    mem::BackingStore pmem;

    Sng sng(kern, psm, pmem, {});
    // Every cacheline dirty, spread evenly over the cores.
    sng.setFallbackDirtyLines(
        cache_bytes / mem::cacheLineBytes / cores);

    ScalingResult result;
    result.cores = cores;
    result.report = sng.stop(0);
    return result;
}

} // namespace lightpc::pecos
