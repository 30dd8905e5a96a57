#include "mem/pram_device.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace lightpc::mem
{

PramDevice::PramDevice(const PramParams &params)
    : _params(params), faultRng(params.faults.seed)
{
    if (_params.wearRegionBytes == 0)
        fatal("PramDevice wearRegionBytes must be nonzero");
    if (_params.faults.transientBer < 0.0
        || _params.faults.transientBer > 1.0
        || _params.faults.wearStuckRate < 0.0
        || _params.faults.wearStuckRate > 1.0)
        fatal("PramDevice fault rates must be in [0, 1]");
    if (_params.faults.wearOnsetFraction < 0.0
        || _params.faults.wearOnsetFraction >= 1.0)
        fatal("PramDevice wearOnsetFraction must be in [0, 1)");
    const std::uint64_t regions =
        (_params.capacityBytes + _params.wearRegionBytes - 1)
        / _params.wearRegionBytes;
    wear.assign(regions ? regions : 1, 0);
    wearRegion.set(_params.wearRegionBytes);
    wearRegions.set(wear.size());
    // P(at least one of the 32 symbols flips) = 1 - (1-ber)^32,
    // hoisted out of the per-read path.
    pAnyFlip = 1.0
        - std::pow(1.0 - _params.faults.transientBer,
                   static_cast<double>(pramDeviceGranularity));
}

AccessResult
PramDevice::read(Tick when)
{
    AccessResult result;
    const Tick start = std::max(when, _busyUntil);
    stalled += start - when;
    result.completeAt = start + _params.readLatency;
    result.mediaFreeAt = result.completeAt;
    _busyUntil = result.completeAt;
    ++reads;
    return result;
}

void
PramDevice::recordWear(Addr addr, std::uint64_t n)
{
    const std::uint64_t region = wearRegions.mod(wearRegion.div(addr));
    // Saturate at the rated endurance: a counter that wrapped would
    // report a hammered region as pristine, silently disarming both
    // the lifetime projection and the wear-driven fault model, and
    // wearFraction() caps at 1.0 anyway — counting past the rating
    // only skews the wear histograms.
    std::uint64_t &w = wear[region];
    if (w < _params.enduranceCycles)
        w = std::min(w + n, _params.enduranceCycles);
}

void
PramDevice::maybeStick(Addr granule_addr, double wear_fraction)
{
    const MediaFaultParams &f = _params.faults;
    const double onset = f.wearOnsetFraction;
    if (wear_fraction <= onset || f.wearStuckRate <= 0.0)
        return;
    const double excess = std::min(
        (wear_fraction - onset) / (1.0 - onset), 1.0);
    if (!faultRng.chance(f.wearStuckRate * excess))
        return;
    std::uint32_t &stuck = stuckMap[granule_addr];
    if (stuck < f.maxStuckPerGranule)
        ++stuck;
}

AccessResult
PramDevice::write(Tick when, Addr addr, bool early_return)
{
    AccessResult result;
    const Tick start = std::max(when, _busyUntil);
    stalled += start - when;
    result.mediaFreeAt = start + _params.writeLatency;
    result.completeAt = early_return ? start : result.mediaFreeAt;
    _busyUntil = result.mediaFreeAt;
    ++writes;
    recordWear(addr);
    if (_params.faults.enabled) {
        // A line write programs both 32 B granules; cells of a worn
        // region may fail to switch and come up stuck.
        const double frac = wearFraction(addr);
        const Addr granule = addr & ~Addr(pramDeviceGranularity - 1);
        maybeStick(granule, frac);
        maybeStick(granule + pramDeviceGranularity, frac);
        // The companion parity granule reprograms with every line
        // write, so it accumulates stuck cells at the same rate.
        maybeStick(granule | pramParityTag, frac);
    }
    return result;
}

AccessResult
PramDevice::writeBurst(Tick when, Addr page_addr, std::uint64_t n)
{
    if (n == 0 || _params.faults.enabled)
        panic("PramDevice::writeBurst needs n > 0 and the media-fault "
              "model off");
    AccessResult result;
    const Tick wl = _params.writeLatency;
    const Tick start = std::max(when, _busyUntil);
    stalled += n * (start - when) + wl * (n * (n - 1) / 2);
    _busyUntil = start + n * wl;
    result.mediaFreeAt = _busyUntil;
    result.completeAt = _busyUntil - wl;
    writes += n;
    recordWear(page_addr, n);
    return result;
}

std::uint64_t
PramDevice::maxRegionWear() const
{
    return *std::max_element(wear.begin(), wear.end());
}

stats::Histogram
PramDevice::wearHistogram() const
{
    stats::Histogram hist;
    addWearSamples(hist);
    return hist;
}

void
PramDevice::addWearSamples(stats::Histogram &hist) const
{
    for (const std::uint64_t w : wear)
        hist.add(w);
}

double
PramDevice::wearFraction(Addr addr) const
{
    const std::uint64_t region = wearRegions.mod(wearRegion.div(addr));
    return std::min(
        static_cast<double>(wear[region])
            / static_cast<double>(_params.enduranceCycles),
        1.0);
}

double
PramDevice::lifetimeRemaining() const
{
    const double used = static_cast<double>(maxRegionWear())
        / static_cast<double>(_params.enduranceCycles);
    return used >= 1.0 ? 0.0 : 1.0 - used;
}

void
PramDevice::seedFaults(std::uint64_t seed)
{
    faultRng = Rng(seed);
}

GranuleFaults
PramDevice::sampleReadFaults(Addr granule_addr)
{
    GranuleFaults out;
    if (!_params.faults.enabled)
        return out;
    out.stuck = stuckSymbols(granule_addr);

    const double ber = _params.faults.transientBer;
    if (ber > 0.0) {
        // Fast path: one draw against the precomputed P(>=1 flip in
        // 32 symbols) rejects the whole granule in the overwhelmingly
        // common clean case; only then sample the remaining symbols.
        if (faultRng.uniform() < pAnyFlip) {
            out.flipped = 1;
            for (std::uint32_t s = 1; s < pramDeviceGranularity; ++s) {
                if (faultRng.uniform() < ber)
                    ++out.flipped;
            }
        }
    }
    return out;
}

std::uint32_t
PramDevice::stuckSymbols(Addr granule_addr) const
{
    const auto it = stuckMap.find(granule_addr);
    return it == stuckMap.end() ? 0 : it->second;
}

void
PramDevice::retireGranule(Addr granule_addr)
{
    stuckMap.erase(granule_addr);
}

void
PramDevice::preWear(std::uint64_t cycles)
{
    // Same saturation point as recordWear().
    std::fill(wear.begin(), wear.end(),
              std::min(cycles, _params.enduranceCycles));
}

void
PramDevice::reset()
{
    _busyUntil = 0;
    stalled = 0;
    reads = 0;
    writes = 0;
    std::fill(wear.begin(), wear.end(), 0);
    stuckMap.clear();
    faultRng = Rng(_params.faults.seed);
}

} // namespace lightpc::mem
