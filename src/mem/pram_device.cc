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
    regionCount = regions ? regions : 1;
    wearChunks.resize((regionCount + wearChunkRegions - 1)
                      / wearChunkRegions);
    wearRegion.set(_params.wearRegionBytes);
    wearRegions.set(regionCount);
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

Tick
PramDevice::readRun(Tick when, std::uint64_t n, Tick gap)
{
    if (n == 0)
        panic("PramDevice::readRun needs n > 0");
    // Each later read arrives gap after the die frees: no stall.
    const Tick start = std::max(when, _busyUntil);
    stalled += start - when;
    _busyUntil = start + n * _params.readLatency + (n - 1) * gap;
    reads += n;
    return _busyUntil;
}

void
PramDevice::recordWear(Addr addr, std::uint64_t n)
{
    const std::uint64_t region = regionOf(addr);
    const std::uint64_t c = region / wearChunkRegions;
    auto &chunk = wearChunks[c];
    if (!chunk) {
        const std::uint64_t len = chunkRegions(c);
        chunk = std::make_unique_for_overwrite<std::uint64_t[]>(len);
        std::fill_n(chunk.get(), len, wearFloor);
    }
    // Saturate at the rated endurance: a counter that wrapped would
    // report a hammered region as pristine, silently disarming both
    // the lifetime projection and the wear-driven fault model, and
    // wearFraction() caps at 1.0 anyway — counting past the rating
    // only skews the wear histograms.
    std::uint64_t &w = chunk[region % wearChunkRegions];
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

std::vector<std::uint64_t>
PramDevice::wearByRegion() const
{
    std::vector<std::uint64_t> out(regionCount);
    for (std::uint64_t r = 0; r < regionCount; ++r)
        out[r] = regionWear(r);
    return out;
}

std::uint64_t
PramDevice::maxRegionWear() const
{
    // Writes only raise a counter above the floor.
    std::uint64_t most = wearFloor;
    for (std::uint64_t c = 0; c < wearChunks.size(); ++c)
        if (wearChunks[c])
            most = std::max(most,
                            *std::max_element(wearChunks[c].get(),
                                              wearChunks[c].get()
                                                  + chunkRegions(c)));
    return most;
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
    for (std::uint64_t c = 0; c < wearChunks.size(); ++c) {
        if (!wearChunks[c]) {
            hist.add(wearFloor, chunkRegions(c));
            continue;
        }
        for (std::uint64_t r = 0; r < chunkRegions(c); ++r)
            hist.add(wearChunks[c][r]);
    }
}

double
PramDevice::wearFraction(Addr addr) const
{
    return std::min(
        static_cast<double>(regionWear(regionOf(addr)))
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
    // Same saturation point as recordWear(). Every region now holds
    // the floor, which is what a missing chunk reads as.
    wearFloor = std::min(cycles, _params.enduranceCycles);
    for (auto &chunk : wearChunks)
        chunk.reset();
}

void
PramDevice::reset()
{
    _busyUntil = 0;
    stalled = 0;
    reads = 0;
    writes = 0;
    wearFloor = 0;
    for (auto &chunk : wearChunks)
        chunk.reset();
    stuckMap.clear();
    faultRng = Rng(_params.faults.seed);
}

} // namespace lightpc::mem
