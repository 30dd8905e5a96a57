#include "platform/system.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lightpc::platform
{

std::string
platformName(PlatformKind kind)
{
    switch (kind) {
      case PlatformKind::LegacyPC:
        return "LegacyPC";
      case PlatformKind::LightPCB:
        return "LightPC-B";
      case PlatformKind::LightPC:
        return "LightPC";
    }
    return "?";
}

psm::PsmParams
psmParamsFor(PlatformKind kind, std::uint32_t dimms)
{
    psm::PsmParams params;
    params.dimms = dimms;
    params.dimm.layout = psm::DimmLayout::DualChannel;
    switch (kind) {
      case PlatformKind::LightPC:
      case PlatformKind::LegacyPC:
        // LegacyPC's OC-PMEM (the persistence target of the
        // checkpoint baselines) is the same full-featured PSM.
        params.earlyReturnWrites = true;
        params.eccReconstruction = true;
        break;
      case PlatformKind::LightPCB:
        // The baseline handles writes and read-after-writes like a
        // conventional controller: synchronous at the media.
        params.earlyReturnWrites = false;
        params.eccReconstruction = false;
        break;
    }
    return params;
}

System::System(const SystemConfig &config)
    : _config(config)
{
    if (_config.cores == 0)
        fatal("System requires at least one core");

    psm::PsmParams psm_params = _config.psmParams
        ? *_config.psmParams
        : psmParamsFor(_config.kind, _config.pmemDimms);
    // RAS knobs layer on top of whichever base was chosen, so a
    // campaign can flip one arm without restating the PSM geometry.
    if (_config.mcePolicy)
        psm_params.mcePolicy = *_config.mcePolicy;
    if (_config.mediaFaults)
        psm_params.dimm.device.faults = *_config.mediaFaults;
    if (_config.spareLines)
        psm_params.spareLines = *_config.spareLines;
    _psm = std::make_unique<psm::Psm>(psm_params);

    if (_config.kind == PlatformKind::LegacyPC)
        _dram = std::make_unique<DramArray>(6);

    ownedPort = std::make_unique<RoutedPort>(_dram.get(), *_psm);
    routedPort = _config.overridePort ? _config.overridePort
                                      : ownedPort.get();

    cpu::CoreParams core_params;
    core_params.freqMhz = _config.freqMhz;
    for (std::uint32_t i = 0; i < _config.cores; ++i) {
        cores.push_back(
            std::make_unique<cpu::Core>(eq, core_params, *routedPort));
    }

    kernel::KernelParams kparams = _config.kernel;
    kparams.cores = _config.cores;
    _kernel = std::make_unique<kernel::Kernel>(kparams);

    std::vector<cache::L1Cache *> sng_caches;
    for (auto &core : cores)
        sng_caches.push_back(&core->dcache());
    _sng = std::make_unique<pecos::Sng>(*_kernel, *_psm, _pmemStore,
                                        std::move(sng_caches));
    _mce = std::make_unique<pecos::MceHandler>(*_kernel, *_psm);
}

System::~System() = default;

RunResult
System::run(const workload::WorkloadSpec &spec)
{
    workload::SyntheticConfig wconfig;
    wconfig.scaleDivisor = _config.scaleDivisor;
    wconfig.seed = _config.seed;
    auto streams = workload::makeStreams(spec, wconfig,
                                         coreCount(), workloadBase);

    std::vector<cpu::InstrStream *> raw;
    raw.reserve(streams.size());
    for (auto &stream : streams)
        raw.push_back(stream.get());

    RunResult result = runStreams(raw);
    result.workload = spec.name;
    return result;
}

RunResult
System::runStreams(std::vector<cpu::InstrStream *> streams, Tick until)
{
    if (streams.empty())
        fatal("runStreams with no streams");
    if (streams.size() > cores.size())
        fatal("more streams than cores");

    const Tick start = eq.now();
    for (std::size_t i = 0; i < streams.size(); ++i)
        cores[i]->run(*streams[i], start);

    eq.run(until);

    Tick end = eq.now();
    for (std::size_t i = 0; i < streams.size(); ++i)
        end = std::max(end, cores[i]->localTime());

    return collect(end - start,
                   static_cast<std::uint32_t>(streams.size()));
}

power::ActivitySample
System::activity(Tick elapsed, std::uint32_t active_cores) const
{
    power::ActivitySample sample;
    sample.duration = elapsed;
    sample.coresActive = active_cores;
    sample.coresIdle = _config.cores - active_cores;

    Tick busy = 0;
    for (const auto &core : cores)
        busy += core->stats().busyTicks;
    sample.coreUtilization = (elapsed && active_cores)
        ? std::min(1.0,
                   static_cast<double>(busy)
                       / (static_cast<double>(elapsed) * active_cores))
        : 0.0;

    if (_dram) {
        sample.dramDimms = _dram->dimmCount();
        sample.dramAccesses = _dram->totalAccesses();
    }
    sample.pramDimms = _config.pmemDimms;
    sample.pramReads = _psm->stats().reads;
    sample.pramWrites = _psm->stats().writes;
    return sample;
}

RunResult
System::collect(Tick elapsed, std::uint32_t active_cores) const
{
    RunResult result;
    result.platform = platformName(_config.kind);
    result.elapsed = elapsed;

    for (const auto &core : cores) {
        const cpu::CoreStats &stats = core->stats();
        result.instructions += stats.instructions;
        result.coreTotals.instructions += stats.instructions;
        result.coreTotals.loads += stats.loads;
        result.coreTotals.stores += stats.stores;
        result.coreTotals.busyTicks += stats.busyTicks;
        result.coreTotals.loadStallTicks += stats.loadStallTicks;
        result.coreTotals.storeStallTicks += stats.storeStallTicks;
    }

    const Tick period = periodFromMhz(_config.freqMhz);
    result.cycles = elapsed / period;
    result.ipc = result.cycles
        ? static_cast<double>(result.instructions)
            / static_cast<double>(result.cycles) : 0.0;

    std::uint64_t load_hits = 0, load_total = 0;
    std::uint64_t store_hits = 0, store_total = 0;
    for (const auto &core : cores) {
        const cache::L1Stats &cs = core->dcache().stats();
        load_hits += cs.loadHits;
        load_total += cs.loadHits + cs.loadMisses;
        store_hits += cs.storeHits;
        store_total += cs.storeHits + cs.storeMisses;
    }
    result.loadHitRate = load_total
        ? static_cast<double>(load_hits)
            / static_cast<double>(load_total) : 0.0;
    result.storeHitRate = store_total
        ? static_cast<double>(store_hits)
            / static_cast<double>(store_total) : 0.0;
    result.memReads = result.coreTotals.loads;
    result.memWrites = result.coreTotals.stores;

    result.psmStats = _psm->stats();
    result.memReadLatencyNs = _psm->readLatencyHist().mean() / tickNs;

    const power::ActivitySample sample =
        activity(elapsed, active_cores);
    result.joules = _power.energyOf(sample);
    result.watts = _power.powerOf(sample);
    return result;
}

} // namespace lightpc::platform
