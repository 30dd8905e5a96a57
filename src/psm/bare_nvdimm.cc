#include "psm/bare_nvdimm.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lightpc::psm
{

BareNvdimm::BareNvdimm(const BareNvdimmParams &params)
    : _params(params)
{
    if (_params.devicesPerDimm == 0 || (_params.devicesPerDimm % 2) != 0)
        fatal("BareNvdimm requires an even, nonzero device count");

    const std::uint32_t group_count =
        _params.layout == DimmLayout::DualChannel
            ? _params.devicesPerDimm / 2 : 1;

    // Each group owns an equal slice of the DIMM capacity.
    mem::PramParams per_group = _params.device;
    per_group.capacityBytes =
        _params.device.capacityBytes * _params.devicesPerDimm
        / group_count;
    groups.reserve(group_count);
    for (std::uint32_t i = 0; i < group_count; ++i)
        groups.push_back(std::make_unique<mem::PramDevice>(per_group));
}

Tick
BareNvdimm::busyUntil() const
{
    Tick latest = 0;
    for (const auto &group : groups)
        latest = std::max(latest, group->busyUntil());
    return latest;
}

void
BareNvdimm::reset()
{
    for (auto &group : groups)
        group->reset();
}

} // namespace lightpc::psm
