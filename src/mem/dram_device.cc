#include "mem/dram_device.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lightpc::mem
{

DramDevice::DramDevice(const DramParams &params)
    : _params(params), nextRefresh(_params.refreshInterval)
{
    if (_params.banks == 0)
        fatal("DramDevice requires at least one bank");
    bankState.resize(_params.banks);
    rowDecode.set(_params.rowBytes);
    bankDecode.set(_params.banks);
}

void
DramDevice::catchUpRefresh(Tick when)
{
    // All-bank refresh: every elapsed tREFI window blocks the DIMM
    // for tRFC. Charging the windows one by one made an access after
    // a long idle period O(idle / tREFI); since the windows' end
    // times increase monotonically, only the latest one can still
    // bind each bank's busyUntil, so all elapsed windows collapse
    // into one O(banks) update with identical results.
    if (nextRefresh > when)
        return;
    const std::uint64_t windows =
        (when - nextRefresh) / _params.refreshInterval + 1;
    const Tick last_end = nextRefresh
        + (windows - 1) * _params.refreshInterval
        + _params.refreshLatency;
    for (auto &bank : bankState)
        bank.busyUntil = std::max(bank.busyUntil, last_end);
    nextRefresh += windows * _params.refreshInterval;
    refreshes += windows;
}

AccessResult
DramDevice::access(const MemRequest &req, Tick when)
{
    catchUpRefresh(when);

    const std::uint64_t global_row = rowDecode.div(req.addr);
    const std::uint32_t bank_idx =
        static_cast<std::uint32_t>(bankDecode.mod(global_row));
    const std::uint64_t row = bankDecode.div(global_row);
    Bank &bank = bankState[bank_idx];

    AccessResult result;
    const Tick start = std::max(when, bank.busyUntil);
    const bool hit = bank.openRow == row;
    result.rowBufferHit = hit;
    const Tick latency =
        hit ? _params.rowHitLatency : _params.rowMissLatency;
    result.completeAt = start + latency;
    result.mediaFreeAt = result.completeAt;
    bank.busyUntil = result.completeAt;
    bank.openRow = row;

    if (req.op == MemOp::Read)
        ++reads;
    else
        ++writes;
    return result;
}

void
DramDevice::reset()
{
    for (auto &bank : bankState)
        bank = Bank{};
    nextRefresh = _params.refreshInterval;
    refreshes = reads = writes = 0;
}

} // namespace lightpc::mem
