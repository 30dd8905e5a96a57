#include "net/nic.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace lightpc::net
{

namespace
{

/** MMIO register window copied by Auto-Stop. */
constexpr std::uint64_t mmioBytes = 16384;

/** dpm callback latencies (eth-class driver). */
constexpr kernel::DpmCosts dpmCosts{3 * tickUs,  18 * tickUs, 4 * tickUs,
                                    4 * tickUs,  18 * tickUs, 3 * tickUs};

} // namespace

NicDevice::NicDevice(kernel::DeviceManager &devices, std::string name,
                     const NicParams &params)
    : _params(params),
      rx(params.ringEntries),
      tx(params.ringEntries)
{
    if (_params.ringEntries == 0)
        fatal("NicDevice needs at least one ring entry");
    dev = &devices.add(std::make_unique<kernel::Device>(
        std::move(name), kernel::DeviceClass::Network, dpmCosts,
        contextImageBytes(), mmioBytes));
    dev->bindContext(this, contextImageBytes());
}

std::uint64_t
NicDevice::contextImageBytes() const
{
    return sizeof(ContextHeader)
        + std::uint64_t(_params.ringEntries) * sizeof(RpcRequest)
        + std::uint64_t(_params.ringEntries) * sizeof(RpcResponse);
}

bool
NicDevice::rxPush(const RpcRequest &req)
{
    if (!linkUp()) {
        ++_stats.rxDropsDown;
        return false;
    }
    if (rxCount == _params.ringEntries) {
        ++_stats.rxDropsFull;
        return false;
    }
    rx[(rxHead + rxCount) % _params.ringEntries] = req;
    ++rxCount;
    ++_stats.framesRx;
    _stats.maxRxOccupancy = std::max(_stats.maxRxOccupancy, rxCount);
    return true;
}

bool
NicDevice::rxPop(RpcRequest &out)
{
    if (rxCount == 0)
        return false;
    out = rx[rxHead];
    rxHead = (rxHead + 1) % _params.ringEntries;
    --rxCount;
    return true;
}

bool
NicDevice::txPush(const RpcResponse &resp)
{
    if (!linkUp())
        return false;
    if (txCount == _params.ringEntries) {
        ++_stats.txDropsFull;
        return false;
    }
    tx[(txHead + txCount) % _params.ringEntries] = resp;
    ++txCount;
    ++_stats.framesTx;
    _stats.maxTxOccupancy = std::max(_stats.maxTxOccupancy, txCount);
    return true;
}

bool
NicDevice::txPop(RpcResponse &out)
{
    if (txCount == 0)
        return false;
    out = tx[txHead];
    txHead = (txHead + 1) % _params.ringEntries;
    --txCount;
    return true;
}

void
NicDevice::scrambleVolatile(Rng &rng)
{
    auto garble = [&rng](void *p, std::size_t bytes) {
        auto *b = static_cast<std::uint8_t *>(p);
        for (std::size_t i = 0; i < bytes; ++i)
            b[i] = static_cast<std::uint8_t>(rng.next());
    };
    garble(rx.data(), rx.size() * sizeof(RpcRequest));
    garble(tx.data(), tx.size() * sizeof(RpcResponse));
    rxHead = static_cast<std::uint32_t>(rng.next());
    rxCount = static_cast<std::uint32_t>(rng.next());
    txHead = static_cast<std::uint32_t>(rng.next());
    txCount = static_cast<std::uint32_t>(rng.next());
}

void
NicDevice::resetVolatile()
{
    // Value-initialisation zeroes padding too, so the rings save as
    // the same bytes as a fresh device's.
    std::uninitialized_value_construct(rx.begin(), rx.end());
    std::uninitialized_value_construct(tx.begin(), tx.end());
    rxHead = rxCount = txHead = txCount = 0;
}

void
NicDevice::saveContext(std::vector<std::uint8_t> &out)
{
    ContextHeader hdr;
    hdr.magic = contextMagic;
    hdr.ringEntries = _params.ringEntries;
    hdr.rxHead = rxHead;
    hdr.rxCount = rxCount;
    hdr.txHead = txHead;
    hdr.txCount = txCount;
    hdr.framesRx = _stats.framesRx;
    hdr.framesTx = _stats.framesTx;

    const std::size_t off = out.size();
    out.resize(off + contextImageBytes());
    std::uint8_t *p = out.data() + off;
    std::memcpy(p, &hdr, sizeof(hdr));
    p += sizeof(hdr);
    std::memcpy(p, rx.data(), rx.size() * sizeof(RpcRequest));
    p += rx.size() * sizeof(RpcRequest);
    std::memcpy(p, tx.data(), tx.size() * sizeof(RpcResponse));
}

void
NicDevice::restoreContext(const std::uint8_t *data, std::size_t len)
{
    if (len != contextImageBytes())
        panic("NIC context image is ", len, " bytes, expected ",
              contextImageBytes());
    ContextHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.magic != contextMagic)
        panic("NIC context image has bad magic");
    if (hdr.ringEntries != _params.ringEntries)
        panic("NIC context image for ", hdr.ringEntries,
              "-entry rings, device has ", _params.ringEntries);
    const std::uint8_t *p = data + sizeof(hdr);
    std::memcpy(rx.data(), p, rx.size() * sizeof(RpcRequest));
    p += rx.size() * sizeof(RpcRequest);
    std::memcpy(tx.data(), p, tx.size() * sizeof(RpcResponse));
    rxHead = hdr.rxHead % _params.ringEntries;
    rxCount = hdr.rxCount;
    txHead = hdr.txHead % _params.ringEntries;
    txCount = hdr.txCount;
    if (rxCount > _params.ringEntries || txCount > _params.ringEntries)
        panic("NIC context image has out-of-bounds ring occupancy");
    _stats.framesRx = hdr.framesRx;
    _stats.framesTx = hdr.framesTx;
}

} // namespace lightpc::net
