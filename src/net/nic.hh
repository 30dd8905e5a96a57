/**
 * @file
 * Simulated NIC with persistent descriptor-ring context.
 *
 * The NIC registers itself in the kernel dpm_list as a
 * DeviceClass::Network driver and binds a kernel::DeviceContext, so
 * Auto-Stop serializes its RX/TX rings byte-for-byte into the DCB
 * payload region (through the durability cursor) and Go hands the
 * image back. Requests queued at the moment of a power event are
 * therefore *real state* that survives an SnG power cycle — and real
 * state that a checkpoint baseline's cold boot loses.
 *
 * The rings are bounded: pushes fail when the ring is full or the
 * device is suspended (link down), which is how the service plane
 * models frame loss during an outage.
 */

#ifndef LIGHTPC_NET_NIC_HH
#define LIGHTPC_NET_NIC_HH

#include <cstdint>
#include <vector>

#include "kernel/device.hh"
#include "net/rpc.hh"
#include "sim/rng.hh"

namespace lightpc::net
{

/** NIC geometry (the MMIO window and dpm costs are fixed, nic.cc). */
struct NicParams
{
    /** Descriptor entries per direction. */
    std::uint32_t ringEntries = 256;
};

/** Traffic counters. */
struct NicStats
{
    std::uint64_t framesRx = 0;      ///< requests accepted into RX
    std::uint64_t framesTx = 0;      ///< responses accepted into TX
    std::uint64_t rxDropsFull = 0;   ///< RX pushes refused: ring full
    std::uint64_t rxDropsDown = 0;   ///< RX pushes refused: link down
    std::uint64_t txDropsFull = 0;
    std::uint32_t maxRxOccupancy = 0;
    std::uint32_t maxTxOccupancy = 0;
};

/**
 * The NIC: bounded RX (request) and TX (response) rings plus the
 * dpm_list registration.
 */
class NicDevice : public kernel::DeviceContext
{
  public:
    /**
     * Construct and register in @p devices (appended to dpm_list, so
     * the NIC suspends last and resumes first — a late registrant,
     * like a hot-plugged driver).
     */
    NicDevice(kernel::DeviceManager &devices, std::string name,
              const NicParams &params = NicParams());

    const NicParams &params() const { return _params; }
    kernel::Device &device() { return *dev; }
    const NicStats &stats() const { return _stats; }

    /** Link is up while the driver is not suspended. */
    bool linkUp() const { return !dev->suspended(); }

    std::uint32_t capacity() const { return _params.ringEntries; }
    std::uint32_t rxOccupancy() const { return rxCount; }
    std::uint32_t txOccupancy() const { return txCount; }

    /** Enqueue an inbound request. False when full or link down. */
    bool rxPush(const RpcRequest &req);

    /** Dequeue the oldest inbound request. False when empty. */
    bool rxPop(RpcRequest &out);

    /** Enqueue an outbound response. False when full or link down. */
    bool txPush(const RpcResponse &resp);

    /** Dequeue the oldest outbound response. False when empty. */
    bool txPop(RpcResponse &out);

    /**
     * Power-loss scramble: overwrite the volatile rings with garbage
     * (the DRAM-side state is unspecified once the rails fall). A
     * following restoreContext() must reinstate the true contents
     * from the DCB image — this is how tests prove the durable copy,
     * not a lucky survivor, is what Go resurrects.
     */
    void scrambleVolatile(Rng &rng);

    /** Cold boot: rings empty, heads reset (queued traffic lost). */
    void resetVolatile();

    /** Fixed serialized image size for this geometry. */
    std::uint64_t contextImageBytes() const;

    // --- kernel::DeviceContext ------------------------------------
    void saveContext(std::vector<std::uint8_t> &out) override;
    void restoreContext(const std::uint8_t *data,
                        std::size_t len) override;

  private:
    struct ContextHeader
    {
        std::uint64_t magic = 0;
        std::uint32_t ringEntries = 0;
        std::uint32_t rxHead = 0;
        std::uint32_t rxCount = 0;
        std::uint32_t txHead = 0;
        std::uint32_t txCount = 0;
        std::uint32_t pad = 0;
        std::uint64_t framesRx = 0;
        std::uint64_t framesTx = 0;
    };

    static constexpr std::uint64_t contextMagic =
        0x4e49435f52494e47ULL;  // "NIC_RING"

    NicParams _params;
    kernel::Device *dev = nullptr;
    NicStats _stats;

    std::vector<RpcRequest> rx;
    std::vector<RpcResponse> tx;
    std::uint32_t rxHead = 0, rxCount = 0;
    std::uint32_t txHead = 0, txCount = 0;
};

} // namespace lightpc::net

#endif // LIGHTPC_NET_NIC_HH
