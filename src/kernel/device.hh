/**
 * @file
 * Device drivers and the device power management (dpm) list.
 *
 * Auto-Stop suspends every driver registered in dpm_list through the
 * standard callback sequence — dpm_prepare(), dpm_suspend(),
 * dpm_suspend_noirq() — in registration order (dependencies), dumps
 * each device's context into its Device Control Block (DCB) in
 * OC-PMEM, and copies memory-mapped peripheral regions. Go revives
 * them in the inverse order with dpm_resume_noirq(), dpm_resume(),
 * dpm_complete().
 */

#ifndef LIGHTPC_KERNEL_DEVICE_HH
#define LIGHTPC_KERNEL_DEVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace lightpc::kernel
{

/** Rough driver classes with characteristic costs. */
enum class DeviceClass
{
    Storage,   ///< block devices: queues to quiesce
    Network,   ///< NICs: rings + interrupts
    Serial,    ///< consoles, UARTs
    Spi,       ///< manually handled (no dpm), cheap
    Gpio,      ///< manually handled (no dpm), cheap
    Timer,     ///< clocksources/clockevents
    Platform,  ///< the long tail of platform devices
};

/**
 * Provider of real device context bytes.
 *
 * By default Auto-Stop charges timing for a device's context dump
 * but moves no bytes (the context is opaque). A driver that owns
 * genuine volatile state — descriptor rings, queue heads — binds a
 * DeviceContext to its Device; Auto-Stop then serializes the image
 * through the durability cursor into the DCB payload region, and Go
 * reads it back and hands it to restoreContext(), so the state that
 * survives a power cycle is exactly what the cursor let through.
 */
class DeviceContext
{
  public:
    virtual ~DeviceContext() = default;

    /**
     * Append the device's serialized volatile state to @p out. The
     * image must be exactly Device::contextBytes() long (the DCB
     * payload region is laid out from the declared sizes).
     */
    virtual void saveContext(std::vector<std::uint8_t> &out) = 0;

    /** Reinstate volatile state from the DCB image read back on Go. */
    virtual void restoreContext(const std::uint8_t *data,
                                std::size_t len) = 0;
};

/** Latency of each dpm callback. */
struct DpmCosts
{
    Tick prepare = 0;
    Tick suspend = 0;
    Tick suspendNoirq = 0;
    Tick resumeNoirq = 0;
    Tick resume = 0;
    Tick complete = 0;

    Tick
    totalSuspend() const
    {
        return prepare + suspend + suspendNoirq;
    }

    Tick
    totalResume() const
    {
        return resumeNoirq + resume + complete;
    }
};

/**
 * One driver entry in dpm_list.
 */
class Device
{
  public:
    Device(std::string name, DeviceClass cls, const DpmCosts &costs,
           std::uint64_t context_bytes, std::uint64_t mmio_bytes);

    const std::string &name() const { return _name; }
    DeviceClass deviceClass() const { return _class; }
    const DpmCosts &costs() const { return _costs; }

    /** DCB payload: driver state saved to OC-PMEM. */
    std::uint64_t contextBytes() const { return _contextBytes; }

    /** Memory-mapped peripheral region copied by Auto-Stop. */
    std::uint64_t mmioBytes() const { return _mmioBytes; }

    bool suspended() const { return _suspended; }
    void setSuspended(bool v) { _suspended = v; }

    /**
     * A context cookie, scrambled while the device is live and
     * verified after Go restores the DCB.
     */
    std::uint64_t contextCookie() const { return cookie; }
    void setContextCookie(std::uint64_t v) { cookie = v; }

    /**
     * Bind a real context provider; @p context_bytes (when nonzero)
     * replaces the declared context size with the provider's fixed
     * image size. Pass nullptr to unbind.
     */
    void
    bindContext(DeviceContext *provider, std::uint64_t context_bytes = 0)
    {
        _context = provider;
        if (provider && context_bytes != 0)
            _contextBytes = context_bytes;
    }

    /** The bound provider (nullptr = timing-only context dump). */
    DeviceContext *context() const { return _context; }

  private:
    std::string _name;
    DeviceClass _class;
    DpmCosts _costs;
    std::uint64_t _contextBytes;
    std::uint64_t _mmioBytes;
    bool _suspended = false;
    std::uint64_t cookie = 0;
    DeviceContext *_context = nullptr;
};

/**
 * The ordered dpm_list.
 */
class DeviceManager
{
  public:
    DeviceManager() = default;

    /** Append a device (registration order == suspend order). */
    Device &add(std::unique_ptr<Device> device);

    std::size_t count() const { return dpmList.size(); }

    Device &device(std::size_t idx) { return *dpmList[idx]; }
    const Device &device(std::size_t idx) const { return *dpmList[idx]; }

    /** Iteration in dpm (suspend) order. */
    const std::vector<std::unique_ptr<Device>> &list() const
    {
        return dpmList;
    }

    /** Sum of all DCB context bytes. */
    std::uint64_t totalContextBytes() const;

    /** Sum of all MMIO region bytes. */
    std::uint64_t totalMmioBytes() const;

    /** True when every device is suspended. */
    bool allSuspended() const;

    /** How many devices are currently suspended. */
    std::size_t suspendedCount() const;

    /**
     * The prototype's default driver population ("all default device
     * driver packages"), around @p count devices across the classes.
     */
    static DeviceManager makeDefault(std::size_t count = 300,
                                     std::uint64_t seed = 7);

    /**
     * The Fig. 22 worst case: the maximum dpm_list population (730
     * drivers).
     */
    static DeviceManager makeWorstCase(std::uint64_t seed = 7);

  private:
    std::vector<std::unique_ptr<Device>> dpmList;
};

} // namespace lightpc::kernel

#endif // LIGHTPC_KERNEL_DEVICE_HH
