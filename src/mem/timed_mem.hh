/**
 * @file
 * Combined functional + timed memory accessor.
 *
 * SnG and the persistence baselines move real bytes (control blocks,
 * checkpoint images) through the simulated memory: TimedMem pairs a
 * MemoryPort (timing) with an optional BackingStore (function) and
 * exposes byte-span operations that charge line-granular access time.
 *
 * Large spans (system images, multi-megabyte checkpoints) are
 * extrapolated from a simulated sample prefix so that multi-gigabyte
 * dumps do not require tens of millions of access() calls; the
 * sampled prefix still runs through the real port (one
 * MemoryPort::accessLines() call per span), so mode differences
 * (early-return vs blocking, DRAM vs PRAM) are captured.
 */

#ifndef LIGHTPC_MEM_TIMED_MEM_HH
#define LIGHTPC_MEM_TIMED_MEM_HH

#include <cstdint>

#include "mem/backing_store.hh"
#include "mem/memory_port.hh"
#include "mem/request.hh"

namespace lightpc::mem
{

/**
 * Byte-span reads/writes with timing.
 */
class TimedMem
{
  public:
    /**
     * @param port  Timing path.
     * @param store Functional bytes (may be null for timing-only use).
     */
    explicit TimedMem(MemoryPort &port, BackingStore *store = nullptr)
        : port(port), store(store)
    {}

    /**
     * Functional + timed write. @return completion tick.
     *
     * The store (when present) receives the write with its service
     * interval, so an armed power-cut cursor can drop or tear the
     * suffix that completes after the rails fall out of spec.
     */
    Tick writeBytes(Tick when, Addr addr, const void *data,
                    std::uint64_t len);

    /** Fence through the underlying port. @return quiescence tick. */
    Tick fence(Tick when);

    /** Functional + timed read. @return completion tick. */
    Tick readBytes(Tick when, Addr addr, void *out, std::uint64_t len);

    /** Timing-only write of @p len bytes (content irrelevant). */
    Tick writeSpan(Tick when, Addr addr, std::uint64_t len);

    /** Timing-only read of @p len bytes. */
    Tick readSpan(Tick when, Addr addr, std::uint64_t len);

    /** Convenience for trivially-copyable values. */
    template <typename T>
    Tick
    writeValue(Tick when, Addr addr, const T &value)
    {
        return writeBytes(when, addr, &value, sizeof(T));
    }

    template <typename T>
    Tick
    readValue(Tick when, Addr addr, T &out)
    {
        return readBytes(when, addr, &out, sizeof(T));
    }

    BackingStore *backing() { return store; }

    /** Default lines simulated exactly before extrapolating. */
    static constexpr std::uint64_t sampleLines = 4096;

    /**
     * Change the exact-simulation prefix. Use a large value when the
     * *device-side* backlog matters (e.g. measuring how long a fence
     * after the span takes), since extrapolated lines never reach
     * the port and leave its timeline unaware of them.
     */
    void setSampleLimit(std::uint64_t lines) { sampleLimit = lines; }

  private:
    Tick span(Tick when, Addr addr, std::uint64_t len, MemOp op);

    MemoryPort &port;
    BackingStore *store;
    std::uint64_t sampleLimit = sampleLines;
};

} // namespace lightpc::mem

#endif // LIGHTPC_MEM_TIMED_MEM_HH
