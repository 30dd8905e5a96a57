/**
 * @file
 * Sparse functional memory.
 *
 * Timing models in mem/ and psm/ are purely temporal; persistence
 * correctness (object pools, crash/recovery tests, ECC round trips)
 * additionally needs real bytes. BackingStore provides a sparse,
 * page-granular byte store used as the functional half of OC-PMEM and
 * DRAM.
 *
 * Power-cut durability cursor: for fault-injection campaigns the
 * store can be armed with a cut tick — the moment the rails fall out
 * of specification. Writes carry timestamps (either an explicit
 * [start, end] interval via writeTimed(), or the write clock set with
 * setWriteClock() for instantaneous control-block stores); bytes
 * whose completion lands after the cut never become durable, and the
 * one cache line in flight at the cut is torn: a seeded RNG decides
 * how many of its bytes made it to media. Writes of at most eight
 * bytes are atomic (a single aligned store instruction) and are never
 * torn — they either complete before the cut or vanish.
 */

#ifndef LIGHTPC_MEM_BACKING_STORE_HH
#define LIGHTPC_MEM_BACKING_STORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "mem/request.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace lightpc::mem
{

/** What happened to writes while a power cut was armed. */
struct DurabilityCutStats
{
    std::uint64_t durableWrites = 0;  ///< fully landed before the cut
    std::uint64_t droppedWrites = 0;  ///< entirely after the cut
    std::uint64_t tornWrites = 0;     ///< straddled the cut
    std::uint64_t staleWrites = 0;    ///< started before a past epoch
    std::uint64_t durableBytes = 0;
    std::uint64_t droppedBytes = 0;
    std::uint64_t staleBytes = 0;
    Addr lastTornLine = 0;            ///< line address of the last tear
    std::uint64_t lastTornBytes = 0;  ///< bytes of it that landed
};

/**
 * Sparse byte-addressable storage. Unwritten bytes read as zero.
 */
class BackingStore
{
  public:
    /** Backing page size (an implementation detail, not a TLB page). */
    static constexpr std::uint64_t pageBytes = 4096;

    BackingStore() = default;

    /** Read @p len bytes at @p addr into @p out. */
    void read(Addr addr, void *out, std::uint64_t len) const;

    /**
     * Write @p len bytes from @p in at @p addr. With a power cut
     * armed the write is treated as instantaneous at the current
     * write clock.
     */
    void write(Addr addr, const void *in, std::uint64_t len);

    /**
     * Write with an explicit service interval: the span's cache lines
     * complete uniformly over [start, end]. Falls back to a plain
     * write when no cut is armed.
     */
    void writeTimed(Tick start, Tick end, Addr addr, const void *in,
                    std::uint64_t len);

    /** Convenience: read a trivially-copyable value. */
    template <typename T>
    T
    readValue(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }

    /** Convenience: write a trivially-copyable value. */
    template <typename T>
    void
    writeValue(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &value, sizeof(T));
    }

    /** Zero-fill a range (releases whole pages when aligned). */
    void clear(Addr addr, std::uint64_t len);

    /** Drop all contents (the OC-PMEM reset port). */
    void reset() { pages.clear(); }

    /** Number of materialized pages (for footprint assertions). */
    std::size_t materializedPages() const { return pages.size(); }

    /** Deep equality against another store (crash/recovery checks). */
    bool equals(const BackingStore &other) const;

    /**
     * Order-independent FNV-1a digest of all non-zero contents
     * (pages visited in sorted id order; all-zero pages skipped, so
     * materialization history does not perturb the digest).
     */
    std::uint64_t contentDigest() const;

    /** Become a deep copy of @p other's contents (cursor state is
     *  not copied — the clone starts disarmed). */
    void copyContentsFrom(const BackingStore &other);

    // --- power-cut durability cursor ------------------------------

    /**
     * Arm a power cut: writes completing at or after @p cut_tick are
     * not durable. @p torn_seed drives the torn-line RNG. Resets the
     * cut statistics and opens a new cut epoch.
     */
    void armPowerCut(Tick cut_tick, std::uint64_t torn_seed);

    /**
     * Power restored: subsequent writes are durable again. The cut
     * tick that just fired becomes the epoch floor — a later, re-armed
     * cut must never let a write whose service interval began before
     * this instant land, or bytes dropped by the first cut would be
     * resurrected by replaying the same timed interval under the
     * second (the single-epoch bug compound campaigns tripped over).
     */
    void
    disarmPowerCut()
    {
        cutArmed = false;
        _epochFloor = std::max(_epochFloor, _cutTick);
    }

    /**
     * Cancel an armed cut that never fired — AC recovered, or a
     * watchdog deadline was disarmed, before the machine reached the
     * cut tick. No outage happened at that instant, so the epoch
     * floor must NOT advance to it: writes issued by the continuing
     * execution legitimately begin before the (hypothetical) cut.
     */
    void cancelPowerCut() { cutArmed = false; }

    bool powerCutArmed() const { return cutArmed; }
    Tick powerCutTick() const { return _cutTick; }

    /** Cut epochs opened so far (armPowerCut() calls). */
    std::uint64_t cutEpoch() const { return _cutEpoch; }

    /** Writes may not begin before this tick (last fired cut). */
    Tick epochFloor() const { return _epochFloor; }

    /**
     * Timestamp applied to subsequent untimed write()/writeValue()
     * calls while a cut is armed.
     */
    void setWriteClock(Tick when) { _writeClock = when; }

    /** Outcome counters since the last armPowerCut(). */
    const DurabilityCutStats &cutStats() const { return _cutStats; }

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    Page *findPage(Addr page_id) const;
    Page &materialize(Addr page_id);

    /** The unconditional write path (no durability filtering). */
    void writeRaw(Addr addr, const void *in, std::uint64_t len);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages;

    bool cutArmed = false;
    Tick _cutTick = 0;
    Tick _writeClock = 0;
    Tick _epochFloor = 0;
    std::uint64_t _cutEpoch = 0;
    Rng tornRng{1};
    DurabilityCutStats _cutStats;
};

} // namespace lightpc::mem

#endif // LIGHTPC_MEM_BACKING_STORE_HH
