/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue orders callbacks by (tick, priority, sequence) and
 * executes them in non-decreasing time order. Cores, devices, and the
 * PecOS kernel all advance by scheduling events; the queue is the only
 * source of simulated time.
 *
 * The implementation is allocation-free on the steady-state path:
 *
 *  - Event records live in slab-allocated pools and are recycled
 *    through a free list; callbacks with captures of up to
 *    SmallCallback::inlineBytes are stored inside the record (no
 *    std::function, no per-event malloc).
 *
 *  - EventIds embed a per-slot generation counter, so deschedule()
 *    is one array index plus one integer compare, and the closure is
 *    destroyed eagerly at cancellation instead of lingering until the
 *    heap reaches its tick. Stale (cancelled) ordering entries are
 *    swept once they outnumber live events 2:1.
 *
 *  - A calendar-queue front end (a ring of width-2^bucketShift tick
 *    buckets) makes near-horizon scheduling O(1); only events beyond
 *    the ring's window go through the binary heap, and they migrate
 *    into the ring as time advances. The ring is sized to the timers
 *    it serves: 256 buckets of 2^18 ticks (262 ns) span a 67 us
 *    window, which holds the network, heartbeat and op-log drain
 *    timers of a replicated-KV cluster (mostly 1-34 us ahead). A
 *    bucket is kept sorted, so events that share one pay a sorted
 *    insert instead of a heap push, pop and migration.
 *
 * Ordering entries are 24-byte PODs; priority and sequence number are
 * packed into one comparison key, so equal-tick ordering (priority,
 * then scheduling order) costs a single integer compare.
 */

#ifndef LIGHTPC_SIM_EVENT_QUEUE_HH
#define LIGHTPC_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_callback.hh"
#include "sim/ticks.hh"

// The kernel's hot path must stay flat even at -O2 (the default
// RelWithDebInfo build), where gcc's inliner gives up on execute()
// and insertBucket(); cold paths are kept out of line so the hot
// loop stays small.
#if defined(__GNUC__) || defined(__clang__)
#define LIGHTPC_HOT_INLINE [[gnu::always_inline]] inline
#define LIGHTPC_COLD_OUTLINE [[gnu::noinline]]
#else
#define LIGHTPC_HOT_INLINE inline
#define LIGHTPC_COLD_OUTLINE
#endif

namespace lightpc
{

/** Ordering hint for events scheduled at the same tick. */
enum class EventPriority : int
{
    PowerEvent = 0,   ///< Power-fail interrupts preempt everything.
    Interrupt = 10,   ///< IPIs and device interrupts.
    Default = 50,     ///< Ordinary model progress.
    Stats = 90,       ///< Sampling after the tick's work is done.
};

/**
 * Handle used to cancel a scheduled event.
 *
 * Encodes (pool slot, generation); the generation changes whenever
 * the slot is retired, so handles to completed or cancelled events
 * can never resurrect a reused slot.
 */
using EventId = std::uint64_t;

/** An invalid event handle. */
constexpr EventId invalidEventId = 0;

/**
 * Time-ordered callback queue.
 *
 * Events scheduled at equal ticks run in priority order, then in
 * scheduling order, which keeps multi-core interleavings
 * deterministic.
 */
class EventQueue
{
    // Ring of 2^8 buckets, each 2^bucketShift ticks wide; events inside
    // the window [curAbs, curAbs + bucketCount) bucket widths go into
    // the ring, later ones into the far heap.
    static constexpr unsigned bucketShift = 18;
    static constexpr unsigned bucketCount = 256;

  public:
    /** Ticks spanned by the calendar ring's window (about 67 us). */
    static constexpr Tick ringSpan = Tick(bucketCount) << bucketShift;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @return A handle that can be passed to deschedule().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn,
             EventPriority prio = EventPriority::Default)
    {
        if (when < _now) [[unlikely]]
            panic("scheduling event in the past: ", when, " < ", _now);
        const std::uint32_t idx = acquireSlot();
        SlotRec &r = rec(idx);
        r.cb.emplace(std::forward<F>(fn));
        const std::uint32_t gen = r.gen;

        Ref ref;
        ref.when = when;
        ref.key = (static_cast<std::uint64_t>(static_cast<int>(prio))
                   << seqBits)
            | ++lastSeq;
        ref.slot = idx;
        ref.gen = gen;

        const std::uint64_t abs = when >> bucketShift;
        if (abs < curAbs + bucketCount) [[likely]]
            insertBucket(ref, abs);
        else
            pushFar(ref);
        ++liveCount;
        return makeId(idx, gen);
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    EventId
    scheduleIn(Tick delta, F &&fn,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(_now + delta, std::forward<F>(fn), prio);
    }

    /**
     * Cancel a previously scheduled event. Idempotent.
     *
     * The closure is destroyed immediately; the 24-byte ordering
     * entry is dropped lazily, or swept early once stale entries
     * outnumber live events 2:1.
     */
    void
    deschedule(EventId id)
    {
        const std::uint32_t idx = static_cast<std::uint32_t>(id >> 32);
        const std::uint32_t gen = static_cast<std::uint32_t>(id);
        if (idx >= slotCount)
            return;
        if (rec(idx).gen != gen)
            return;  // already fired, cancelled, or a stale handle
        retireSlot(idx);
        --liveCount;
        ++staleCount;
        if (staleCount > pruneFloor && staleCount > 2 * liveCount)
            prune();
    }

    /** True when no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (scheduled, not cancelled) events. */
    std::size_t size() const { return liveCount; }

    /**
     * Run events until the queue drains or time would pass @p limit.
     *
     * Events scheduled exactly at @p limit still execute.
     * @return The time of the last executed event, or now() if none.
     */
    Tick
    run(Tick limit = maxTick)
    {
        while (stepOne(limit)) {
        }
        return _now;
    }

    /** Execute exactly one event. @return false if the queue is empty. */
    bool step() { return stepOne(maxTick); }

    // --- introspection (tests) ------------------------------------

    /** Ordering entries currently held (live + not-yet-swept stale). */
    std::size_t pendingEntries() const { return liveCount + staleCount; }

    /** Event records allocated across all slabs. */
    std::size_t poolCapacity() const { return slotCount; }

  private:
    static constexpr unsigned bucketMask = bucketCount - 1;
    static constexpr unsigned slabShift = 8;
    static constexpr unsigned slabSize = 1u << slabShift;
    static constexpr unsigned seqBits = 56;
    static constexpr std::uint32_t noFree = ~std::uint32_t(0);
    static constexpr std::uint64_t noAbs = ~std::uint64_t(0);
    static constexpr std::size_t pruneFloor = 256;

    /** A 24-byte ordering entry referencing a pooled record. */
    struct Ref
    {
        Tick when;
        std::uint64_t key;          ///< (priority << 56) | sequence
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** "Later than": orders the far heap (min at front). */
    struct RefGreater
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.key > b.key;
        }
    };

    static EventId
    makeId(std::uint32_t slot_idx, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot_idx) << 32) | gen;
    }

    /**
     * A pooled event record: the callback plus its bookkeeping on
     * the same cache-line neighborhood, so the liveness check, the
     * invocation, and the free-list relink all touch one line.
     */
    struct SlotRec
    {
        SmallCallback cb;
        /**
         * Bumped on every retirement. Generations stay odd (they
         * start at 1 and advance by 2, wrapping odd), so no live
         * handle ever carries generation 0 and the bump needs no
         * wrap check against invalidEventId.
         */
        std::uint32_t gen = 1;
        std::uint32_t nextFree = noFree;
    };

    /** Record for a slot; slabs are never relocated. */
    SlotRec &
    rec(std::uint32_t idx)
    {
        if (idx < slabSize) [[likely]]
            return firstSlab[idx];
        return slabs[idx >> slabShift][idx & (slabSize - 1)];
    }

    const SlotRec &
    rec(std::uint32_t idx) const
    {
        if (idx < slabSize) [[likely]]
            return firstSlab[idx];
        return slabs[idx >> slabShift][idx & (slabSize - 1)];
    }

    bool
    refLive(const Ref &ref) const
    {
        return rec(ref.slot).gen == ref.gen;
    }

    std::uint32_t
    acquireSlot()
    {
        if (freeHead != noFree) [[likely]] {
            const std::uint32_t idx = freeHead;
            freeHead = rec(idx).nextFree;
            return idx;
        }
        slabs.push_back(std::make_unique<SlotRec[]>(slabSize));
        if (slabs.size() == 1)
            firstSlab = slabs.front().get();
        const std::uint32_t base =
            static_cast<std::uint32_t>(slotCount);
        slotCount += slabSize;
        // Chain all but the first new slot onto the free list.
        for (std::uint32_t i = slabSize - 1; i >= 1; --i) {
            rec(base + i).nextFree = freeHead;
            freeHead = base + i;
        }
        return base;
    }

    /** Destroy the closure and recycle the record. */
    void
    retireSlot(std::uint32_t idx)
    {
        SlotRec &r = rec(idx);
        r.cb.reset();
        r.gen += 2;
        r.nextFree = freeHead;
        freeHead = idx;
    }

    LIGHTPC_HOT_INLINE void
    insertBucket(const Ref &ref, std::uint64_t abs)
    {
        const unsigned pos = static_cast<unsigned>(abs) & bucketMask;
        auto &b = buckets[pos];
        // Kept sorted descending so the minimum pops from the back.
        // A non-empty bucket already has its occupancy bit set (bits
        // are only cleared when a bucket is seen empty), so the
        // bitmap update is needed in the empty case alone.
        if (b.empty()) [[likely]] {
            occ[pos >> 6] |= std::uint64_t(1) << (pos & 63);
            b.push_back(ref);
        } else if (!RefGreater{}(ref, b.back())) {
            b.push_back(ref);
        } else {
            b.insert(std::upper_bound(b.begin(), b.end(), ref,
                                      RefGreater{}),
                     ref);
        }
    }

    void
    pushFar(const Ref &ref)
    {
        far.push_back(ref);
        std::push_heap(far.begin(), far.end(), RefGreater{});
    }

    void
    popFarFront()
    {
        std::pop_heap(far.begin(), far.end(), RefGreater{});
        far.pop_back();
    }

    void
    clearOcc(unsigned pos)
    {
        occ[pos >> 6] &= ~(std::uint64_t(1) << (pos & 63));
    }

    /**
     * First occupied ring position at or after @p start in window
     * order, or -1 when the ring is empty.
     */
    int
    scanFrom(unsigned start) const
    {
        unsigned w = start >> 6;
        std::uint64_t word = occ[w]
            & (~std::uint64_t(0) << (start & 63));
        for (;;) {
            if (word)
                return static_cast<int>((w << 6)
                                        + std::countr_zero(word));
            if (++w == occ.size())
                break;
            word = occ[w];
        }
        for (w = 0; (w << 6) < start; ++w) {
            std::uint64_t wd = occ[w];
            if ((w << 6) + 64 > start)
                wd &= (std::uint64_t(1) << (start & 63)) - 1;
            if (wd)
                return static_cast<int>((w << 6)
                                        + std::countr_zero(wd));
        }
        return -1;
    }

    /** Pull far events that now fall inside the ring's window. */
    LIGHTPC_COLD_OUTLINE void
    migrateFar()
    {
        while (!far.empty()) {
            const std::uint64_t abs = far.front().when >> bucketShift;
            if (abs >= curAbs + bucketCount)
                break;
            const Ref ref = far.front();
            popFarFront();
            if (!refLive(ref)) {
                --staleCount;
                continue;
            }
            insertBucket(ref, abs);
        }
    }

    /**
     * Locate, remove, and execute the earliest live event, dropping
     * stale entries met on the way. Does not execute past @p limit.
     *
     * Popping the last entry of a bucket leaves its occupancy bit
     * set; the empty-bucket cleanse below clears such bits the next
     * time the scan lands on them. That keeps the bitmap write out
     * of the pop path.
     *
     * @return false when the queue is empty or the next event lies
     *         beyond @p limit.
     */
    LIGHTPC_HOT_INLINE bool
    stepOne(Tick limit)
    {
        for (;;) {
            while (!far.empty() && !refLive(far.front()))
                [[unlikely]] {
                popFarFront();
                --staleCount;
            }
            const unsigned start =
                static_cast<unsigned>(curAbs) & bucketMask;
            // Fast path: the bucket at the cursor is occupied (the
            // common case under same-tick/near-tick scheduling).
            int pos;
            if ((occ[start >> 6] >> (start & 63)) & 1) [[likely]]
                pos = static_cast<int>(start);
            else
                pos = scanFrom(start);
            if (pos < 0) [[unlikely]] {
                if (far.empty())
                    return false;
                // Ring empty: the far heap's front is the global min.
                const Ref ref = far.front();
                if (ref.when > limit)
                    return false;
                popFarFront();
                execute(ref);
                return true;
            }
            auto &b = buckets[static_cast<unsigned>(pos)];
            while (!b.empty() && !refLive(b.back())) [[unlikely]] {
                b.pop_back();
                --staleCount;
            }
            if (b.empty()) [[unlikely]] {
                clearOcc(static_cast<unsigned>(pos));
                continue;
            }
            // Every ring event precedes every far event (the window
            // invariant), so this bucket's back is the global min.
            const Ref ref = b.back();
            if (ref.when > limit)
                return false;
            b.pop_back();
            execute(ref);
            return true;
        }
    }

    LIGHTPC_HOT_INLINE void
    execute(const Ref &ref)
    {
        SlotRec &r = rec(ref.slot);
        _now = ref.when;
        // Advance the ring window with time and pull newly-near far
        // events before running the callback, so events it schedules
        // land in a consistent window. The window only moves when the
        // event crosses into a new bucket.
        const std::uint64_t abs = ref.when >> bucketShift;
        if (abs != curAbs) [[unlikely]] {
            curAbs = abs;
            if (!far.empty())
                migrateFar();
        }
        --liveCount;
        // Invalidate the handle before invoking: descheduling a
        // running event is a no-op (matches the original kernel),
        // and the closure must not be destroyed mid-invocation.
        r.gen += 2;
        r.cb();
        r.cb.releaseAfterInvoke();
        r.nextFree = freeHead;
        freeHead = ref.slot;
    }

    /** Sweep cancelled ordering entries out of the ring and heap. */
    LIGHTPC_COLD_OUTLINE void
    prune()
    {
        for (unsigned pos = 0; pos < bucketCount; ++pos) {
            auto &b = buckets[pos];
            if (b.empty())
                continue;
            std::erase_if(b, [this](const Ref &r) {
                return !refLive(r);
            });
            if (b.empty())
                clearOcc(pos);
        }
        std::erase_if(far, [this](const Ref &r) {
            return !refLive(r);
        });
        std::make_heap(far.begin(), far.end(), RefGreater{});
        staleCount = 0;
    }

    Tick _now = 0;
    std::uint64_t lastSeq = 0;
    std::uint64_t curAbs = 0;
    std::size_t liveCount = 0;
    std::size_t staleCount = 0;

    /** Stable pooled-record storage. */
    std::vector<std::unique_ptr<SlotRec[]>> slabs;
    SlotRec *firstSlab = nullptr;
    std::size_t slotCount = 0;
    std::uint32_t freeHead = noFree;

    // The 32-byte occupancy bitmap stays adjacent to the scalars
    // above (one hot cache-line neighborhood) instead of landing
    // 6 KiB away past the bucket array.
    std::array<std::uint64_t, bucketCount / 64> occ{};
    std::array<std::vector<Ref>, bucketCount> buckets;
    std::vector<Ref> far;
};

} // namespace lightpc

#endif // LIGHTPC_SIM_EVENT_QUEUE_HH
