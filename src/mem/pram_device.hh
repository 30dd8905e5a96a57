/**
 * @file
 * Bare-metal PRAM (phase-change) device timing model.
 *
 * Models one crosspoint PRAM die as used on a Bare-NVDIMM: reads are
 * nearly DRAM speed (1.1x, Table I), writes are ~4x slower because the
 * thermal core must cool off before the cell can be touched again
 * (Section V-A). The device is serialized: the media stays busy for
 * the full write latency, which is exactly what produces the
 * read-after-write head-of-line blocking that the PSM's early-return +
 * ECC reconstruction removes.
 *
 * Endurance (set/reset cycles) is tracked per region so wear-leveling
 * can be validated and lifetime projected (Section VIII). The wear
 * counters additionally feed the media-fault model: past a
 * configurable wear onset, writes stochastically create *stuck-at*
 * symbols that persist until the line is retired, and every read can
 * additionally suffer transient (resistance-drift) symbol flips at a
 * configurable raw error rate. The PSM's RAS pipeline turns those
 * faults into XCC corrections, symbol-ECC reconstructions, or
 * contained MCEs — never silent corruption.
 */

#ifndef LIGHTPC_MEM_PRAM_DEVICE_HH
#define LIGHTPC_MEM_PRAM_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/request.hh"
#include "sim/fast_div.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"
#include "stats/histogram.hh"

namespace lightpc::mem
{

/**
 * Media-fault model of one PRAM die (Section V-A reliability).
 *
 * A "symbol" is one byte of a 32 B device granule — the unit the
 * symbol-based ECC tier operates on. Each device granule carries
 * internal per-granule detection (CRC-class), so a corrupted granule
 * is always *detected* and surfaces to the PSM as an erasure; the
 * codecs then either repair it or raise the containment bit.
 */
struct MediaFaultParams
{
    /** Master switch; when false no fault state is ever sampled. */
    bool enabled = false;

    /**
     * Transient per-symbol raw error rate: the probability that any
     * given symbol of a granule read comes back flipped (resistance
     * drift). Cleared by a rewrite of the line (patrol scrub).
     */
    double transientBer = 0.0;

    /**
     * Probability that a write to a fully-worn region leaves one
     * symbol of a written granule permanently stuck. Scales linearly
     * from zero at `wearOnsetFraction` to this value at 100% wear.
     */
    double wearStuckRate = 0.0;

    /** Wear fraction below which no stuck-at faults are created. */
    double wearOnsetFraction = 0.5;

    /** Cap on tracked stuck symbols per 32 B granule. */
    std::uint32_t maxStuckPerGranule = 8;

    /** Seed of the per-device fault RNG (salted per unit by the PSM). */
    std::uint64_t seed = 0x7261734cULL;  // "rasL"
};

/**
 * Address-space tag for the parity granule that accompanies a data
 * granule pair. The device models its group's companion ECC granule
 * (written in lockstep with every line write, so it wears and sticks
 * at the same rate) under `line_addr | pramParityTag`.
 */
constexpr Addr pramParityTag = Addr(1) << 63;

/** Sampled corruption of one 32 B granule read. */
struct GranuleFaults
{
    std::uint32_t stuck = 0;    ///< persistent stuck-at symbols
    std::uint32_t flipped = 0;  ///< transient drift flips (this read)

    std::uint32_t total() const { return stuck + flipped; }
    bool any() const { return total() != 0; }
};

/** Configuration of one PRAM die. */
struct PramParams
{
    /** Media read latency for one device-granule access. */
    Tick readLatency = 55 * tickNs;

    /**
     * Media write latency, including the thermal cooling window
     * during which the die cannot be accessed again. The paper puts
     * PRAM writes at 4-8x its reads at the processor side (Section
     * V-A), and the PRAM part it cites ([61], 8 Gb, 40 MB/s program
     * bandwidth) sustains one 32 B device write per ~800 ns.
     */
    Tick writeLatency = 800 * tickNs;

    /** Die capacity in bytes. */
    std::uint64_t capacityBytes = std::uint64_t(2) << 30;

    /** Write endurance per cell region (set/reset cycles). */
    std::uint64_t enduranceCycles = 100'000'000;

    /** Wear-accounting region size in bytes. */
    std::uint64_t wearRegionBytes = std::uint64_t(1) << 20;

    /** Media-fault model (disabled by default). */
    MediaFaultParams faults;
};

/**
 * One serialized PRAM die.
 */
class PramDevice
{
  public:
    explicit PramDevice(const PramParams &params = PramParams());

    const PramParams &params() const { return _params; }

    /**
     * Service a read beginning no earlier than @p when.
     *
     * The die serializes: if a write is still cooling off, the read
     * waits (the blocking behaviour LightPC-B exhibits).
     */
    AccessResult read(Tick when);

    /**
     * Service a write beginning no earlier than @p when.
     *
     * @param when         Earliest start time.
     * @param addr         Device-local byte address (wear tracking).
     * @param early_return When true the issuer considers the write
     *                     complete at acceptance (LightPC); the media
     *                     still stays busy for the cooling window.
     */
    AccessResult write(Tick when, Addr addr, bool early_return);

    /**
     * Service @p n early-return line writes, all issued at @p when
     * and all in the wear region of @p page_addr (a row-buffer
     * drain). Same result and state as n calls of
     * write(when, line_addr, true), in closed form: the media runs
     * them back to back, so with start = max(when, busyUntil()) the
     * die is busy until start + n * writeLatency and the k-th write
     * stalls start - when + k * writeLatency.
     *
     * @pre n > 0, and the media-fault model is off: it draws
     *      stuck-at faults at each line's own granule address, so
     *      fault-model drains must call write() per line.
     * @return The last write's result.
     */
    AccessResult writeBurst(Tick when, Addr page_addr, std::uint64_t n);

    /**
     * Service @p n reads, the first beginning no earlier than
     * @p when and each later one issued @p gap after the one before
     * completes (a PSM read run: gap is the bus hop). Same result
     * and state as those n calls of read(), in closed form: only the
     * first can wait on the die, so with start = max(when,
     * busyUntil()) the last read completes at
     * start + n * readLatency + (n - 1) * gap.
     *
     * @pre n > 0.
     * @return The last read's completion tick.
     */
    Tick readRun(Tick when, std::uint64_t n, Tick gap);

    /**
     * MemoryPort-style entry: service @p req starting no earlier
     * than @p when. Writes are synchronous (no early return) — the
     * PSM layers above decide when early-return semantics apply and
     * call write() directly.
     */
    AccessResult
    access(const MemRequest &req, Tick when)
    {
        if (req.op == MemOp::Read)
            return read(when);
        return write(when, req.addr, /*early_return=*/false);
    }

    /** Time at which the die becomes free. */
    Tick busyUntil() const { return _busyUntil; }

    /** True if the die would delay an access arriving at @p when. */
    bool busyAt(Tick when) const { return _busyUntil > when; }

    /** Total reads serviced. */
    std::uint64_t readCount() const { return reads; }

    /** Total writes serviced. */
    std::uint64_t writeCount() const { return writes; }

    /** Aggregate ticks requests spent waiting on a busy die. */
    Tick stallTicks() const { return stalled; }

    /** Per-region write counts (wear-leveling validation). */
    std::vector<std::uint64_t> wearByRegion() const;

    /** Largest per-region write count. */
    std::uint64_t maxRegionWear() const;

    /**
     * Per-region wear quantiles: one histogram sample per region,
     * value = the region's saturating write count. The fault model
     * and bench_ablation_wear_leveling read the same numbers.
     */
    stats::Histogram wearHistogram() const;

    /** Fold this die's per-region wear samples into @p hist. */
    void addWearSamples(stats::Histogram &hist) const;

    /** Fraction of endurance consumed at @p addr's region in [0,1]. */
    double wearFraction(Addr addr) const;

    /**
     * Remaining lifetime fraction of the most-worn region in [0, 1].
     */
    double lifetimeRemaining() const;

    // --- media-fault model ----------------------------------------

    /**
     * Re-seed the fault RNG (the PSM salts the configured seed per
     * service unit so dies do not replay each other's fault trace).
     */
    void seedFaults(std::uint64_t seed);

    /**
     * Sample the corruption of a 32 B granule read at device-local
     * address @p granule_addr. Transient flips are drawn fresh per
     * call; stuck symbols repeat until retireGranule()/reset().
     * Returns an empty sample when the model is disabled.
     */
    GranuleFaults sampleReadFaults(Addr granule_addr);

    /** Persistent stuck symbols recorded for one granule. */
    std::uint32_t stuckSymbols(Addr granule_addr) const;

    /**
     * Forget the stuck state of a granule (the line containing it
     * was retired; its traffic now lands on a spare).
     */
    void retireGranule(Addr granule_addr);

    /** Granules currently carrying at least one stuck symbol. */
    std::size_t stuckGranuleCount() const { return stuckMap.size(); }

    /**
     * Age the die: set every region's wear counter to @p cycles
     * (saturating), as if that many writes had landed uniformly.
     * Campaign pre-conditioning for wear-level sweeps.
     */
    void preWear(std::uint64_t cycles);

    /** Reset timing and wear state (the OC-PMEM reset port). */
    void reset();

  private:
    /** Wear regions per lazily allocated counter chunk. */
    static constexpr std::uint64_t wearChunkRegions = 64;

    /** Wear region of device-local address @p addr. */
    std::uint64_t regionOf(Addr addr) const
    {
        return wearRegions.mod(wearRegion.div(addr));
    }

    /** Regions in chunk @p c (the last one may be short). */
    std::uint64_t chunkRegions(std::uint64_t c) const
    {
        return std::min(wearChunkRegions,
                        regionCount - c * wearChunkRegions);
    }

    /** Write count of region @p region. */
    std::uint64_t regionWear(std::uint64_t region) const
    {
        const auto &chunk = wearChunks[region / wearChunkRegions];
        return chunk ? chunk[region % wearChunkRegions] : wearFloor;
    }

    /** @p n saturating wear increments for @p addr's region. */
    void recordWear(Addr addr, std::uint64_t n = 1);

    /** Stochastic stuck-at creation for a written granule. */
    void maybeStick(Addr granule_addr, double wear_fraction);

    PramParams _params;
    FastDiv wearRegion;   ///< divisor: wearRegionBytes
    FastDiv wearRegions;  ///< divisor: regionCount
    Tick _busyUntil = 0;
    Tick stalled = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /**
     * Per-region write counts, allocated a chunk of wearChunkRegions
     * at a time on a chunk's first write: a die is gigabytes of
     * regions and a short run writes few of them. A null chunk's
     * regions all hold wearFloor, the preWear() level.
     */
    std::vector<std::unique_ptr<std::uint64_t[]>> wearChunks;
    std::uint64_t regionCount = 0;
    std::uint64_t wearFloor = 0;

    /** Fault RNG (sampling order is part of the seeded trace). */
    Rng faultRng;
    /** P(>=1 transient flip per granule read), fixed at construction. */
    double pAnyFlip = 0.0;
    /** Granule address -> persistent stuck-symbol count. */
    std::unordered_map<Addr, std::uint32_t> stuckMap;
};

} // namespace lightpc::mem

#endif // LIGHTPC_MEM_PRAM_DEVICE_HH
