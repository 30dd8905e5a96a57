/**
 * @file
 * Persistent Support Module (Section V-A).
 *
 * The PSM sits between the processor complex and the Bare-NVDIMMs,
 * exposing the conventional read/write ports plus the two persistence
 * ports: flush (drain row buffers and fence all outstanding media
 * work — the "memory synchronization" SnG relies on) and reset (wipe
 * OC-PMEM after an uncontainable error).
 *
 * Conflict management (the LightPC vs LightPC-B distinction):
 *
 *  - Early-return writes: a write completes toward the issuer as soon
 *    as the row buffer accepts it; the PRAM cooling window proceeds
 *    in the background. LightPC-B instead holds the issuer until the
 *    media write completes.
 *
 *  - XCC read reconstruction: a read targeting a group that is busy
 *    cooling off a write is regenerated from the paired half and the
 *    ECC device in one read latency + one XOR cycle, instead of
 *    queueing behind the write (the head-of-line blocking LightPC-B
 *    suffers in Fig. 16).
 *
 * Reliability: Start-Gap wear leveling rotates the line address
 * space every `writeThreshold` writes (plus a static randomizer),
 * and XCC provides half-line reconstruction for large-granularity
 * faults with an error containment bit that raises an MCE.
 */

#ifndef LIGHTPC_PSM_PSM_HH
#define LIGHTPC_PSM_PSM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/memory_port.hh"
#include "mem/request.hh"
#include "psm/bare_nvdimm.hh"
#include "psm/retire.hh"
#include "psm/start_gap.hh"
#include "psm/symbol_ecc.hh"
#include "sim/fast_div.hh"
#include "stats/histogram.hh"

namespace lightpc::psm
{

/** Host reaction to an uncorrectable (containment) fault. */
enum class McePolicy
{
    /** Reset OC-PMEM and cold-boot (the paper's current version). */
    ResetColdBoot,
    /** Contain: fail the access, let the OS kill the owning task. */
    Contain,
};

/** Configuration of the PSM and its channels. */
struct PsmParams
{
    /** Number of Bare-NVDIMMs behind the PSM (prototype: six). */
    std::uint32_t dimms = 6;

    /** Per-DIMM geometry and device timing. */
    BareNvdimmParams dimm;

    /** Front-side bus (AXI crossbar) latency per access. */
    Tick busLatency = 10 * tickNs;

    /** Row-buffer hit service latency. */
    Tick rowBufferLatency = 5 * tickNs;

    /** XCC XOR stage: one cycle of fully combinational logic. */
    Tick xorLatency = 1 * tickNs;

    /** Row buffer (open page) size per group, in bytes. */
    std::uint64_t rowBufferBytes = 2048;

    /** LightPC: writes complete at row-buffer acceptance. */
    bool earlyReturnWrites = true;

    /** LightPC: reads to busy groups reconstruct via XCC. */
    bool eccReconstruction = true;

    /** Enable Start-Gap wear leveling. */
    bool wearLeveling = true;

    /** Gap movement period in writes. */
    std::uint64_t wearThreshold = 100;

    /** Static randomizer seed. */
    std::uint64_t wearSeed = 0x5eedf00dULL;

    /**
     * Machine-check policy when XCC cannot contain a fault
     * (Section V-A: "the MCE handler can be implemented in various
     * ways"). ResetColdBoot is the paper's current version.
     */
    McePolicy mcePolicy = McePolicy::ResetColdBoot;

    /**
     * Section VIII future work: fall back to the symbol-based
     * erasure code when two or more devices of a pair are dead,
     * instead of containing. Costs symbolEccLatency per repaired
     * read.
     */
    bool symbolEccFallback = false;
    Tick symbolEccLatency = 150 * tickNs;

    /**
     * Physical line slots carved from the top of the managed space
     * as a retirement spare pool (graceful degradation for media
     * that has started sticking). Zero disables retirement.
     */
    std::uint64_t spareLines = 0;
};

/** Aggregated PSM statistics. */
struct PsmStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowBufferReadHits = 0;
    std::uint64_t rowBufferWriteHits = 0;
    std::uint64_t reconstructedReads = 0;
    std::uint64_t blockedReads = 0;
    Tick readStallTicks = 0;
    std::uint64_t wearMoves = 0;
    std::uint64_t flushes = 0;
    /** Quiescence tick returned by the most recent flush. */
    Tick lastFlushQuiescentAt = 0;
    std::uint64_t mceCount = 0;
    std::uint64_t correctedReads = 0;     ///< XCC half-line repairs
    std::uint64_t symbolCorrections = 0;  ///< symbol-ECC fallbacks
    std::uint64_t resets = 0;             ///< MCE-triggered resets

    // --- media-error RAS pipeline ---------------------------------
    /** Reads whose codeword was actually decoded (faults enabled). */
    std::uint64_t rasCheckedReads = 0;
    /** Decoded data disagreed with ground truth: silent corruption.
     *  The RAS invariant is that this stays exactly zero. */
    std::uint64_t sdcEvents = 0;
    /** Corrupted parity granules rewritten in place (scrub-on-read). */
    std::uint64_t parityRewrites = 0;
    /** Physical line slots moved to the spare pool. */
    std::uint64_t retiredLines = 0;
    /** Retirements skipped because the spare pool was empty. */
    std::uint64_t spareExhausted = 0;
    /** Lines checked by the patrol scrubber. */
    std::uint64_t scrubbedLines = 0;
    /** Scrub passes that rewrote a line to clear transient faults. */
    std::uint64_t scrubRepairs = 0;
    /** Scrub steps skipped because the service unit was busy. */
    std::uint64_t scrubDeferrals = 0;
    /** Uncorrectable codewords detected (containment raised). */
    std::uint64_t uncorrectableReads = 0;

    bool operator==(const PsmStats &) const = default;
};

/**
 * The PSM controller.
 */
class Psm
{
  public:
    explicit Psm(const PsmParams &params = PsmParams());

    const PsmParams &params() const { return _params; }

    /** Total OC-PMEM capacity in bytes. */
    std::uint64_t capacityBytes() const { return capacity; }

    /** Logical 64 B lines managed (excludes the spare pool). */
    std::uint64_t managedLines() const { return lineCount; }

    /** Independent service units (dimms x groups per DIMM). */
    std::uint32_t serviceUnits() const { return units; }

    /** Service one line-sized access starting no earlier than @p when. */
    mem::AccessResult access(const mem::MemRequest &req, Tick when);

    /**
     * Service @p lines back-to-back line accesses from the line at
     * @p first_line, each issued when the previous one completes:
     * MemoryPort::accessLines with the address decoded once. The
     * walk wraps at managedLines() as access() does. Ticks,
     * statistics and device state are those of one access() per line.
     *
     * The walk routes once per run: a stretch of lines that share a
     * service unit and row page at consecutive physical slots
     * (StartGap::remapRun, cut at the row page's end, and one line
     * long while any slot is retired). Inside a run it steps the
     * route, and it routes again after a gap move or a retirement.
     * Each run's first line goes through the per-line body. With
     * early-return writes it leaves the run's page open, so the
     * following writes that move no gap are row-buffer hits and are
     * retired in closed form (absorbWriteHits). With the media-fault
     * model off, the following reads of a unit without injected
     * faults are retired in closed form too (absorbReads), up to the
     * first line the open row buffer holds dirty. LightPC-B writes
     * and every fault-model access stay per line.
     *
     * @return The completion tick of the last line (@p when if none).
     */
    Tick accessLines(mem::MemOp op, mem::Addr first_line,
                     std::uint64_t lines, Tick when);

    /**
     * Flush port: close every dirty row buffer and fence until all
     * media work (including background early-return writes) retires.
     *
     * @return The tick at which OC-PMEM is quiescent.
     */
    Tick flush(Tick when);

    /**
     * Reset port: wipe timing/wear state; the host performs a cold
     * boot afterwards (the current MCE containment policy).
     */
    void resetPort();

    /** Record a detected uncorrectable fault (containment bit). */
    void raiseMce() { ++_stats.mceCount; }

    // --- patrol scrub / retirement --------------------------------

    /** Outcome of one patrol-scrub visit to a line. */
    struct ScrubOutcome
    {
        /** The line was actually checked (false: deferred, retry). */
        bool serviced = false;
        /** Stuck media moved the line's slot to a spare. */
        bool retired = false;
    };

    /**
     * Patrol-scrub one logical line: read its codeword in an idle
     * row-buffer slot, rewrite it if transiently corrupted, retire
     * its physical slot if the media has stuck symbols, and raise
     * containment when the codeword is beyond both ECC tiers.
     *
     * Returns serviced = false (and touches nothing) when the line's
     * service unit is busy or its row buffer holds the line dirty —
     * the scrubber only uses idle slots and retries later.
     *
     * @pre logical_line < managedLines().
     */
    ScrubOutcome scrubLine(std::uint64_t logical_line, Tick when);

    /** The retirement/remap table (inspection). */
    const RetireTable &retireTable() const { return retire; }

    /**
     * MCE-handler service: retire the physical slot currently
     * serving @p addr (a containment fault the host chose to
     * contain rather than reset away). The slot's data is lost —
     * the handler kills the owning task — but the slot itself is
     * taken out of service so the address stays usable.
     *
     * @return false when the spare pool is exhausted.
     */
    bool retireFaultyLine(mem::Addr addr, Tick when);

    /**
     * Aggregate per-region wear quantiles across every device group
     * (one histogram sample per wear region; saturating counts).
     */
    stats::Histogram wearHistogram() const;

    // --- reliability: fault injection and handling ----------------

    /**
     * Mark one 32 B half-device of a group permanently bad (large-
     * granularity fault). Reads to the unit then take the XCC
     * repair path; with both halves bad they take the symbol-ECC
     * fallback or raise containment.
     *
     * @param half 0 or 1 within the dual-channel group.
     */
    void injectFault(std::uint32_t dimm, std::uint32_t group,
                     std::uint32_t half);

    /** Heal all injected faults (device replacement). */
    void clearFaults();

    /** Currently-faulty half-devices. */
    std::uint32_t faultCount() const;

    /**
     * Host machine-check path for a containment result. Under
     * ResetColdBoot wipes OC-PMEM via the reset port and reports
     * true (the system must cold-boot); under Contain returns false
     * (the OS kills the owning task and continues).
     */
    bool handleContainment();

    /**
     * Wipe OC-PMEM via the reset port while preserving the MCE and
     * reset counters across the wipe. This is the containment reset
     * handleContainment() takes under ResetColdBoot; the MCE handler
     * also takes it directly when a kernel-side machine check under
     * Contain forces a cold boot anyway.
     */
    void containmentReset();

    /**
     * Section VIII future work: rotate the static randomizer seed
     * to break adversarial write patterns. The media must be
     * migrated to the new mapping; the (timed) migration cost is
     * returned via the completion tick.
     *
     * @return The tick at which the migration completes.
     */
    Tick reseedWearLeveler(Tick when, std::uint64_t new_seed);

    /** Running statistics. */
    const PsmStats &stats() const { return _stats; }

    /** Read latency distribution (processor-visible). */
    const stats::Histogram &readLatencyHist() const { return readHist; }

    /** The wear-leveler registers (persisted at the EP-cut). */
    StartGapState saveWearState() const { return wearLevel->save(); }

    /** Restore wear-leveler registers after power recovery. */
    void restoreWearState(const StartGapState &s)
    {
        wearLevel->restore(s);
    }

    /** Direct access to a DIMM (tests, wear inspection). */
    BareNvdimm &dimm(std::uint32_t idx) { return *nvdimms[idx]; }
    const BareNvdimm &dimm(std::uint32_t idx) const
    {
        return *nvdimms[idx];
    }

    /** Reset statistics only (between benchmark phases). */
    void resetStats();

  private:
    /** Where a physical line lives. */
    struct Route
    {
        std::uint32_t dimm;
        std::uint32_t group;
        std::uint32_t unit;    ///< global service-unit index
        mem::Addr localAddr;   ///< byte offset within the group
        std::uint64_t page;    ///< group-local row-buffer page index
        std::uint32_t lineInPage;
        /** Start-Gap output slot (the retirement-table key); the
         *  addressing fields above reflect any retirement remap. */
        std::uint64_t slot;
    };

    /** Per-group open-page write aggregation. */
    struct RowBuffer
    {
        /** One bit per line of the open page. */
        std::uint64_t dirtyMask = 0;
        std::uint64_t openPage = ~std::uint64_t(0);
        mem::Addr pageAddr = 0;
    };

    /** Logical line of byte address @p addr (wraps at lineCount). */
    std::uint64_t logicalLine(mem::Addr addr) const
    {
        return lineDecode.mod(addr / mem::cacheLineBytes);
    }

    Route route(std::uint64_t logical_line) const;
    Route routePhysical(std::uint64_t physical_line) const;

    /**
     * route() that also sets @p run to how many lines from
     * @p logical_line onward sit at consecutive slots of the same row
     * page (see accessLines()).
     */
    Route routeRun(std::uint64_t logical_line, std::uint64_t &run) const;

    /** Move @p r on by @p lines slots inside its row page. */
    static void stepRoute(Route &r, std::uint64_t lines)
    {
        r.slot += lines;
        r.lineInPage += static_cast<std::uint32_t>(lines);
        r.localAddr += lines * mem::cacheLineBytes;
    }

    /** Gap moves plus retirements: changes when any route may. */
    std::uint64_t mappingEpoch() const
    {
        return wearLevel->totalMoves() + retire.retiredCount();
    }

    /** access() of one logical line: route() plus serveLine(). */
    mem::AccessResult accessLine(mem::MemOp op,
                                 std::uint64_t logical_line, Tick when);

    /** The per-line body of access() and accessLines(). */
    mem::AccessResult serveLine(mem::MemOp op, const Route &r, Tick when);

    /**
     * Early-return writes to the @p lines lines from @p r onward,
     * all on @p r's open row page and moving no gap: the row-buffer
     * hits serveLine() would count, in closed form.
     *
     * @return The completion tick of the last of them.
     */
    Tick absorbWriteHits(const Route &r, std::uint64_t lines, Tick when);

    /**
     * Reads of up to @p lines lines from @p r onward, each issued
     * when the one before completes, in closed form: first the
     * reads that find the die cooling, rebuilt on the ECC lane at
     * busLatency + readLatency + xorLatency each, then steady media
     * reads at busLatency + readLatency each. Stops short of the
     * first line the open row buffer holds dirty (a forward).
     *
     * @pre The media-fault model is off.
     * @param when Issue tick of the first read; set to the last
     *             read's completion.
     * @return Lines retired: 0 when the next line must take the
     *         per-line body (injected unit faults, a forward, a
     *         blocking die, or an ECC lane busy past the first
     *         rebuild's start).
     */
    std::uint64_t absorbReads(const Route &r, std::uint64_t lines,
                              Tick &when);

    mem::PramDevice &unitDevice(const Route &r);

    /** Re-salt every unit's fault RNG (construction and reset). */
    void seedUnitFaultRngs();

    /**
     * Close a dirty row buffer, emitting its media write: one device
     * burst when burstDrain holds, else one write per dirty line.
     */
    mem::AccessResult closeRowBuffer(std::uint32_t unit, Tick when);

    /** Sampled media state of one line's three codeword lanes. */
    struct LineFaults
    {
        mem::GranuleFaults a;  ///< half A (localAddr)
        mem::GranuleFaults b;  ///< half B (localAddr + 32)
        mem::GranuleFaults p;  ///< parity granule (ECC device)
        bool anyStuck() const
        {
            return a.stuck || b.stuck || p.stuck;
        }
        bool any() const { return a.any() || b.any() || p.any(); }
    };

    /** Device-local key of a line's parity granule. */
    static mem::Addr parityKey(mem::Addr local_addr)
    {
        return local_addr | mem::pramParityTag;
    }

    /** Draw the media-fault state of the line at @p r. */
    LineFaults sampleLineFaults(const Route &r);

    /**
     * Decode one line's codeword through the real codecs against
     * synthesized ground truth. Updates correction/SDC statistics
     * and @p result's corrected/containment flags, and extends
     * @p result.completeAt by the decode latency consumed.
     *
     * @return true when the line's physical slot should be retired
     *         (persistent stuck symbols survived the decode).
     */
    bool rasDecodeLine(const Route &r, const LineFaults &lf,
                       mem::AccessResult &result);

    /**
     * Move @p r's physical slot to a spare and forget its stuck
     * media state; the displaced data is copied over with one
     * background line write. No-op when the pool is exhausted.
     */
    void retireSlot(const Route &r, Tick when);

    PsmParams _params;
    std::uint64_t capacity;
    std::uint64_t lineCount;
    std::uint32_t units;
    /** Per-access routing divisors, fixed at construction. */
    FastDiv lineDecode;    ///< divisor: lineCount
    FastDiv pageDecode;    ///< divisor: rowBufferBytes / cacheLineBytes
    FastDiv unitDecode;    ///< divisor: units
    FastDiv groupDecode;   ///< divisor: groups per DIMM
    /**
     * Row-buffer drains may use PramDevice::writeBurst: the fault
     * model is off (it draws faults per line granule), the layout
     * needs no read-modify-write, and no row page straddles a wear
     * region.
     */
    bool burstDrain = false;
    std::vector<std::unique_ptr<BareNvdimm>> nvdimms;
    std::vector<RowBuffer> rowBuffers;
    /** Reconstruction lanes: one ECC timeline per two groups. */
    std::vector<Tick> eccBusyUntil;
    /** Per-unit fault flags: bit 0 = half A bad, bit 1 = half B. */
    std::vector<std::uint8_t> unitFaults;
    std::unique_ptr<StartGap> wearLevel;
    /** Physical-slot retirement table (after Start-Gap). */
    RetireTable retire{0, 0};
    /** Symbol tier for the two-erasure fallback (lazily built). */
    std::unique_ptr<SymbolEcc> symbolTier;
    PsmStats _stats;
    stats::Histogram readHist;
};

/**
 * A MemoryPort view of a Psm: line accesses go to its read/write
 * ports, and a fence is its flush port. TimedMem drives the PSM
 * through it.
 */
class PsmPort final : public mem::MemoryPort
{
  public:
    explicit PsmPort(Psm &psm) : psm(psm) {}

    mem::AccessResult
    access(const mem::MemRequest &req, Tick when) override
    {
        return psm.access(req, when);
    }

    Tick
    accessLines(mem::MemOp op, mem::Addr first_line,
                std::uint64_t lines, Tick when) override
    {
        return psm.accessLines(op, first_line, lines, when);
    }

    Tick fence(Tick when) override { return psm.flush(when); }

  private:
    Psm &psm;
};

} // namespace lightpc::psm

#endif // LIGHTPC_PSM_PSM_HH
