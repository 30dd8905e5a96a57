/**
 * @file
 * The orthogonal-persistence baselines (Section VI):
 *
 *  - SysPC: system images. Execution runs unencumbered on LegacyPC;
 *    on a power event the whole system image (every process
 *    footprint + kernel) is dumped to OC-PMEM, and recovery loads it
 *    back. The dump takes seconds — orders of magnitude past any
 *    PSU hold-up time (Fig. 20) — so it needs external energy.
 *
 *  - S-CheckPC: system-level checkpoint-restart (BLCR [60]). A kernel
 *    service periodically dumps the target's vm_area_struct spans to
 *    OC-PMEM; execution is quiesced during each dump (stop-the-world
 *    first-order model).
 *
 *  - A-CheckPC: application-level checkpoint-restart (based on
 *    user-level HPC checkpointing [59]). At the end of every
 *    function the touched stack/heap bytes are copied DRAM ->
 *    OC-PMEM *synchronously*, stalling the benchmark. ACheckPcStream
 *    models that as an instruction-stream decorator that interleaves
 *    real copy loads/stores, so the slowdown arises in the memory
 *    system.
 *
 * All three persist the same way, so one engine, ImageCheckpoint,
 * runs their dumps and recovery. It is built from one of three
 * constant kinds (sysPcKind, sCheckPcKind, aCheckPcKind) that differ
 * only in data: the per-page dump cost, the ledger and body-slot
 * addresses, and whether recovery always pays the cold reboot.
 * A/S-CheckPC cannot capture kernel state or machine-mode registers,
 * so their power recovery pays a cold reboot before the restart
 * (Fig. 21a's IPC spike).
 */

#ifndef LIGHTPC_PERSIST_CHECKPOINT_HH
#define LIGHTPC_PERSIST_CHECKPOINT_HH

#include <cstdint>
#include <memory>

#include "cpu/instr.hh"
#include "mem/timed_mem.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace lightpc::persist
{

/**
 * Durable commit ledger shared by the image-based baselines.
 *
 * A checkpoint only protects against power loss if its *commit* is
 * crash-consistent: the body must be fully on media before the
 * record that names it becomes visible, and a record torn by the
 * rails falling mid-write must be detectable. The ledger keeps two
 * alternating single-line commit records (so the previous commit
 * survives while the next one is being written) and checksums each
 * record so a torn write reads as "no commit" instead of garbage.
 */
class CheckpointLedger
{
  public:
    struct Record
    {
        std::uint64_t magic = 0;
        std::uint64_t seq = 0;       ///< 1-based commit sequence
        std::uint64_t slot = 0;      ///< body slot the record names
        std::uint64_t bytes = 0;     ///< body length
        std::uint64_t bodySeed = 0;  ///< body pattern seed
        std::uint64_t checksum = 0;

        bool valid() const;
    };

    static constexpr std::uint64_t recordMagic =
        0x434b50544c646731ULL;  // "CKPTLdg1"

    CheckpointLedger(mem::TimedMem &pmem, mem::Addr base)
        : pmem(pmem), base(base)
    {}

    static std::uint64_t checksumOf(const Record &record);

    /**
     * Write the commit record for @p seq. The caller must have
     * fenced the body first. @return the post-fence completion tick;
     * the record write's own completion (which decides durability)
     * is in lastCommitAt().
     */
    Tick commit(Tick when, std::uint64_t seq, std::uint64_t slot,
                std::uint64_t bytes, std::uint64_t body_seed);

    /**
     * The highest-sequence checksum-valid record (default-
     * constructed, seq 0, when none survived).
     */
    Record latest();

    /** Completion tick of the most recent commit-record write. */
    Tick lastCommitAt() const { return _lastCommitAt; }

    /** Record line for @p seq (records alternate between two lines). */
    mem::Addr
    recordAddr(std::uint64_t seq) const
    {
        return base + (seq & 1) * mem::cacheLineBytes;
    }

  private:
    mem::TimedMem &pmem;
    mem::Addr base;
    Tick _lastCommitAt = 0;
};

/**
 * Deterministic body pattern, functional + timed: lets recovery
 * verify byte-exactly that a committed image is untorn.
 */
Tick writeBodyPattern(mem::TimedMem &pmem, Tick when, mem::Addr addr,
                      std::uint64_t len, std::uint64_t seed);

/** True when @p len bytes at @p addr match the seeded pattern. */
bool verifyBodyPattern(const mem::BackingStore &store, mem::Addr addr,
                       std::uint64_t len, std::uint64_t seed);

/** Costs shared by the image-based baselines. */
struct ImageCosts
{
    /** Snapshot/copy handling per 4 KB page on dump. */
    Tick dumpPerPage = 5 * tickUs;

    /** Page restore handling on load. */
    Tick loadPerPage = 1500 * tickNs;

    /** Cold reboot (kernel boot + driver probe) after power loss. */
    Tick coldReboot = 1500 * tickMs;
};

/** Parameters of the per-function checkpoint decorator. */
struct ACheckPcParams
{
    /** Mean dynamic instructions per function body. */
    double meanFunctionInstr = 2000.0;

    /** Mean stack+heap bytes dumped per checkpoint. */
    static constexpr double meanCheckpointBytes = 18000.0;

    /** Where the process data lives (DRAM on LegacyPC). */
    static constexpr mem::Addr dramBase = 0x4000000;

    /** Where checkpoints are written (OC-PMEM region). */
    static constexpr mem::Addr pmemBase = std::uint64_t(1) << 41;

    std::uint64_t seed = 97;
};

/** Where every timing-only dump and load lands. */
inline constexpr mem::Addr imageBase = std::uint64_t(1) << 40;

/**
 * What sets one image baseline apart: its dump handling, where its
 * ledger and body slots live, and whether recovery pays the cold
 * reboot even when an image survives.
 */
struct ImageKind
{
    const char *name;          ///< as the campaigns print it
    Tick dumpPerPage;          ///< dump handling per 4 KB page
    mem::Addr ledgerBase;      ///< the two commit-record lines
    mem::Addr slotBase;        ///< body slot 0; slot 1 follows
    std::uint64_t slotStride;  ///< bytes between the two body slots
    bool rebootsFirst;         ///< recovery always pays the reboot
};

/** SysPC: a hibernate snapshot; recovery skips the reboot. */
inline constexpr ImageKind sysPcKind{
    "SysPC", ImageCosts{}.dumpPerPage, imageBase - 4096, imageBase,
    std::uint64_t(1) << 32, false};

/**
 * S-CheckPC: BLCR walks vm_area_structs, lighter handling than a
 * hibernate snapshot. Its ledger and slots sit beside SysPC's.
 */
inline constexpr ImageKind sCheckPcKind{
    "S-CheckPC", ImageCosts{}.dumpPerPage / 4, imageBase - 8192,
    imageBase + (std::uint64_t(2) << 32), std::uint64_t(1) << 32, true};

/**
 * A-CheckPC: a per-function capture, copied without page handling.
 * Its ledger opens the checkpoint region; two 1 MiB slots follow.
 */
inline constexpr ImageKind aCheckPcKind{
    "A-CheckPC", 0, ACheckPcParams::pmemBase,
    ACheckPcParams::pmemBase + (1 << 20), 1 << 20, true};

/**
 * One image baseline's dumps and recovery, shaped by its ImageKind.
 *
 * Timing-only dump()/load() charge the page handling and the media
 * traffic of an image at imageBase. dumpCommitted() runs the
 * crash-consistent protocol: the pattern-filled body goes into the
 * slot for the next sequence number, a fence, then the ledger record.
 * recover() loads the newest record whose body verifies.
 */
class ImageCheckpoint
{
  public:
    ImageCheckpoint(mem::TimedMem &pmem, const ImageKind &kind)
        : pmem(pmem), kind(kind), _ledger(pmem, kind.ledgerBase)
    {}

    /** Timing-only dump of @p bytes. @return completion tick. */
    Tick dump(Tick when, std::uint64_t bytes);

    /** Timing-only load of @p bytes. @return completion tick. */
    Tick load(Tick when, std::uint64_t bytes);

    /**
     * Crash-consistent dump of @p bytes. Only the first 64 KB of the
     * body move real bytes (enough to detect tears); the rest is
     * charged timing-only.
     *
     * @return completion tick. The commit-record write's own
     * completion — what decides durability under a cut — is in
     * lastCommitAt().
     */
    Tick dumpCommitted(Tick when, std::uint64_t bytes,
                       std::uint64_t body_seed);

    /**
     * Power-up recovery: load the newest durable image whose body
     * verifies, or cold-boot when none survived. Kinds that reboot
     * first pay the cold reboot either way. recoveredSeq() tells
     * which commit was restored (0 = none).
     */
    Tick recover(Tick when);

    /** The latest durable, checksum-valid commit record. */
    CheckpointLedger::Record latestCommit() { return _ledger.latest(); }

    /** Byte-exact body-prefix check of @p record's slot. */
    bool intact(const CheckpointLedger::Record &record);

    /** Body slot @p slot (0 or 1). */
    mem::Addr
    slotAddr(std::uint64_t slot) const
    {
        return kind.slotBase + slot * kind.slotStride;
    }

    /** Body done (post-fence) tick of the last committed dump. */
    Tick lastBodyDoneAt() const { return _lastBodyDoneAt; }

    /** Commit-record write completion of the last committed dump. */
    Tick lastCommitAt() const { return _ledger.lastCommitAt(); }

    /** Sequence restored by the last recover(); 0 = none. */
    std::uint64_t recoveredSeq() const { return _recoveredSeq; }

  private:
    mem::TimedMem &pmem;
    const ImageKind kind;
    CheckpointLedger _ledger;
    std::uint64_t _seq = 0;
    Tick _lastBodyDoneAt = 0;
    std::uint64_t _recoveredSeq = 0;
};

/**
 * A-CheckPC: interleaves synchronous checkpoint copies into an
 * instruction stream at function boundaries.
 */
class ACheckPcStream : public cpu::InstrStream
{
  public:
    ACheckPcStream(cpu::InstrStream &inner,
                   const ACheckPcParams &params = ACheckPcParams());

    bool next(cpu::Instr &out) override;

    /** Checkpoints emitted so far. */
    std::uint64_t checkpoints() const { return _checkpoints; }

    /** Copy bytes emitted so far. */
    std::uint64_t copiedBytes() const { return _copiedBytes; }

  private:
    void startCheckpoint();

    cpu::InstrStream &inner;
    ACheckPcParams params;
    Rng rng;
    std::uint64_t untilCheckpoint;
    std::uint64_t copyLinesLeft = 0;
    bool copyPhaseIsLoad = true;
    mem::Addr copySrc = 0;
    mem::Addr copyDst = 0;
    std::uint64_t _checkpoints = 0;
    std::uint64_t _copiedBytes = 0;
};

} // namespace lightpc::persist

#endif // LIGHTPC_PERSIST_CHECKPOINT_HH
