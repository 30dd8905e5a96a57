/**
 * @file
 * Persistent operation log in OC-PMEM (Persimmon-style psm_log).
 *
 * A cache-line-aligned circular buffer of fixed 64-byte records with
 * explicit persist ordering, designed so that a power cut at *any*
 * byte offset of any in-flight write leaves a recoverable log:
 *
 *  - The header, the head cursor, and the tail cursor live on three
 *    separate cache lines, so persisting one never tears another.
 *    Both cursors are single 8-byte stores — atomic under the
 *    durability cursor's torn-write model (<= 8-byte writes never
 *    tear).
 *  - Every record carries a sequence number derived from its virtual
 *    log offset plus an FNV-1a checksum over the rest of the record,
 *    written last. A torn record (the cursor tears exactly one
 *    in-flight line to a byte prefix) fails the checksum; a stale
 *    previous-lap record fails the sequence check. Either way the
 *    recovery scan stops exactly at the torn tail.
 *  - append() writes records past the committed tail without
 *    persisting any cursor; commit() persists the tail over the whole
 *    batch with one 8-byte store + fence (group commit) — the ack
 *    release point. pop()/persistHead() advance the drain cursor,
 *    volatile first, persisted once per drain batch.
 *
 * Persist-ordering invariant (what makes recovery sound): a slot is
 * never rewritten until the head persist covering its eviction has
 * completed, so the recovery scan — which starts at the *durable*
 * head — only ever sees fully-drained slots overwritten. And because
 * the tail is persisted strictly after every record it covers, a
 * durable tail implies durable records: the scan's valid run can end
 * short of the durable tail only if the protocol is broken.
 *
 * Virtual offsets are monotonic byte counts (physical slot = offset
 * mod capacity), so sequence numbers distinguish laps for free.
 */

#ifndef LIGHTPC_NET_OP_LOG_HH
#define LIGHTPC_NET_OP_LOG_HH

#include <cstdint>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "sim/ticks.hh"

namespace lightpc::net
{

/** Placement and sizing. */
struct OpLogParams
{
    /**
     * Region base on OC-PMEM (cache-line aligned). 0 lets the owner
     * derive it (KvService places the log right after its pool).
     */
    mem::Addr base = 0;

    /** Data-region bytes (multiple of the record size). */
    std::uint64_t capacity = std::uint64_t(1) << 20;
};

/**
 * One log entry: exactly one cache line, so a record write is one
 * line-granular store and the cursor's torn-prefix model applies to
 * it directly. The checksum covers every preceding byte and is
 * written as part of the same line store; `seq` is assigned by
 * append() from the record's virtual offset.
 */
struct OpRecord
{
    std::uint64_t seq = 0;       ///< virt/64 + 1 (lap-disambiguating)
    std::uint64_t reqId = 0;
    std::uint64_t key = 0;
    std::uint64_t valueSeed = 0;
    std::uint64_t version = 0;   ///< key version assigned at append
    std::uint32_t client = 0;
    std::uint32_t pad0 = 0;
    std::uint64_t appendedAt = 0; ///< service tick of the append
    std::uint64_t checksum = 0;  ///< FNV-1a over the first 56 bytes
};

static_assert(sizeof(OpRecord) == 64,
              "OpRecord must fill one cache line");

/** Log-side counters. */
struct OpLogStats
{
    std::uint64_t appends = 0;
    std::uint64_t commits = 0;       ///< tail persists (group commits)
    std::uint64_t pops = 0;          ///< records drained
    std::uint64_t headPersists = 0;
    std::uint64_t checksumStops = 0; ///< scans ended by a torn record
    std::uint64_t seqStops = 0;      ///< scans ended by a stale lap
};

/** What one recovery scan found. */
struct OpLogRecovery
{
    std::uint64_t headVirt = 0;     ///< durable head at scan start
    std::uint64_t tailVirt = 0;     ///< durable committed tail
    std::uint64_t scanEndVirt = 0;  ///< end of the valid record run
    /**
     * scanEndVirt >= tailVirt: every committed record was found
     * intact. False would mean an acked record tore — a protocol
     * violation, never a legal crash outcome.
     */
    bool tailCovered = false;
    std::vector<OpRecord> records;  ///< valid run, log order
};

/**
 * The log. All functional writes go through the TimedMem (and thus
 * the backing store's durability cursor) with the store's write
 * clock advanced to the caller's tick first, so an armed power cut
 * drops or tears them exactly as the rails would.
 */
class OpLog
{
  public:
    static constexpr std::uint64_t recordBytes = sizeof(OpRecord);

    OpLog(mem::BackingStore &store, mem::TimedMem &timed,
          const OpLogParams &params);

    const OpLogParams &params() const { return _params; }
    const OpLogStats &stats() const { return _stats; }

    /** FNV-1a over the first 56 record bytes (checksum input). */
    static std::uint64_t checksumOf(const OpRecord &rec);

    // --- lifecycle ------------------------------------------------

    /** Initialize a fresh log: header + zero cursors, persisted. */
    void format(Tick &t);

    /**
     * Attach to an existing region: read the header and the durable
     * cursors. @return false when no valid header is present (the
     * caller should format()).
     */
    bool attach(Tick &t);

    // --- producer side --------------------------------------------

    /**
     * True when appending one more record would rewrite a slot not
     * yet covered by a *persisted* head — the caller must drain and
     * persist the head before appending (stall drain).
     */
    bool wouldBlock() const
    {
        return appendCursor + recordBytes - persistedHead
            > _params.capacity;
    }

    /**
     * Append one record past the committed tail. Assigns seq and
     * checksum; @return the assigned sequence number. The record is
     * NOT durable-on-ack until the next commit().
     */
    std::uint64_t append(Tick &t, OpRecord rec);

    /** Records appended but not yet covered by a commit. */
    std::uint64_t
    uncommittedRecords() const
    {
        return (appendCursor - tail) / recordBytes;
    }

    /**
     * Group commit: persist the tail over every appended record
     * (one 8-byte store) and fence. Acks release after this returns.
     */
    void commit(Tick &t);

    /** True when the record at @p virt is covered by a commit. */
    bool
    committedThrough(std::uint64_t seq) const
    {
        return seq * recordBytes <= tail;
    }

    // --- consumer side --------------------------------------------

    /** Committed records not yet popped (the drain backlog). */
    std::uint64_t
    backlogRecords() const
    {
        return (tail - head) / recordBytes;
    }

    /** Functional + timed read of the record at the drain head. */
    OpRecord readHead(Tick &t);

    /** Advance the volatile drain head one record. */
    void pop();

    /**
     * Persist the drain head (one 8-byte store) + fence. Called once
     * per drain batch; the lag is safe because replay after a crash
     * is idempotent through the request-ID dedup set.
     */
    void persistHead(Tick &t);

    // --- crash recovery -------------------------------------------

    /**
     * Re-read the durable cursors and scan forward from the durable
     * head, validating checksum + sequence per record; the scan stops
     * at the torn tail (first invalid line). On return the volatile
     * cursors are rebuilt: head at the durable head, tail and append
     * cursor at the end of the valid run — durable-but-uncommitted
     * records are replayed too (their acks never released, and replay
     * is idempotent).
     */
    OpLogRecovery recover(Tick &t);

    /**
     * After the caller replayed every recovered record: mark the log
     * drained and persist both cursors.
     */
    void resetAfterReplay(Tick &t);

    // --- cursors (oracle / tests) ---------------------------------

    std::uint64_t headVirt() const { return head; }
    std::uint64_t persistedHeadVirt() const { return persistedHead; }
    std::uint64_t tailVirt() const { return tail; }

    mem::Addr headAddr() const { return _params.base + 64; }
    mem::Addr tailAddr() const { return _params.base + 128; }
    mem::Addr dataAddr() const { return _params.base + 192; }

    /** Physical address of the slot holding virtual offset @p virt. */
    mem::Addr
    slotAddr(std::uint64_t virt) const
    {
        return dataAddr() + virt % _params.capacity;
    }

  private:
    struct Header
    {
        std::uint64_t magic = 0;
        std::uint64_t capacity = 0;
        std::uint64_t pad[6] = {};
    };
    static_assert(sizeof(Header) == 64, "header fills one line");

    static constexpr std::uint64_t logMagic =
        0x4f504c4f475f5631ULL;  // "OPLOG_V1"

    void clock(Tick t) { store.setWriteClock(t); }

    mem::BackingStore &store;
    mem::TimedMem &timed;
    OpLogParams _params;
    OpLogStats _stats;

    // Virtual (monotonic) byte cursors; physical = virt % capacity.
    std::uint64_t head = 0;           ///< volatile drain cursor
    std::uint64_t persistedHead = 0;  ///< last head value persisted
    std::uint64_t tail = 0;           ///< committed boundary
    std::uint64_t appendCursor = 0;   ///< volatile append cursor
};

} // namespace lightpc::net

#endif // LIGHTPC_NET_OP_LOG_HH
