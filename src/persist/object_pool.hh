/**
 * @file
 * A libpmemobj-style persistent object store (Section II-B, Fig. 3).
 *
 * Applications on conventional PMEM platforms manage persistence
 * through PMDK's libpmemobj: data lives in *objects* named by
 * persistent pointers (pool-relative offsets, not process VAs), a
 * root object anchors the graph, and durability requires explicit
 * transactions whose commit path flushes the touched cachelines
 * (pmem_persist).
 *
 * This implementation is functional *and* crash-consistent: object
 * data and allocator metadata live in a BackingStore region, updates
 * inside a transaction are undo-logged, and recovery after a crash
 * rolls uncommitted transactions back. Timing is charged through a
 * cost model (pointer swizzling per direct() call, logging per
 * range, cacheline flush loops per commit) so the Fig. 4 object/
 * trans-mode overheads arise from executed mechanism, not a fudge
 * factor.
 */

#ifndef LIGHTPC_PERSIST_OBJECT_POOL_HH
#define LIGHTPC_PERSIST_OBJECT_POOL_HH

#include <cstdint>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "sim/ticks.hh"

namespace lightpc::persist
{

/** A persistent pointer: pool-relative offset (0 = null). */
struct ObjectId
{
    std::uint64_t offset = 0;

    bool valid() const { return offset != 0; }
    bool operator==(const ObjectId &other) const = default;
};

/** Timing costs of the PMDK-like runtime paths. */
struct PoolCosts
{
    /** Offset -> VA swizzle per object access (software). */
    Tick swizzle = 20 * tickNs;

    /** Allocator metadata update per alloc/free. */
    Tick allocMetadata = 150 * tickNs;

    /** Undo-log append per tx_add_range, plus per-64B copy. */
    Tick logAppend = 120 * tickNs;
    Tick logCopyPer64B = 60 * tickNs;

    /** pmem_persist: per-cacheline flush (clwb) plus one fence. */
    Tick flushPer64B = 45 * tickNs;
    Tick fence = 80 * tickNs;

    /** Transaction begin/commit fixed costs. */
    Tick txBegin = 100 * tickNs;
    Tick txCommit = 180 * tickNs;
};

/** Pool statistics. */
struct PoolStats
{
    std::uint64_t frees = 0;
    std::uint64_t linesFlushed = 0;
    std::uint64_t recoveries = 0;
};

/**
 * The persistent object pool.
 */
class ObjectPool
{
  public:
    /**
     * Open (or format) a pool over [base, base+size) of @p store.
     *
     * A pool with a valid header is opened in place and recovered
     * (uncommitted transactions rolled back); anything else is
     * formatted fresh.
     */
    ObjectPool(mem::BackingStore &store, mem::Addr base,
               std::uint64_t size, const PoolCosts &costs = PoolCosts());

    /** True when the constructor found and opened an existing pool. */
    bool openedExisting() const { return _openedExisting; }

    /** The root object (allocated on demand with @p bytes). */
    ObjectId root(Tick &t, std::uint64_t bytes);

    /** Allocate an object. Durable immediately (allocator metadata). */
    ObjectId allocate(Tick &t, std::uint64_t bytes);

    /** Free an object. */
    void free(Tick &t, ObjectId oid);

    /** Object payload size. */
    std::uint64_t sizeOf(ObjectId oid) const;

    /**
     * Translate a persistent pointer to a pool-physical address
     * (the per-access swizzle that makes object-mode slow).
     */
    mem::Addr direct(Tick &t, ObjectId oid);

    /** Read/write object payload (functional; caller charges time). */
    void readObject(ObjectId oid, std::uint64_t off, void *out,
                    std::uint64_t len) const;
    void writeObject(ObjectId oid, std::uint64_t off, const void *in,
                     std::uint64_t len);

    // --- transactions -------------------------------------------------

    /** Begin a transaction. @pre no transaction is open. */
    void txBegin(Tick &t);

    /**
     * Undo-log [off, off+len) of @p oid before modifying it.
     * @pre a transaction is open.
     */
    void txAddRange(Tick &t, ObjectId oid, std::uint64_t off,
                    std::uint64_t len);

    /**
     * Commit: pmem_persist every logged range (cacheline flush loop
     * + fence), then truncate the log.
     */
    void txCommit(Tick &t);

    /** Abort: roll every logged range back to its old contents. */
    void txAbort(Tick &t);

    /** True while a transaction is open. */
    bool inTransaction() const { return txOpen; }

    /**
     * Crash simulation: drop the volatile runtime state as a power
     * failure would. The next ObjectPool constructed over the same
     * region recovers (rolling back the open transaction, if any).
     */
    void crash() { txOpen = false; }

    const PoolStats &stats() const { return _stats; }
    const PoolCosts &costs() const { return _costs; }

    /** Bytes currently allocated to objects. */
    std::uint64_t allocatedBytes() const;

  private:
    struct Header;
    struct LogEntry;

    Header readHeader() const;
    void writeHeader(const Header &header);
    void format();
    void recover();
    mem::Addr objectAddr(ObjectId oid) const;

    mem::BackingStore &store;
    mem::Addr base;
    std::uint64_t size;
    PoolCosts _costs;
    PoolStats _stats;
    bool txOpen = false;
    bool _openedExisting = false;
};

} // namespace lightpc::persist

#endif // LIGHTPC_PERSIST_OBJECT_POOL_HH
