#include "persist/object_pool.hh"

#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace lightpc::persist
{

namespace
{

constexpr std::uint64_t poolMagic = 0x504d444b4f425021ULL;  // PMDKOBP!
constexpr std::uint64_t headerBytes = 4096;
constexpr std::uint64_t logAreaBytes = std::uint64_t(1) << 20;
constexpr std::uint64_t objectHeaderBytes = 16;

} // namespace

/** On-media pool header. */
struct ObjectPool::Header
{
    std::uint64_t magic = 0;
    std::uint64_t rootOid = 0;
    std::uint64_t rootBytes = 0;
    std::uint64_t heapCursor = 0;    ///< bump pointer (pool offset)
    std::uint64_t freeListHead = 0;  ///< first free object (offset)
    std::uint64_t logCount = 0;      ///< live undo-log entries
    std::uint64_t logCursor = 0;     ///< bytes used in the log area
    std::uint64_t allocated = 0;     ///< live payload bytes
};

/** On-media undo-log entry header (followed by the old bytes). */
struct ObjectPool::LogEntry
{
    std::uint64_t target = 0;  ///< pool offset of the saved range
    std::uint64_t len = 0;
};

ObjectPool::ObjectPool(mem::BackingStore &store_in, mem::Addr base_in,
                       std::uint64_t size_in, const PoolCosts &costs)
    : store(store_in), base(base_in), size(size_in), _costs(costs)
{
    if (size < headerBytes + logAreaBytes + 4096)
        fatal("ObjectPool region too small: ", size);
    Header header = readHeader();
    if (header.magic == poolMagic) {
        _openedExisting = true;
        recover();
    } else {
        format();
    }
}

ObjectPool::Header
ObjectPool::readHeader() const
{
    return store.readValue<Header>(base);
}

void
ObjectPool::writeHeader(const Header &header)
{
    store.writeValue(base, header);
}

void
ObjectPool::format()
{
    Header header;
    header.magic = poolMagic;
    header.heapCursor = headerBytes + logAreaBytes;
    writeHeader(header);
}

void
ObjectPool::recover()
{
    Header header = readHeader();
    if (header.logCount == 0)
        return;

    // Roll the uncommitted transaction back: restore ranges in
    // reverse append order.
    ++_stats.recoveries;
    std::vector<std::pair<LogEntry, std::uint64_t>> entries;
    std::uint64_t cursor = 0;
    for (std::uint64_t i = 0; i < header.logCount; ++i) {
        const LogEntry entry = store.readValue<LogEntry>(
            base + headerBytes + cursor);
        entries.emplace_back(entry,
                             cursor + sizeof(LogEntry));
        cursor += sizeof(LogEntry) + entry.len;
    }
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        std::vector<std::uint8_t> old(it->first.len);
        store.read(base + headerBytes + it->second, old.data(),
                   old.size());
        store.write(base + it->first.target, old.data(), old.size());
    }

    header.logCount = 0;
    header.logCursor = 0;
    writeHeader(header);
}

mem::Addr
ObjectPool::objectAddr(ObjectId oid) const
{
    return base + oid.offset;
}

ObjectId
ObjectPool::root(Tick &t, std::uint64_t bytes)
{
    Header header = readHeader();
    if (header.rootOid != 0) {
        t += _costs.swizzle;
        return ObjectId{header.rootOid};
    }
    const ObjectId oid = allocate(t, bytes);
    header = readHeader();
    header.rootOid = oid.offset;
    header.rootBytes = bytes;
    writeHeader(header);
    return oid;
}

ObjectId
ObjectPool::allocate(Tick &t, std::uint64_t bytes)
{
    if (bytes == 0)
        fatal("ObjectPool::allocate of zero bytes");
    t += _costs.allocMetadata;

    const std::uint64_t need = (bytes + 15) & ~std::uint64_t(15);
    Header header = readHeader();

    // First-fit over the free list.
    std::uint64_t prev = 0;
    std::uint64_t cur = header.freeListHead;
    while (cur != 0) {
        const std::uint64_t obj_size =
            store.readValue<std::uint64_t>(base + cur);
        const std::uint64_t next =
            store.readValue<std::uint64_t>(base + cur + 8);
        if (obj_size >= need) {
            if (prev == 0)
                header.freeListHead = next;
            else
                store.writeValue<std::uint64_t>(base + prev + 8, next);
            store.writeValue<std::uint64_t>(base + cur + 8, 0);
            header.allocated += obj_size;
            writeHeader(header);
            return ObjectId{cur + objectHeaderBytes};
        }
        prev = cur;
        cur = next;
    }

    // Bump allocation.
    const std::uint64_t obj = header.heapCursor;
    if (obj + objectHeaderBytes + need > size)
        fatal("ObjectPool out of space");
    store.writeValue<std::uint64_t>(base + obj, need);
    store.writeValue<std::uint64_t>(base + obj + 8, 0);
    header.heapCursor = obj + objectHeaderBytes + need;
    header.allocated += need;
    writeHeader(header);
    return ObjectId{obj + objectHeaderBytes};
}

void
ObjectPool::free(Tick &t, ObjectId oid)
{
    if (!oid.valid())
        fatal("ObjectPool::free of null object");
    t += _costs.allocMetadata;
    ++_stats.frees;

    const std::uint64_t obj = oid.offset - objectHeaderBytes;
    Header header = readHeader();
    const std::uint64_t obj_size =
        store.readValue<std::uint64_t>(base + obj);
    store.writeValue<std::uint64_t>(base + obj + 8,
                                    header.freeListHead);
    header.freeListHead = obj;
    header.allocated -= obj_size;
    writeHeader(header);
}

std::uint64_t
ObjectPool::sizeOf(ObjectId oid) const
{
    if (!oid.valid())
        return 0;
    return store.readValue<std::uint64_t>(
        base + oid.offset - objectHeaderBytes);
}

mem::Addr
ObjectPool::direct(Tick &t, ObjectId oid)
{
    t += _costs.swizzle;
    return objectAddr(oid);
}

void
ObjectPool::readObject(ObjectId oid, std::uint64_t off, void *out,
                       std::uint64_t len) const
{
    store.read(objectAddr(oid) + off, out, len);
}

void
ObjectPool::writeObject(ObjectId oid, std::uint64_t off,
                        const void *in, std::uint64_t len)
{
    store.write(objectAddr(oid) + off, in, len);
}

void
ObjectPool::txBegin(Tick &t)
{
    if (txOpen)
        fatal("nested transactions are not supported");
    txOpen = true;
    t += _costs.txBegin;
}

void
ObjectPool::txAddRange(Tick &t, ObjectId oid, std::uint64_t off,
                       std::uint64_t len)
{
    if (!txOpen)
        fatal("txAddRange outside a transaction");
    Header header = readHeader();

    LogEntry entry;
    entry.target = oid.offset + off;
    entry.len = len;
    const std::uint64_t entry_bytes = sizeof(LogEntry) + len;
    if (header.logCursor + entry_bytes > logAreaBytes)
        fatal("ObjectPool undo log overflow");

    // Write-ahead: payload + entry first, then bump the count.
    std::vector<std::uint8_t> old(len);
    store.read(base + entry.target, old.data(), len);
    const mem::Addr log_at = base + headerBytes + header.logCursor;
    store.writeValue(log_at, entry);
    store.write(log_at + sizeof(LogEntry), old.data(), len);

    header.logCursor += entry_bytes;
    ++header.logCount;
    writeHeader(header);

    t += _costs.logAppend
        + _costs.logCopyPer64B * ((len + 63) / 64);
}

void
ObjectPool::txCommit(Tick &t)
{
    if (!txOpen)
        fatal("txCommit outside a transaction");
    Header header = readHeader();

    // pmem_persist over every logged range: the CPU cache controller
    // walks the VA range cacheline by cacheline, then fences.
    std::uint64_t cursor = 0;
    for (std::uint64_t i = 0; i < header.logCount; ++i) {
        const LogEntry entry = store.readValue<LogEntry>(
            base + headerBytes + cursor);
        const std::uint64_t lines = (entry.len + 63) / 64;
        t += _costs.flushPer64B * lines;
        _stats.linesFlushed += lines;
        cursor += sizeof(LogEntry) + entry.len;
    }
    t += _costs.fence + _costs.txCommit;

    header.logCount = 0;
    header.logCursor = 0;
    writeHeader(header);
    txOpen = false;
}

void
ObjectPool::txAbort(Tick &t)
{
    if (!txOpen)
        fatal("txAbort outside a transaction");
    txOpen = false;
    recover();
    // recover() counts itself; an explicit abort is not a recovery.
    --_stats.recoveries;
    t += _costs.txCommit;
}

std::uint64_t
ObjectPool::allocatedBytes() const
{
    return readHeader().allocated;
}

} // namespace lightpc::persist
