#include "net/op_log.hh"

#include <cstring>

#include "sim/logging.hh"

namespace lightpc::net
{

OpLog::OpLog(mem::BackingStore &store_in, mem::TimedMem &timed_in,
             const OpLogParams &params)
    : store(store_in), timed(timed_in), _params(params)
{
    if (_params.base == 0)
        fatal("OpLog needs an explicit base address");
    if (_params.base % 64 != 0)
        fatal("OpLog base must be cache-line aligned");
    if (_params.capacity < 2 * recordBytes
        || _params.capacity % recordBytes != 0)
        fatal("OpLog capacity must hold >= 2 aligned records");
}

std::uint64_t
OpLog::checksumOf(const OpRecord &rec)
{
    unsigned char bytes[sizeof(OpRecord)];
    std::memcpy(bytes, &rec, sizeof(rec));
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i + sizeof(std::uint64_t) < sizeof(rec);
         ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
OpLog::format(Tick &t)
{
    Header hdr;
    hdr.magic = logMagic;
    hdr.capacity = _params.capacity;
    clock(t);
    t = timed.writeValue(t, _params.base, hdr);
    const std::uint64_t zero = 0;
    clock(t);
    t = timed.writeValue(t, headAddr(), zero);
    clock(t);
    t = timed.writeValue(t, tailAddr(), zero);
    t = timed.fence(t);
    head = persistedHead = tail = appendCursor = 0;
}

bool
OpLog::attach(Tick &t)
{
    Header hdr;
    t = timed.readValue(t, _params.base, hdr);
    if (hdr.magic != logMagic)
        return false;
    if (hdr.capacity != _params.capacity)
        fatal("OpLog reopened with mismatched capacity");
    t = timed.readValue(t, headAddr(), head);
    t = timed.readValue(t, tailAddr(), tail);
    persistedHead = head;
    appendCursor = tail;
    return true;
}

std::uint64_t
OpLog::append(Tick &t, OpRecord rec)
{
    if (wouldBlock())
        fatal("OpLog append into an undrained slot (caller must "
              "stall-drain first)");
    const std::uint64_t virt = appendCursor;
    rec.seq = virt / recordBytes + 1;
    rec.checksum = checksumOf(rec);
    // One line-granular store: an armed cut either keeps the whole
    // record, drops it, or tears it to a byte prefix that fails the
    // trailing checksum.
    clock(t);
    t = timed.writeBytes(t, slotAddr(virt), &rec, sizeof(rec));
    appendCursor = virt + recordBytes;
    ++_stats.appends;
    return rec.seq;
}

void
OpLog::commit(Tick &t)
{
    if (appendCursor == tail)
        return;
    // Tail persist strictly after every record it covers: one atomic
    // 8-byte store, then a fence. This is the durability point the
    // group's acks wait for.
    tail = appendCursor;
    clock(t);
    t = timed.writeValue(t, tailAddr(), tail);
    t = timed.fence(t);
    ++_stats.commits;
}

OpRecord
OpLog::readHead(Tick &t)
{
    if (backlogRecords() == 0)
        fatal("OpLog readHead on an empty backlog");
    OpRecord rec;
    t = timed.readValue(t, slotAddr(head), rec);
    return rec;
}

void
OpLog::pop()
{
    if (backlogRecords() == 0)
        fatal("OpLog pop on an empty backlog");
    head += recordBytes;
    ++_stats.pops;
}

void
OpLog::persistHead(Tick &t)
{
    if (persistedHead == head)
        return;
    clock(t);
    t = timed.writeValue(t, headAddr(), head);
    t = timed.fence(t);
    persistedHead = head;
    ++_stats.headPersists;
}

OpLogRecovery
OpLog::recover(Tick &t)
{
    OpLogRecovery out;
    t = timed.readValue(t, headAddr(), out.headVirt);
    t = timed.readValue(t, tailAddr(), out.tailVirt);

    // Scan forward from the durable head: a record is valid iff its
    // checksum matches and its sequence number is the one this
    // virtual offset (lap included) must carry. Zero-filled slots
    // fail the checksum (FNV of zeros is nonzero), previous-lap
    // records fail the sequence check, torn prefixes fail the
    // checksum — any of them ends the run.
    std::uint64_t virt = out.headVirt;
    while (virt - out.headVirt < _params.capacity) {
        OpRecord rec;
        t = timed.readValue(t, slotAddr(virt), rec);
        if (rec.checksum != checksumOf(rec)) {
            ++_stats.checksumStops;
            break;
        }
        if (rec.seq != virt / recordBytes + 1) {
            ++_stats.seqStops;
            break;
        }
        out.records.push_back(rec);
        virt += recordBytes;
    }
    out.scanEndVirt = virt;
    out.tailCovered = out.scanEndVirt >= out.tailVirt;

    head = out.headVirt;
    persistedHead = out.headVirt;
    tail = out.scanEndVirt;
    appendCursor = out.scanEndVirt;
    return out;
}

void
OpLog::resetAfterReplay(Tick &t)
{
    head = tail = appendCursor;
    clock(t);
    t = timed.writeValue(t, tailAddr(), tail);
    clock(t);
    t = timed.writeValue(t, headAddr(), head);
    t = timed.fence(t);
    persistedHead = head;
}

} // namespace lightpc::net
