#include "persist/checkpoint.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

namespace lightpc::persist
{

namespace
{

/** splitmix64-style mixer for records and body patterns. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Functional pattern prefix per committed image body. */
constexpr std::uint64_t patternBytes = 64 << 10;

/** mix64(index + 1) for every word of the pattern prefix: the seed
 *  only enters the outer mix, so every body shares this table. */
constexpr auto indexMix = [] {
    std::array<std::uint64_t, patternBytes / 8> table{};
    for (std::uint64_t i = 0; i < table.size(); ++i)
        table[i] = mix64(i + 1);
    return table;
}();

std::uint64_t
patternWord(std::uint64_t seed, std::uint64_t index)
{
    return mix64(seed
                 ^ (index < indexMix.size() ? indexMix[index]
                                            : mix64(index + 1)));
}

std::uint64_t
pagesOf(std::uint64_t bytes)
{
    return (bytes + 4095) / 4096;
}

} // namespace

bool
CheckpointLedger::Record::valid() const
{
    return magic == recordMagic && seq != 0
           && checksum == checksumOf(*this);
}

std::uint64_t
CheckpointLedger::checksumOf(const Record &record)
{
    std::uint64_t h = mix64(record.magic);
    h = mix64(h ^ record.seq);
    h = mix64(h ^ record.slot);
    h = mix64(h ^ record.bytes);
    h = mix64(h ^ record.bodySeed);
    return h;
}

Tick
CheckpointLedger::commit(Tick when, std::uint64_t seq,
                         std::uint64_t slot, std::uint64_t bytes,
                         std::uint64_t body_seed)
{
    Record record;
    record.magic = recordMagic;
    record.seq = seq;
    record.slot = slot;
    record.bytes = bytes;
    record.bodySeed = body_seed;
    record.checksum = checksumOf(record);

    Tick t = pmem.writeBytes(when, recordAddr(seq), &record,
                             sizeof(Record));
    _lastCommitAt = t;
    return pmem.fence(t);
}

CheckpointLedger::Record
CheckpointLedger::latest()
{
    const mem::BackingStore *store = pmem.backing();
    Record best;
    if (!store)
        return best;
    for (std::uint64_t line = 0; line < 2; ++line) {
        Record record;
        store->read(base + line * mem::cacheLineBytes, &record,
                    sizeof(Record));
        if (record.valid() && record.seq > best.seq)
            best = record;
    }
    return best;
}

Tick
writeBodyPattern(mem::TimedMem &pmem, Tick when, mem::Addr addr,
                 std::uint64_t len, std::uint64_t seed)
{
    std::uint64_t buf[512];  // 4 KB staging chunk
    std::uint64_t off = 0;
    Tick t = when;
    while (off < len) {
        const std::uint64_t chunk = std::min<std::uint64_t>(
            len - off, sizeof(buf));
        const std::uint64_t words = (chunk + 7) / 8;
        for (std::uint64_t w = 0; w < words; ++w)
            buf[w] = patternWord(seed, off / 8 + w);
        t = pmem.writeBytes(t, addr + off, buf, chunk);
        off += chunk;
    }
    return t;
}

bool
verifyBodyPattern(const mem::BackingStore &store, mem::Addr addr,
                  std::uint64_t len, std::uint64_t seed)
{
    std::uint64_t buf[512];
    std::uint64_t off = 0;
    while (off < len) {
        const std::uint64_t chunk = std::min<std::uint64_t>(
            len - off, sizeof(buf));
        store.read(addr + off, buf, chunk);
        const std::uint64_t full_words = chunk / 8;
        for (std::uint64_t w = 0; w < full_words; ++w) {
            if (buf[w] != patternWord(seed, off / 8 + w))
                return false;
        }
        const std::uint64_t tail = chunk % 8;
        if (tail) {
            const std::uint64_t want =
                patternWord(seed, off / 8 + full_words);
            if (std::memcmp(&buf[full_words], &want, tail) != 0)
                return false;
        }
        off += chunk;
    }
    return true;
}

Tick
ImageCheckpoint::dump(Tick when, std::uint64_t bytes)
{
    return pmem.writeSpan(when + pagesOf(bytes) * kind.dumpPerPage,
                          imageBase, bytes);
}

Tick
ImageCheckpoint::load(Tick when, std::uint64_t bytes)
{
    return pmem.readSpan(when + pagesOf(bytes) * ImageCosts().loadPerPage,
                         imageBase, bytes);
}

Tick
ImageCheckpoint::dumpCommitted(Tick when, std::uint64_t bytes,
                               std::uint64_t body_seed)
{
    const std::uint64_t seq = ++_seq;
    const std::uint64_t slot = seq & 1;
    const mem::Addr body = slotAddr(slot);

    Tick t = when + pagesOf(bytes) * kind.dumpPerPage;
    const std::uint64_t pattern = std::min(bytes, patternBytes);
    t = writeBodyPattern(pmem, t, body, pattern, body_seed);
    if (bytes > pattern)
        t = pmem.writeSpan(t, body + pattern, bytes - pattern);
    _lastBodyDoneAt = pmem.fence(t);

    return _ledger.commit(_lastBodyDoneAt, seq, slot, bytes, body_seed);
}

bool
ImageCheckpoint::intact(const CheckpointLedger::Record &record)
{
    const mem::BackingStore *store = pmem.backing();
    return store && record.valid()
        && verifyBodyPattern(*store, slotAddr(record.slot),
                             std::min(record.bytes, patternBytes),
                             record.bodySeed);
}

Tick
ImageCheckpoint::recover(Tick when)
{
    const ImageCosts costs;
    // Checkpoint-restart kinds never skip the reboot: machine-mode and
    // kernel state are outside their checkpoints.
    const Tick up = kind.rebootsFirst ? when + costs.coldReboot : when;
    const CheckpointLedger::Record record = _ledger.latest();
    if (intact(record)) {
        _recoveredSeq = record.seq;
        return pmem.readSpan(up + pagesOf(record.bytes) * costs.loadPerPage,
                             slotAddr(record.slot), record.bytes);
    }
    // Nothing durable (or a torn commit was rejected): cold boot.
    _recoveredSeq = 0;
    return when + costs.coldReboot;
}

ACheckPcStream::ACheckPcStream(cpu::InstrStream &inner_in,
                               const ACheckPcParams &params_in)
    : inner(inner_in), params(params_in), rng(params_in.seed)
{
    untilCheckpoint = static_cast<std::uint64_t>(
        std::max(1.0, -params.meanFunctionInstr
                          * std::log(1.0 - rng.uniform())));
}

void
ACheckPcStream::startCheckpoint()
{
    ++_checkpoints;
    // Exponentially distributed checkpoint size around the mean,
    // minimum one line.
    const double bytes = std::max(
        64.0, -ACheckPcParams::meanCheckpointBytes
                  * std::log(1.0 - rng.uniform()));
    copyLinesLeft = static_cast<std::uint64_t>(bytes + 63) / 64;
    _copiedBytes += copyLinesLeft * 64;
    copyPhaseIsLoad = true;
    // Stack/heap pages of the process; spread to look like real
    // variable dumps.
    copySrc = ACheckPcParams::dramBase + (rng.next() % (16 << 20) & ~63ull);
    copyDst = ACheckPcParams::pmemBase + (rng.next() % (64 << 20) & ~63ull);
    untilCheckpoint = static_cast<std::uint64_t>(
        std::max(1.0, -params.meanFunctionInstr
                          * std::log(1.0 - rng.uniform())));
}

bool
ACheckPcStream::next(cpu::Instr &out)
{
    if (copyLinesLeft > 0) {
        // Synchronous copy loop: load a line from DRAM, store it to
        // OC-PMEM; the benchmark is stalled for the duration.
        if (copyPhaseIsLoad) {
            out = {cpu::InstrKind::Load, copySrc};
            copyPhaseIsLoad = false;
        } else {
            out = {cpu::InstrKind::Store, copyDst};
            copyPhaseIsLoad = true;
            copySrc += 64;
            copyDst += 64;
            --copyLinesLeft;
        }
        return true;
    }

    if (!inner.next(out))
        return false;

    if (untilCheckpoint-- == 0)
        startCheckpoint();
    return true;
}

} // namespace lightpc::persist
