#include "mem/backing_store.hh"

#include <algorithm>

namespace lightpc::mem
{

namespace
{

/** Copy @p W bytes from the head and from the tail of [0, @p n). */
template <std::uint64_t W>
inline void
copyEnds(std::uint8_t *dst, const std::uint8_t *src, std::uint64_t n)
{
    std::memcpy(dst, src, W);
    std::memcpy(dst + n - W, src + n - W, W);
}

/**
 * Copy @p n bytes between a page and a caller's buffer. Nearly every
 * chunk is one object field or cache line of 8-64 bytes, and a
 * variable-length memcpy of that size compiles to `rep movsq`, whose
 * start-up cost dominates the copy. Two overlapping fixed-size copies
 * cover any such length with a few plain loads and stores.
 */
inline void
copyChunk(std::uint8_t *dst, const std::uint8_t *src, std::uint64_t n)
{
    if (n >= 8 && n <= 64) {
        if (n <= 16)
            copyEnds<8>(dst, src, n);
        else if (n <= 32)
            copyEnds<16>(dst, src, n);
        else
            copyEnds<32>(dst, src, n);
        return;
    }
    std::memcpy(dst, src, n);
}

} // namespace

BackingStore::Page *
BackingStore::findPage(Addr page_id) const
{
    auto it = pages.find(page_id);
    return it == pages.end() ? nullptr : it->second.get();
}

BackingStore::Page &
BackingStore::materialize(Addr page_id)
{
    auto &slot = pages[page_id];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

void
BackingStore::read(Addr addr, void *out, std::uint64_t len) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        const Addr page_id = addr / pageBytes;
        const std::uint64_t offset = addr % pageBytes;
        const std::uint64_t chunk = std::min(len, pageBytes - offset);
        if (const Page *page = findPage(page_id))
            copyChunk(dst, page->data() + offset, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
BackingStore::writeRaw(Addr addr, const void *in, std::uint64_t len)
{
    const auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        const Addr page_id = addr / pageBytes;
        const std::uint64_t offset = addr % pageBytes;
        const std::uint64_t chunk = std::min(len, pageBytes - offset);
        Page &page = materialize(page_id);
        copyChunk(page.data() + offset, src, chunk);
        src += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
BackingStore::write(Addr addr, const void *in, std::uint64_t len)
{
    if (cutArmed) {
        writeTimed(_writeClock, _writeClock, addr, in, len);
        return;
    }
    writeRaw(addr, in, len);
}

void
BackingStore::armPowerCut(Tick cut_tick, std::uint64_t torn_seed)
{
    cutArmed = true;
    _cutTick = cut_tick;
    ++_cutEpoch;
    tornRng = Rng(torn_seed);
    _cutStats = DurabilityCutStats{};
}

void
BackingStore::writeTimed(Tick start, Tick end, Addr addr,
                         const void *in, std::uint64_t len)
{
    if (!cutArmed) {
        writeRaw(addr, in, len);
        return;
    }
    if (len == 0)
        return;
    if (end < start)
        end = start;

    // A write whose service interval began before a previously fired
    // cut belongs to a dead epoch: the machine it was issued on lost
    // power mid-flight. Replaying it under a newer armed cut must not
    // resurrect the dropped suffix.
    if (_epochFloor > 0 && start < _epochFloor) {
        ++_cutStats.staleWrites;
        _cutStats.staleBytes += len;
        return;
    }

    // An aligned store instruction is atomic: never torn.
    if (len <= 8) {
        if (end < _cutTick) {
            writeRaw(addr, in, len);
            ++_cutStats.durableWrites;
            _cutStats.durableBytes += len;
        } else {
            ++_cutStats.droppedWrites;
            _cutStats.droppedBytes += len;
        }
        return;
    }

    if (end < _cutTick) {
        writeRaw(addr, in, len);
        ++_cutStats.durableWrites;
        _cutStats.durableBytes += len;
        return;
    }
    if (start >= _cutTick) {
        ++_cutStats.droppedWrites;
        _cutStats.droppedBytes += len;
        return;
    }

    // The write straddles the cut: lines complete uniformly over
    // [start, end]; the prefix that finished before the rails fell
    // is durable, the line in flight at the cut is torn, the rest
    // is lost.
    const Addr first_line = addr & ~Addr(cacheLineBytes - 1);
    const Addr last_line =
        (addr + len - 1) & ~Addr(cacheLineBytes - 1);
    const std::uint64_t lines =
        (last_line - first_line) / cacheLineBytes + 1;
    const double frac = static_cast<double>(_cutTick - start)
        / static_cast<double>(end - start);
    std::uint64_t durable_lines =
        static_cast<std::uint64_t>(frac * static_cast<double>(lines));
    durable_lines = std::min(durable_lines, lines - 1);

    std::uint64_t durable_len = 0;
    if (durable_lines > 0) {
        const Addr durable_end =
            first_line + durable_lines * cacheLineBytes;
        durable_len = std::min<std::uint64_t>(len, durable_end - addr);
    }

    // Tear the boundary line: the RNG decides how many of its bytes
    // reached the media before the rails left specification.
    const Addr torn_start = addr + durable_len;
    const Addr torn_line = torn_start & ~Addr(cacheLineBytes - 1);
    const std::uint64_t line_avail = std::min<std::uint64_t>(
        len - durable_len,
        torn_line + cacheLineBytes - torn_start);
    const std::uint64_t torn_bytes = tornRng.below(line_avail + 1);

    if (durable_len + torn_bytes > 0)
        writeRaw(addr, in, durable_len + torn_bytes);

    ++_cutStats.tornWrites;
    _cutStats.durableBytes += durable_len + torn_bytes;
    _cutStats.droppedBytes += len - durable_len - torn_bytes;
    _cutStats.lastTornLine = torn_line;
    _cutStats.lastTornBytes = torn_bytes;
}

void
BackingStore::clear(Addr addr, std::uint64_t len)
{
    while (len > 0) {
        const Addr page_id = addr / pageBytes;
        const std::uint64_t offset = addr % pageBytes;
        const std::uint64_t chunk = std::min(len, pageBytes - offset);
        if (offset == 0 && chunk == pageBytes) {
            pages.erase(page_id);
        } else if (Page *page = findPage(page_id)) {
            std::memset(page->data() + offset, 0, chunk);
        }
        addr += chunk;
        len -= chunk;
    }
}

std::uint64_t
BackingStore::contentDigest() const
{
    std::vector<Addr> ids;
    ids.reserve(pages.size());
    for (const auto &[id, page] : pages) {
        const bool zero =
            std::all_of(page->begin(), page->end(),
                        [](std::uint8_t b) { return b == 0; });
        if (!zero)
            ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());

    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Addr id : ids) {
        mix(id);
        const Page &page = *findPage(id);
        for (const std::uint8_t b : page) {
            h ^= b;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

void
BackingStore::copyContentsFrom(const BackingStore &other)
{
    pages.clear();
    for (const auto &[id, page] : other.pages)
        pages[id] = std::make_unique<Page>(*page);
}

bool
BackingStore::equals(const BackingStore &other) const
{
    // A page absent on one side must be all-zero on the other.
    auto zero = [](const Page &p) {
        return std::all_of(p.begin(), p.end(),
                           [](std::uint8_t b) { return b == 0; });
    };
    for (const auto &[id, page] : pages) {
        const Page *theirs = other.findPage(id);
        if (theirs) {
            if (*page != *theirs)
                return false;
        } else if (!zero(*page)) {
            return false;
        }
    }
    for (const auto &[id, page] : other.pages) {
        if (!findPage(id) && !zero(*page))
            return false;
    }
    return true;
}

} // namespace lightpc::mem
