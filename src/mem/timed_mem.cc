#include "mem/timed_mem.hh"

#include <algorithm>

namespace lightpc::mem
{

Tick
TimedMem::span(Tick when, Addr addr, std::uint64_t len, MemOp op)
{
    if (len == 0)
        return when;

    const Addr first_line = addr & ~Addr(cacheLineBytes - 1);
    const Addr last_line =
        (addr + len - 1) & ~Addr(cacheLineBytes - 1);
    const std::uint64_t lines =
        (last_line - first_line) / cacheLineBytes + 1;

    const std::uint64_t exact = std::min(lines, sampleLimit);
    Tick t = port.accessLines(op, first_line, exact, when);

    if (lines > exact) {
        // Extrapolate the remainder at the sampled per-line rate.
        const Tick per_line = (t - when) / exact;
        t += per_line * (lines - exact);
    }
    return t;
}

Tick
TimedMem::writeBytes(Tick when, Addr addr, const void *data,
                     std::uint64_t len)
{
    const Tick end = span(when, addr, len, MemOp::Write);
    if (store)
        store->writeTimed(when, end, addr, data, len);
    return end;
}

Tick
TimedMem::fence(Tick when)
{
    return port.fence(when);
}

Tick
TimedMem::readBytes(Tick when, Addr addr, void *out, std::uint64_t len)
{
    if (store)
        store->read(addr, out, len);
    return span(when, addr, len, MemOp::Read);
}

Tick
TimedMem::writeSpan(Tick when, Addr addr, std::uint64_t len)
{
    return span(when, addr, len, MemOp::Write);
}

Tick
TimedMem::readSpan(Tick when, Addr addr, std::uint64_t len)
{
    return span(when, addr, len, MemOp::Read);
}

} // namespace lightpc::mem
