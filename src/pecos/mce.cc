#include "pecos/mce.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace lightpc::pecos
{

MceHandler::MceHandler(kernel::Kernel &kernel, psm::Psm &psm_)
    : kern(kernel), psm(psm_)
{
}

void
MceHandler::registerOwner(mem::Addr base, std::uint64_t bytes,
                          std::uint32_t pid)
{
    if (bytes == 0)
        fatal("MceHandler::registerOwner: empty range");
    if (pid == 0)
        fatal("MceHandler::registerOwner: pid 0 is reserved");
    ranges.push_back(Range{base, bytes, pid});
}

void
MceHandler::unregisterOwner(std::uint32_t pid)
{
    ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                                [pid](const Range &r) {
                                    return r.pid == pid;
                                }),
                 ranges.end());
}

std::uint32_t
MceHandler::ownerOf(mem::Addr addr) const
{
    for (const Range &r : ranges)
        if (addr >= r.base && addr - r.base < r.bytes)
            return r.pid;
    return 0;
}

MceOutcome
MceHandler::coldBoot()
{
    MceOutcome out;
    out.action = MceAction::ColdBoot;
    ++_stats.coldBoots;
    // handleContainment() under ResetColdBoot wipes OC-PMEM through
    // the reset port (preserving the MCE/reset counters). Under
    // Contain it declines — but a cold boot reached through kernel
    // escalation must still wipe the media, or the next boot would
    // inherit the uncontained corruption; take the reset port
    // directly in that case, with the same counter preservation.
    if (!psm.handleContainment())
        psm.containmentReset();
    return out;
}

MceOutcome
MceHandler::handle(mem::Addr addr, Tick when)
{
    ++_stats.raised;

    if (psm.params().mcePolicy == psm::McePolicy::ResetColdBoot)
        return coldBoot();

    // Contain: blame the owning task.
    const std::uint32_t pid = ownerOf(addr);
    if (pid == 0) {
        // Kernel memory has no killable owner; corruption there
        // cannot be contained and the only safe arm is the reset.
        ++_stats.kernelEscalations;
        return coldBoot();
    }

    MceOutcome out;
    out.action = MceAction::Contained;
    ++_stats.contained;

    if (kern.exitProcess(pid))
        ++_stats.tasksKilled;
    unregisterOwner(pid);
    out.killedPid = pid;

    // The faulting slot is physically rotten: take it out of service
    // so the *address* stays usable for whoever maps it next. The
    // data under it is gone either way — that is what killing the
    // owner admits.
    if (psm.retireFaultyLine(addr, when)) {
        out.lineRetired = true;
        ++_stats.linesRetired;
    }

    // Tell the PSM the containment was absorbed without a reset
    // (keeps the Contain-arm bookkeeping exercised).
    psm.handleContainment();
    return out;
}

} // namespace lightpc::pecos
