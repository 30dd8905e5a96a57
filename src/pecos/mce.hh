/**
 * @file
 * Machine-check escalation: PSM containment faults into PecOS.
 *
 * When the PSM's ECC tiers give up on a codeword it sets the error
 * containment bit and the host takes a machine-check exception.
 * Section V-A notes "the MCE handler can be implemented in various
 * ways"; this module implements both arms of psm::McePolicy:
 *
 *  - ResetColdBoot (the paper's current version): OC-PMEM is wiped
 *    through the reset port and the system cold-boots. Everything is
 *    lost, but nothing wrong is ever consumed.
 *
 *  - Contain: the handler maps the faulting physical address to the
 *    owning process, kills that process, and retires the faulting
 *    line's physical slot so the address range stays usable. The
 *    rest of the system — including a subsequent SnG stop/resume —
 *    carries on. Faults in unowned (kernel) memory cannot be blamed
 *    on a killable task and escalate to the cold-boot arm.
 */

#ifndef LIGHTPC_PECOS_MCE_HH
#define LIGHTPC_PECOS_MCE_HH

#include <cstdint>
#include <vector>

#include "kernel/kernel.hh"
#include "psm/psm.hh"

namespace lightpc::pecos
{

/** What the handler did about one machine check. */
enum class MceAction
{
    /** Owning task killed; system continues. */
    Contained,
    /** OC-PMEM reset; the caller must cold-boot the system. */
    ColdBoot,
};

/** Outcome of one machine-check exception. */
struct MceOutcome
{
    MceAction action = MceAction::ColdBoot;
    /** PID killed (Contained only; 0 when none). */
    std::uint32_t killedPid = 0;
    /** The faulting line's slot was moved to a spare. */
    bool lineRetired = false;
};

/** Handler counters. */
struct MceStats
{
    std::uint64_t raised = 0;        ///< machine checks taken
    std::uint64_t contained = 0;     ///< resolved by killing a task
    std::uint64_t coldBoots = 0;     ///< resolved by OC-PMEM reset
    std::uint64_t tasksKilled = 0;
    std::uint64_t linesRetired = 0;  ///< retirements from the handler
    std::uint64_t kernelEscalations = 0; ///< unowned fault -> reset
};

/**
 * The PecOS machine-check handler.
 *
 * Ownership of physical ranges is registered explicitly (the
 * simulator has no page tables): campaigns and tests map each
 * process's working set once, and the handler resolves faulting
 * addresses against those ranges.
 */
class MceHandler
{
  public:
    MceHandler(kernel::Kernel &kernel, psm::Psm &psm);

    /** Declare [base, base+bytes) owned by @p pid. */
    void registerOwner(mem::Addr base, std::uint64_t bytes,
                       std::uint32_t pid);

    /** Drop every range owned by @p pid (process exit). */
    void unregisterOwner(std::uint32_t pid);

    /** PID owning @p addr, or 0 for unowned (kernel) memory. */
    std::uint32_t ownerOf(mem::Addr addr) const;

    /**
     * Take the machine check for a containment fault at @p addr.
     * Applies the PSM's configured policy; see the file comment for
     * the two arms. Under ColdBoot OC-PMEM has been wiped when this
     * returns — the caller is responsible for the cold boot itself
     * (rebuilding kernel state, as platform::System does).
     */
    MceOutcome handle(mem::Addr addr, Tick when);

    const MceStats &stats() const { return _stats; }

  private:
    /** The cold-boot arm: wipe OC-PMEM, count the reset. */
    MceOutcome coldBoot();

    struct Range
    {
        mem::Addr base;
        std::uint64_t bytes;
        std::uint32_t pid;
    };

    kernel::Kernel &kern;
    psm::Psm &psm;
    std::vector<Range> ranges;
    MceStats _stats;
};

} // namespace lightpc::pecos

#endif // LIGHTPC_PECOS_MCE_HH
