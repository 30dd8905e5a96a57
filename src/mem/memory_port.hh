/**
 * @file
 * Abstract memory port.
 *
 * Cores and caches talk to "whatever is below" through this
 * interface; platform/ wires it to DRAM (LegacyPC), the PSM
 * (LightPC / LightPC-B), or the Optane-style PMEM complex (the
 * Fig. 4 modes).
 */

#ifndef LIGHTPC_MEM_MEMORY_PORT_HH
#define LIGHTPC_MEM_MEMORY_PORT_HH

#include "mem/request.hh"
#include "sim/ticks.hh"

namespace lightpc::mem
{

/**
 * A timed request/response port.
 */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /** Service one access starting no earlier than @p when. */
    virtual AccessResult access(const MemRequest &req, Tick when) = 0;

    /**
     * Service @p lines back-to-back line accesses, the first at the
     * line-aligned @p first_line and each issued when the previous
     * one completes (TimedMem's span walk).
     *
     * The default issues one access() per line. A port overrides it
     * only with a walk that returns the same tick and leaves the same
     * model state.
     *
     * @return The completion tick of the last line (@p when if none).
     */
    virtual Tick
    accessLines(MemOp op, Addr first_line, std::uint64_t lines,
                Tick when)
    {
        MemRequest req;
        req.op = op;
        for (std::uint64_t i = 0; i < lines; ++i) {
            req.addr = first_line + i * cacheLineBytes;
            when = access(req, when).completeAt;
        }
        return when;
    }

    /**
     * Fence: drain all buffered/outstanding work.
     * @return The tick at which the memory below is quiescent.
     */
    virtual Tick fence(Tick when) { return when; }
};

} // namespace lightpc::mem

#endif // LIGHTPC_MEM_MEMORY_PORT_HH
