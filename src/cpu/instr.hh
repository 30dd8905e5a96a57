/**
 * @file
 * The instruction abstraction consumed by core timing models.
 *
 * LightPC's evaluation is memory-system bound; cores are driven by
 * instruction *streams* (synthetic generators matched to Table II or
 * real kernels like STREAM) rather than decoded ISA instructions.
 */

#ifndef LIGHTPC_CPU_INSTR_HH
#define LIGHTPC_CPU_INSTR_HH

#include <cstdint>

#include "mem/request.hh"

namespace lightpc::cpu
{

/** Instruction classes that matter for timing. */
enum class InstrKind
{
    Alu,    ///< Non-memory work (1 issue slot).
    Load,   ///< Memory read; blocks the core on an L1 miss.
    Store,  ///< Memory write; retires through the store buffer.
};

/**
 * One dynamic instruction, or a run of them: `count - 1` ALU
 * instructions followed by one of `kind` (at `addr` for memory ops).
 * next() always yields count 1; only nextRun() merges.
 */
struct Instr
{
    InstrKind kind = InstrKind::Alu;
    std::uint32_t count = 1;
    mem::Addr addr = 0;

    constexpr Instr() = default;

    /** One instruction; `{kind, addr}` reads as before count existed. */
    constexpr Instr(InstrKind kind_in, mem::Addr addr_in)
        : kind(kind_in), addr(addr_in)
    {
    }
};

static_assert(sizeof(Instr) == 16, "Instr must stay two words");

/**
 * A source of dynamic instructions.
 */
class InstrStream
{
  public:
    virtual ~InstrStream() = default;

    /**
     * Produce the next instruction (count 1).
     * @return false when the stream is exhausted (process finished).
     */
    virtual bool next(Instr &out) = 0;

    /**
     * Produce the next 1..@p budget instructions as one run entry
     * (see Instr). Expanding every entry gives exactly the sequence
     * next() would have produced, and the stream's state afterwards
     * is the same as after that many next() calls. Streams that
     * cannot merge keep this default, one instruction per entry.
     *
     * @pre budget >= 1.
     * @return false when the stream is exhausted.
     */
    virtual bool
    nextRun(Instr &out, std::uint32_t budget)
    {
        (void)budget;
        out.count = 1;
        return next(out);
    }
};

} // namespace lightpc::cpu

#endif // LIGHTPC_CPU_INSTR_HH
