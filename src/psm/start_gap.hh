/**
 * @file
 * Start-Gap wear leveling (Qureshi et al. [53], as adopted in
 * Section V-A / VIII).
 *
 * The address space of N lines is laid out over N+1 physical slots;
 * one slot (the gap) is always empty. Every `writeThreshold` writes
 * the gap moves by one slot, slowly rotating the whole address space.
 * A static randomizer (a fixed Feistel bijection over page indices,
 * seeded once) is applied first so that spatially-correlated hot
 * lines do not march through physical space together. The bijection
 * is a pure function of the seed and the geometry, so it costs no
 * metadata; the model keeps only a one-entry memo of the last page it
 * permuted, because line traffic walks a page at a time.
 *
 * The wear-leveler's entire persistent state — start, gap, the write
 * counter, and the randomizer seed — is under 64 B and is saved into
 * the EP-cut at SnG time so leveling survives power cycles.
 */

#ifndef LIGHTPC_PSM_START_GAP_HH
#define LIGHTPC_PSM_START_GAP_HH

#include <algorithm>
#include <cstdint>

#include "sim/fast_div.hh"

namespace lightpc::psm
{

/** Configuration of the Start-Gap wear leveler. */
struct StartGapParams
{
    /** Number of logical 64 B lines managed. */
    std::uint64_t lines = 1 << 20;

    /** Gap movement period in writes (paper default: 100). */
    std::uint64_t writeThreshold = 100;

    /** Seed of the static randomizer. */
    std::uint64_t randomizerSeed = 0x5eedf00dULL;

    /** Disable the static randomizer (for unit-testing raw gap math). */
    bool randomize = true;

    /**
     * Randomizer granularity in lines: the Feistel permutation
     * shuffles groups of this many consecutive lines as a unit so
     * that wear spreads without destroying the row-buffer page
     * locality the PSM depends on. Must divide `lines`.
     */
    std::uint64_t pageLines = 32;
};

/** The <64 B register file the EP-cut persists. */
struct StartGapState
{
    std::uint64_t start = 0;
    std::uint64_t gap = 0;
    std::uint64_t writeCounter = 0;
    std::uint64_t totalMoves = 0;
    std::uint64_t randomizerSeed = 0;
};

/**
 * Start-Gap remapper.
 */
class StartGap
{
  public:
    explicit StartGap(const StartGapParams &params = StartGapParams());

    const StartGapParams &params() const { return _params; }

    /**
     * Map a logical line index to its physical slot in [0, lines].
     * Updates the page memo, so one instance must not be remapped
     * from two threads at once.
     *
     * @pre logical_line < params().lines.
     */
    std::uint64_t remap(std::uint64_t logical_line) const;

    /**
     * remap() that also sets @p run to how many lines from
     * @p logical_line onward map to consecutive slots under the
     * current registers: line `logical_line + k` maps to the returned
     * slot plus k for every k < run. With x the randomized line plus
     * start (mod lines), the run stops at the end of the randomizer
     * page, where x wraps, and, when x is below the gap, at the gap.
     *
     * @pre logical_line < params().lines.
     */
    std::uint64_t remapRun(std::uint64_t logical_line,
                           std::uint64_t &run) const;

    /**
     * Record one line write; moves the gap when the threshold is
     * reached.
     *
     * @return true when a gap movement occurred (the caller owes one
     *         extra media line copy for the displaced line).
     */
    bool recordWrite();

    /** How many recordWrite() calls in a row would move no gap. */
    std::uint64_t writesBeforeMove() const
    {
        return writeCounter + 1 >= _params.writeThreshold
            ? 0 : _params.writeThreshold - 1 - writeCounter;
    }

    /**
     * Record @p n line writes that move no gap: the same registers as
     * @p n recordWrite() calls that all return false.
     *
     * @pre n <= writesBeforeMove().
     */
    void recordWrites(std::uint64_t n) { writeCounter += n; }

    /** Registers to persist at the EP-cut. */
    StartGapState save() const;

    /** Restore registers after power recovery. */
    void restore(const StartGapState &state);

    /** Current gap slot (testing/visualization). */
    std::uint64_t gap() const { return gapReg; }

    /** Current start register. */
    std::uint64_t start() const { return startReg; }

    /** Total gap movements so far. */
    std::uint64_t totalMoves() const { return moves; }

  private:
    /** Static bijective randomizer over [0, lines). */
    std::uint64_t randomize(std::uint64_t line) const;

    /** Run the Feistel network for @p page and memoize the result. */
    void permutePage(std::uint64_t page) const;

    /** remap()'s out-of-line panic for a line past the range. */
    [[noreturn]] static void remapOutOfRange(std::uint64_t line);

    StartGapParams _params;
    /** Randomizer constants derived once from the geometry. */
    FastDiv pageDecode;           ///< divisor: pageLines
    std::uint64_t pageCount = 0;  ///< lines / pageLines
    unsigned halfBits = 0;        ///< Feistel half width
    std::uint32_t halfMask = 0;
    /**
     * One-entry memo: the last logical page randomize() permuted and
     * the first line of its permuted page. Only the seed and the
     * geometry decide the permutation, and neither changes after
     * construction, so the memo never goes stale.
     */
    mutable std::uint64_t memoPage = ~std::uint64_t(0);
    mutable std::uint64_t memoBase = 0;
    std::uint64_t startReg = 0;
    std::uint64_t gapReg;
    std::uint64_t writeCounter = 0;
    std::uint64_t moves = 0;
};

// The memo-hit path is inline: a span walks a page's lines in a row,
// so only a page change leaves the header.
inline std::uint64_t
StartGap::randomize(std::uint64_t line) const
{
    if (!_params.randomize)
        return line;

    // Permute at page granularity: consecutive lines within a page
    // stay adjacent (preserving row-buffer locality), while pages
    // scatter over the whole space for wear spreading.
    const std::uint64_t page = pageDecode.div(line);
    const std::uint64_t offset = line - page * _params.pageLines;
    if (page != memoPage) [[unlikely]]
        permutePage(page);
    return memoBase + offset;
}

inline std::uint64_t
StartGap::remap(std::uint64_t logical_line) const
{
    // Inlined, the unused run length folds away.
    std::uint64_t run = 0;
    return remapRun(logical_line, run);
}

inline std::uint64_t
StartGap::remapRun(std::uint64_t logical_line, std::uint64_t &run) const
{
    if (logical_line >= _params.lines) [[unlikely]]
        remapOutOfRange(logical_line);
    // Both addends are below lines, so one subtract wraps the sum.
    std::uint64_t pa = randomize(logical_line) + startReg;
    if (pa >= _params.lines)
        pa -= _params.lines;
    // The randomizer keeps a page's lines adjacent, the start offset
    // keeps them adjacent up to the wrap, and the slots below the gap
    // stay adjacent up to it; past the gap every slot shifts by one.
    run = std::min(_params.pageLines - pageDecode.mod(logical_line),
                   _params.lines - pa);
    if (pa < gapReg)
        run = std::min(run, gapReg - pa);
    else
        ++pa;
    return pa;
}

} // namespace lightpc::psm

#endif // LIGHTPC_PSM_START_GAP_HH
