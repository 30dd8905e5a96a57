/**
 * @file
 * The one trial loop every seeded campaign runs.
 *
 * A campaign is a grid of trials: its cell axes (replica counts,
 * intensities, persistence modes, ...) come outermost and the seeds of
 * one cell innermost, so trial i is seed i % seedsPerCell of cell
 * i / seedsPerCell. Three pieces serve every campaign:
 *
 *  - TrialGrid decodes a trial index into its position on every axis
 *    (mixed radix, seed innermost);
 *  - streamColumn() packs two axis positions and a seed index into one
 *    Rng stream column, and checkStreamColumn() rejects a grid whose
 *    positions would overflow its fields;
 *  - runGrid() maps the trials on a sim::ParallelExecutor
 *    (mapGrid()) and folds the result slots in ascending index order
 *    (foldGrid()): each into its cell and into the campaign total,
 *    with every kept violation note tagged "trial <i> [<cell>]", the
 *    index that replays it.
 *
 * A trial is a pure function of (config, index) and the fold order is
 * the index order, so a campaign's digest is bit-identical at every
 * thread count. Each campaign keeps its own trial body, counter table
 * and digest recipe.
 */

#ifndef LIGHTPC_STATS_TRIAL_GRID_HH
#define LIGHTPC_STATS_TRIAL_GRID_HH

#include <array>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "stats/counter_set.hh"

namespace lightpc::stats
{

/**
 * A campaign's trial grid: @p N axis sizes, outermost first, the last
 * one the seeds of a cell.
 */
template <std::size_t N>
struct TrialGrid
{
    std::array<std::uint64_t, N> radix{};

    std::uint64_t seedsPerCell() const { return radix[N - 1]; }

    /** The product of every axis but the seeds. */
    std::uint64_t
    cells() const
    {
        return std::reduce(radix.begin(), radix.end() - 1,
                           std::uint64_t(1), std::multiplies<>());
    }

    std::uint64_t trials() const { return cells() * seedsPerCell(); }

    /** The cell trial @p i belongs to. */
    std::uint64_t cellOf(std::uint64_t i) const { return i / seedsPerCell(); }

    /** Cell @p cell's position on every axis; its seed position is 0. */
    std::array<std::uint64_t, N>
    cellAt(std::uint64_t cell) const
    {
        std::array<std::uint64_t, N> at{};
        for (std::size_t k = N - 1; k-- > 1;) {
            at[k] = cell % radix[k];
            cell /= radix[k];
        }
        at[0] = cell;
        return at;
    }

    /** Trial @p i's position on every axis, the seed last. */
    std::array<std::uint64_t, N>
    decode(std::uint64_t i) const
    {
        std::array<std::uint64_t, N> at = cellAt(cellOf(i));
        at[N - 1] = i % seedsPerCell();
        return at;
    }
};

/**
 * Reject, with fatal(), a grid whose streamColumn() fields overflow:
 * more than 2^24 positions on axis 0, 256 on axis 1 or 2^32 seeds per
 * cell. An overflow would alias Rng streams across cells and void the
 * paired comparison between modes.
 */
template <std::size_t N>
void
checkStreamColumn(std::string_view campaign, const TrialGrid<N> &grid)
{
    static_assert(N > 2, "a stream column leaves out an axis");
    if (grid.radix[0] > (std::uint64_t(1) << 24) || grid.radix[1] > 256
        || grid.seedsPerCell() > (std::uint64_t(1) << 32))
        fatal(campaign, ": a ", grid.radix[0], " x ", grid.radix[1],
              " grid of ", grid.seedsPerCell(), " seeds per cell "
              "overflows the stream column packing (at most 2^24 x 256 "
              "of 2^32)");
}

/** The Rng stream column of positions @p outer and @p inner on axes 0
 *  and 1 and seed index @p seed. */
constexpr std::uint64_t
streamColumn(std::uint64_t outer, std::uint64_t inner, std::uint64_t seed)
{
    return ((outer * 256 + inner) << 32) | seed;
}

/**
 * Where a grid's trials fold: every trial into @p total, trial i also
 * into (*cells)[cellOf(i)] when there are cells, and the kept
 * violation notes into @p notes.
 */
template <typename Total, typename Cell = Total>
struct GridFold
{
    Total &total;
    std::vector<std::string> &notes;
    std::vector<Cell> *cells = nullptr;
};

namespace detail
{

/** Fold one trial into a Folded cell, or merge it into a result. */
template <typename R, typename Acc, typename S>
void
foldTrial(const CounterSet<R> &set, Acc &acc, const S &slot)
{
    if constexpr (std::is_base_of_v<Folded<R>, Acc>)
        acc.add(slot);
    else
        set.merge(acc, slot);
}

} // namespace detail

/** Run @p trial(i) for every trial of @p grid on @p threads workers. */
template <std::size_t N, typename Trial>
auto
mapGrid(unsigned threads, const TrialGrid<N> &grid, Trial &&trial)
{
    return sim::ParallelExecutor(threads)
        .map<std::invoke_result_t<Trial &, std::uint64_t>>(grid.trials(),
                                                           trial);
}

/**
 * Fold @p slots, in ascending index order, into @p into through
 * @p set. Slot i's notes (its member @p notes, violationNotes unless
 * named) are kept as "trial <i> [<label(i)>]: <note>" up to
 * maxViolationNotes; label() is called only for a note that is kept.
 */
template <typename R, std::size_t N, typename S, typename Total,
          typename Cell, typename Label>
void
foldGrid(const CounterSet<R> &set, const TrialGrid<N> &grid,
         const std::vector<S> &slots, GridFold<Total, Cell> into,
         Label &&label,
         std::vector<std::string> S::*notes = &S::violationNotes)
{
    for (std::uint64_t i = 0; i < slots.size(); ++i) {
        const S &slot = slots[i];
        if (into.cells)
            detail::foldTrial(set, (*into.cells)[grid.cellOf(i)], slot);
        detail::foldTrial(set, into.total, slot);
        for (const std::string &note : slot.*notes) {
            if (into.notes.size() >= maxViolationNotes)
                break;
            into.notes.push_back(
                streamed("trial ", i, " [", label(i), "]: ", note));
        }
    }
}

/** mapGrid() then foldGrid(). */
template <typename R, std::size_t N, typename Trial, typename Total,
          typename Cell, typename Label>
void
runGrid(const CounterSet<R> &set, unsigned threads,
        const TrialGrid<N> &grid, Trial &&trial,
        GridFold<Total, Cell> into, Label &&label)
{
    foldGrid(set, grid, mapGrid(threads, grid, trial), into, label);
}

} // namespace lightpc::stats

#endif // LIGHTPC_STATS_TRIAL_GRID_HH
