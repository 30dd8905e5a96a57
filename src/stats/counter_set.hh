/**
 * @file
 * One declaration per campaign counter.
 *
 * A campaign result is a plain struct of counters. Its CounterSet is
 * one table with a row per counter: the JSON key, the member that
 * holds the value, how partial results fold it (sum, min, max or
 * mean) and the unit it is reported in. Everything a campaign does
 * with its counters is one loop over that table: merge() folds a
 * trial's partial result in, mix() feeds the determinism digest,
 * format() renders a value for JSON and stdout, and Folded folds
 * whole trials into one double per row (a grid cell's sums, extremes
 * and means).
 *
 * The digest rule is "mix what the cell stores": a uint64_t member
 * as-is, a double by its bits. With the rows in a result's historical
 * mix order, a digest does not move when its struct goes table-driven.
 *
 * Adding a counter means adding one row. A dotted key
 * ("phase_cuts.ep-cut") nests the value one object deep in the JSON,
 * and histogram() declares a row per element of an array member. The
 * notes helpers at the end are the fold's other half: a trial flags a
 * violation with a note, and the fold tags each kept note with the
 * trial index that replays it.
 */

#ifndef LIGHTPC_STATS_COUNTER_SET_HH
#define LIGHTPC_STATS_COUNTER_SET_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/digest.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace lightpc::stats
{

/** How partial results fold one counter. */
enum class Fold : std::uint8_t { Sum, Min, Max, Mean };

/** How a counter is reported: a count, a tick span in ms, a ratio. */
enum class Unit : std::uint8_t { Count, Ms, Ratio };

/**
 * One row of a CounterSet over result type @p R. Exactly one accessor
 * is set: the uint64_t or the double R stores, or (read-only) a count
 * R implies without storing it.
 */
template <typename R>
struct Counter
{
    std::string key;  ///< JSON key; a dot nests it one object deep
    Fold fold = Fold::Sum;
    Unit unit = Unit::Count;
    const std::uint64_t *(*count)(const R &) = nullptr;
    const double *(*real)(const R &) = nullptr;
    std::uint64_t (*derived)(const R &) = nullptr;

    std::uint64_t &
    countOf(R &r) const
    {
        return const_cast<std::uint64_t &>(*count(r));
    }

    double &realOf(R &r) const { return const_cast<double &>(*real(r)); }

    /** The value in @p r, in the reported unit (tick spans in ms). */
    double
    read(const R &r) const
    {
        if (real)
            return *real(r);
        const double v =
            static_cast<double>(count ? *count(r) : derived(r));
        return unit == Unit::Ms ? v / static_cast<double>(tickMs) : v;
    }

    /** A value of this row as text, in its unit's precision. */
    std::string
    format(double v) const
    {
        char text[48];
        std::snprintf(text, sizeof(text),
                      unit == Unit::Count ? "%.0f"
                      : unit == Unit::Ms  ? "%.3f"
                                          : "%.6f",
                      v);
        return text;
    }
};

namespace detail
{

template <typename> struct MemberOf;

template <typename T, typename C>
struct MemberOf<T C::*>
{
    using Class = C;
    using Type = T;
};

template <typename T>
void
foldInto(T &acc, T v, Fold fold)
{
    switch (fold) {
    case Fold::Sum:
    case Fold::Mean: acc += v; break;
    case Fold::Min: acc = std::min(acc, v); break;
    case Fold::Max: acc = std::max(acc, v); break;
    }
}

} // namespace detail

/** The row for member @p M: `counter<&Result::cuts>("cuts")`. */
template <auto M>
auto
counter(std::string key, Fold fold = Fold::Sum, Unit unit = Unit::Count)
{
    using R = typename detail::MemberOf<decltype(M)>::Class;
    using T = typename detail::MemberOf<decltype(M)>::Type;
    Counter<R> c{std::move(key), fold, unit};
    if constexpr (std::is_same_v<T, double>) {
        c.real = [](const R &r) { return &(r.*M); };
    } else {
        static_assert(std::is_same_v<T, std::uint64_t>,
                      "a counter member is a uint64_t or a double");
        c.count = [](const R &r) { return &(r.*M); };
    }
    return c;
}

/** One Sum row per element of array member @p M, "<group>.<name(i)>". */
template <auto M, typename Name>
auto
histogram(std::string_view group, Name name)
{
    using R = typename detail::MemberOf<decltype(M)>::Class;
    using A = typename detail::MemberOf<decltype(M)>::Type;
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return std::vector<Counter<R>>{Counter<R>{
            std::string(group) + "." + name(I), Fold::Sum, Unit::Count,
            [](const R &r) { return &(r.*M)[I]; }}...};
    }(std::make_index_sequence<std::tuple_size_v<A>>{});
}

/** The counter table of result type @p R (see the file comment). */
template <typename R>
class CounterSet
{
  public:
    /** Rows and histogram() row groups, in digest and JSON order. */
    template <typename... Parts>
    explicit CounterSet(Parts &&...parts)
    {
        (append(std::forward<Parts>(parts)), ...);
    }

    std::span<const Counter<R>> rows() const { return table; }
    std::size_t size() const { return table.size(); }

    /** Index of the row keyed @p key; fatal if there is none. */
    std::size_t
    indexOf(std::string_view key) const
    {
        for (std::size_t i = 0; i < table.size(); ++i)
            if (table[i].key == key)
                return i;
        fatal("counter set: no counter named '", key, "'");
    }

    /**
     * Fold @p part into @p acc row by row: Sum and Mean rows add, Min
     * and Max rows keep the extreme (so R's default is the identity).
     * Derived rows have nothing to fold into, and a table that folds
     * one member two ways (a mean and a minimum) folds into Folded
     * cells instead: in place, the member would fold twice.
     */
    void
    merge(R &acc, const R &part) const
    {
        for (const Counter<R> &c : table) {
            if (c.count)
                detail::foldInto(c.countOf(acc), *c.count(part), c.fold);
            else if (c.real)
                detail::foldInto(c.realOf(acc), *c.real(part), c.fold);
        }
    }

    /** Mix every row of @p r: a uint64_t as-is, a double by bits. */
    void
    mix(sim::Fnv64 &fnv, const R &r) const
    {
        for (const Counter<R> &c : table) {
            if (c.real)
                fnv.mix(std::bit_cast<std::uint64_t>(*c.real(r)));
            else
                fnv.mix(c.count ? *c.count(r) : c.derived(r));
        }
    }

    /** Row @p i of @p r as text: counts exact, others by unit. */
    std::string
    format(std::size_t i, const R &r) const
    {
        const Counter<R> &c = table[i];
        if (c.real || c.unit != Unit::Count)
            return c.format(c.read(r));
        return std::to_string(c.count ? *c.count(r) : c.derived(r));
    }

  private:
    void append(Counter<R> c) { table.push_back(std::move(c)); }

    void
    append(std::vector<Counter<R>> rows)
    {
        for (Counter<R> &c : rows)
            table.push_back(std::move(c));
    }

    std::vector<Counter<R>> table;
};

/**
 * Trials of @p R folded into one double per CounterSet row: sums,
 * extremes (the first trial seeds them) and, after finish(), means.
 */
template <typename R>
class Folded
{
  public:
    explicit Folded(const CounterSet<R> &set)
        : values(set.size()), set(&set)
    {}

    std::uint64_t trials = 0;

    /** One folded value per row, in table order. */
    std::vector<double> values;

    const CounterSet<R> &counters() const { return *set; }

    /** Fold one more trial in. */
    void
    add(const R &r)
    {
        const bool first = trials++ == 0;
        const auto rows = set->rows();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const double v = rows[i].read(r);
            if (first && rows[i].fold != Fold::Sum
                && rows[i].fold != Fold::Mean)
                values[i] = v;
            else
                detail::foldInto(values[i], v, rows[i].fold);
        }
    }

    /** Turn the Mean rows' running sums into means. */
    void
    finish()
    {
        const auto rows = set->rows();
        for (std::size_t i = 0; i < rows.size(); ++i)
            if (rows[i].fold == Fold::Mean && trials > 0)
                values[i] /= static_cast<double>(trials);
    }

    /** The folded value of counter @p key (fatal if unknown). */
    double
    operator[](std::string_view key) const
    {
        return values[set->indexOf(key)];
    }

    /** Mix every folded value by its bits. */
    void
    mix(sim::Fnv64 &fnv) const
    {
        for (const double v : values)
            fnv.mix(std::bit_cast<std::uint64_t>(v));
    }

    std::string
    format(std::size_t i) const
    {
        return set->rows()[i].format(values[i]);
    }

  private:
    const CounterSet<R> *set;
};

/** The most violation notes a campaign result keeps. */
inline constexpr std::size_t maxViolationNotes = 64;

/** @p parts streamed into one string: ("trial ", 3) -> "trial 3". */
template <typename... Parts>
std::string
streamed(const Parts &...parts)
{
    std::ostringstream text;
    (text << ... << parts);
    return text.str();
}

/**
 * Count one violation in @p violations and keep its note, @p parts
 * streamed together, while @p notes holds fewer than the cap.
 */
template <typename... Parts>
void
noteViolation(std::uint64_t &violations, std::vector<std::string> &notes,
              const Parts &...parts)
{
    ++violations;
    if (notes.size() < maxViolationNotes)
        notes.push_back(streamed(parts...));
}

/** noteViolation() into @p r's violations and violationNotes. */
template <typename R, typename... Parts>
void
flagViolation(R &r, const Parts &...parts)
{
    noteViolation(r.violations, r.violationNotes, parts...);
}

/**
 * The shared fold's note step: append trial @p index's @p notes to
 * @p out as "trial <index> [<cell>]: <note>", so every kept note
 * names the (seed, trial index) pair that replays it, up to the cap.
 */
inline void
appendTrialNotes(std::vector<std::string> &out, std::uint64_t index,
                 std::string_view cell,
                 const std::vector<std::string> &notes)
{
    for (const std::string &note : notes) {
        if (out.size() >= maxViolationNotes)
            return;
        out.push_back(streamed("trial ", index, " [", cell, "]: ", note));
    }
}

/**
 * The shared fold of a campaign whose trials all land in one result:
 * merge @p trials into @p acc in trial-index order and keep their
 * notes, each tagged with its index and @p cell(index).
 */
template <typename R, typename Cell>
void
foldTrials(const CounterSet<R> &set, R &acc, const std::vector<R> &trials,
           Cell cell)
{
    for (std::uint64_t i = 0; i < trials.size(); ++i) {
        set.merge(acc, trials[i]);
        appendTrialNotes(acc.violationNotes, i, cell(i),
                         trials[i].violationNotes);
    }
}

} // namespace lightpc::stats

#endif // LIGHTPC_STATS_COUNTER_SET_HH
