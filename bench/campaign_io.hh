/**
 * @file
 * What every campaign bench shares at its edges: one main,
 * campaignMain(), that owns the command line in and the banner, the
 * violation notes, the BENCH_*.json file (one JsonWriter) and the exit
 * status out; the stdout rows; and the checkpointing-baseline test
 * their anchors use. The outputs are driven by a result's
 * stats::CounterSet, so a counter added to the table shows up in both
 * without touching a bench.
 *
 * The writer lays every file out the same way: the root object and
 * the arrays directly under it put one member per line, every other
 * object or array is written on one line, dotted counter keys
 * ("phase_cuts.ep-cut") nest one object deep, and a digest is a
 * "0x"-prefixed 16-digit hex string.
 */

#ifndef LIGHTPC_BENCH_CAMPAIGN_IO_HH
#define LIGHTPC_BENCH_CAMPAIGN_IO_HH

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "net/machine.hh"
#include "sim/parallel.hh"
#include "sim/ticks.hh"
#include "stats/counter_set.hh"

namespace bench
{

/** True for the three checkpointing baselines. */
inline bool
isBaseline(lightpc::net::PersistMode mode)
{
    using lightpc::net::PersistMode;
    return mode == PersistMode::SysPc || mode == PersistMode::SCheckPc
           || mode == PersistMode::ACheckPc;
}

/**
 * Parse all of @p text as one decimal number of type @p T into @p v.
 * Rejects empty text, anything but the number (no leading space or
 * '+', no trailing junk), a '-' on an unsigned type, a value outside
 * T's range, and a non-finite double. @p v is untouched on failure.
 * @return whether @p text was such a number.
 */
template <typename T>
bool
parseNumber(std::string_view text, T &v)
{
    T parsed{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
    if (ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(parsed))
            return false;
    v = parsed;
    return true;
}

/**
 * One command-line flag: its name, the name of its value in the usage
 * line, what the value sets, and an optional alias. set() returns
 * false when the value does not parse.
 */
struct Flag
{
    const char *name;
    const char *meta;
    std::function<bool(const char *)> set;
    const char *alias = nullptr;
};

/** A flag parsing its value into @p v (a number or a string). */
template <typename T>
Flag
flag(const char *name, const char *meta, T &v)
{
    return {name, meta, [&v](const char *s) {
                if constexpr (std::is_same_v<T, std::string>) {
                    v = s;
                    return true;
                } else {
                    return parseNumber(s, v);
                }
            }};
}

/**
 * A flag taking milliseconds into the tick count @p v. A count whose
 * ticks would not fit a Tick does not parse.
 */
inline Flag
msFlag(const char *name, lightpc::Tick &v)
{
    return {name, "MS", [&v](const char *s) {
                std::uint64_t ms = 0;
                const bool fits = parseNumber(s, ms)
                                  && ms <= lightpc::maxTick / lightpc::tickMs;
                if (fits)
                    v = ms * lightpc::tickMs;
                return fits;
            }};
}

/** Print "usage: <argv0> [--flag META]..." from @p flags and exit 2. */
[[noreturn]] inline void
usage(const char *argv0, const std::vector<Flag> &flags)
{
    std::fprintf(stderr, "usage: %s", argv0);
    for (const Flag &f : flags)
        std::fprintf(stderr, f.alias ? " [%s %s|%s %s]" : " [%s %s]",
                     f.name, f.meta, f.alias, f.meta);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/**
 * Parse argv against @p flags, each of which takes one value. An
 * unknown flag, a missing value or a value that does not parse is a
 * usage() error.
 */
inline void
parseFlags(int argc, char **argv, const std::vector<Flag> &flags)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Flag *match = nullptr;
        for (const Flag &f : flags)
            if (arg == f.name || (f.alias && arg == f.alias))
                match = &f;
        if (!match || i + 1 >= argc || !match->set(argv[i + 1]))
            usage(argv[0], flags);
        ++i;
    }
}

class JsonWriter
{
  public:
    /** Open @p path and the root object (perror if it cannot). */
    explicit JsonWriter(std::string path_)
        : path(std::move(path_)), f(std::fopen(path.c_str(), "w"))
    {
        if (!f)
            std::perror(path.c_str());
        else
            open('{', true);
    }

    ~JsonWriter()
    {
        if (f)
            std::fclose(f);
    }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** Whether the file opened; write nothing to one that did not. */
    bool opened() const { return f != nullptr; }

    template <std::integral T>
    JsonWriter &
    field(std::string_view k, T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return raw(k, v ? "true" : "false");
        else
            return raw(k, std::to_string(v));
    }

    /** A double printed with the printf @p format (e.g. "%.3f"). */
    JsonWriter &
    field(std::string_view k, double v, const char *format)
    {
        char text[48];
        std::snprintf(text, sizeof(text), format, v);
        return raw(k, text);
    }

    template <std::convertible_to<std::string_view> S>
    JsonWriter &
    field(std::string_view k, const S &v)
    {
        std::string quoted = "\"";
        for (const char c : std::string_view(v)) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        return raw(k, quoted + "\"");
    }

    /** A determinism digest: "0x" and 16 hex digits. */
    JsonWriter &
    digest(std::uint64_t v)
    {
        char text[24];
        std::snprintf(text, sizeof(text), "\"0x%016llx\"",
                      static_cast<unsigned long long>(v));
        return raw("digest", text);
    }

    /** Open an object: a member of an object (@p k) or an element. */
    JsonWriter &
    object(std::string_view k = {})
    {
        key(k);
        return open('{', false);
    }

    /** Open an array (one element per line directly under the root). */
    JsonWriter &
    array(std::string_view k)
    {
        key(k);
        return open('[', frames.size() == 1);
    }

    /** Close the innermost object or array. */
    JsonWriter &
    close()
    {
        const Frame frame = frames.back();
        frames.pop_back();
        if (frame.multiline)
            newline();
        std::fputc(frame.bracket == '{' ? '}' : ']', f);
        return *this;
    }

    /** Every row of @p set in @p r. */
    template <typename R>
    JsonWriter &
    counters(const lightpc::stats::CounterSet<R> &set,
             const std::type_identity_t<R> &r)
    {
        return rows(set, [&](std::size_t i) { return set.format(i, r); });
    }

    /** Every folded value of @p cell. */
    template <typename R>
    JsonWriter &
    counters(const lightpc::stats::Folded<R> &cell)
    {
        return rows(cell.counters(),
                    [&](std::size_t i) { return cell.format(i); });
    }

    /**
     * Close the root and the file and report "wrote <path>".
     * @return false when the file could not be opened or written.
     */
    bool
    finish()
    {
        if (!f)
            return false;
        while (!frames.empty())
            close();
        std::fputc('\n', f);
        const bool good = std::ferror(f) == 0;
        std::fclose(f);
        f = nullptr;
        if (!good)
            std::perror(path.c_str());
        else
            std::cout << "\nwrote " << path << "\n";
        return good;
    }

  private:
    struct Frame
    {
        char bracket;
        bool multiline;
        std::size_t items = 0;
    };

    void
    newline()
    {
        std::fputc('\n', f);
        for (std::size_t i = 0; i < frames.size(); ++i)
            std::fputs("  ", f);
    }

    /** Separate from the previous item and write @p k, if any. */
    void
    key(std::string_view k)
    {
        Frame &frame = frames.back();
        if (frame.items++ > 0)
            std::fputc(',', f);
        if (frame.multiline)
            newline();
        else if (frame.items > 1)
            std::fputc(' ', f);
        if (!k.empty())
            std::fprintf(f, "\"%.*s\": ", static_cast<int>(k.size()),
                         k.data());
    }

    /** Member @p k with the already-formatted JSON value @p value. */
    JsonWriter &
    raw(std::string_view k, const std::string &value)
    {
        key(k);
        std::fputs(value.c_str(), f);
        return *this;
    }

    JsonWriter &
    open(char bracket, bool multiline)
    {
        std::fputc(bracket, f);
        frames.push_back({bracket, multiline});
        return *this;
    }

    /** The rows of @p set, value(i) the JSON of row i, dots nested. */
    template <typename R, typename Value>
    JsonWriter &
    rows(const lightpc::stats::CounterSet<R> &set, Value value)
    {
        std::string_view group;
        for (std::size_t i = 0; i < set.size(); ++i) {
            const std::string_view k = set.rows()[i].key;
            const std::size_t dot = k.find('.');
            const std::string_view g =
                k.substr(0, dot == k.npos ? 0 : dot);
            if (g != group) {
                if (!group.empty())
                    close();
                if (!g.empty())
                    object(g);
                group = g;
            }
            raw(k.substr(g.empty() ? 0 : dot + 1), value(i));
        }
        if (!group.empty())
            close();
        return *this;
    }

    std::string path;
    std::FILE *f;
    std::vector<Frame> frames;
};

/** Table cells of @p keys, from @p set in @p r or a folded cell. */
template <typename R>
std::vector<std::string>
counterCells(const lightpc::stats::CounterSet<R> &set,
             const std::type_identity_t<R> &r,
             const std::vector<std::string> &keys)
{
    std::vector<std::string> cells;
    for (const std::string &k : keys)
        cells.push_back(set.format(set.indexOf(k), r));
    return cells;
}

template <typename R>
std::vector<std::string>
counterCells(const lightpc::stats::Folded<R> &cell,
             const std::vector<std::string> &keys)
{
    std::vector<std::string> cells;
    for (const std::string &k : keys)
        cells.push_back(cell.format(cell.counters().indexOf(k)));
    return cells;
}

/** @p head followed by @p tail: a table row's labels, then its counters. */
inline std::vector<std::string>
row(std::vector<std::string> head, const std::vector<std::string> &tail)
{
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
}

/** Print every row of @p set in @p r as "key=value", several a line. */
template <typename R>
void
printCounters(const lightpc::stats::CounterSet<R> &set,
              const std::type_identity_t<R> &r)
{
    std::string line;
    for (std::size_t i = 0; i < set.size(); ++i) {
        const std::string item =
            " " + set.rows()[i].key + "=" + set.format(i, r);
        if (line.size() + item.size() > 76) {
            std::cout << line << "\n";
            line.clear();
        }
        line += item;
    }
    std::cout << line << "\n";
}

/**
 * What one campaign bench supplies to campaignMain(): its names and
 * defaults, its own flags and their validity check, and the hooks
 * that run it, print its table, list its violation notes, check its
 * anchors and write its JSON body. The flags and hooks capture the
 * bench's config by reference. The members from flags on default to
 * empty, so a helper such as kvCampaign() can fill them in.
 */
template <typename Result>
struct Campaign
{
    const char *bench;  ///< the JSON file's "bench" value
    std::string out;    ///< the default --out
    const char *title;  ///< the banner's two lines
    const char *what;
    const char *paper;  ///< the paperRef() line
    std::vector<Flag> flags = {};
    std::function<bool()> valid = {};
    std::function<Result()> run = {};
    std::function<void(const Result &)> table = {};
    std::function<std::vector<std::string>(const Result &)> notes = {};
    std::function<void(const Result &)> anchors = {};
    std::function<void(JsonWriter &, const Result &)> json = {};
};

/**
 * The main of every campaign bench. To the campaign's own flags it
 * adds the three every campaign shares, which set @p seed, @p threads
 * and the output path:
 *
 *   --seed S            the campaign seed;
 *   --threads N, -j N   host threads fanning the trials out. Leaving
 *                       the flag out runs one per host thread; an
 *                       explicit 0, a negative or a malformed value
 *                       warns and runs one. Every result, digests
 *                       included, is the same at any thread count;
 *   --out FILE          the JSON file.
 *
 * An unknown flag, a value that does not parse, or values valid()
 * rejects print the usage line, built from the flag table, and exit
 * 2. Otherwise it prints the banner, runs the campaign, prints its
 * table and every violation note, checks its anchors, and writes the
 * JSON: "bench" first, then the campaign's body.
 * @return 0 when every anchor held and the JSON was written, else 1.
 */
template <typename Result>
int
campaignMain(int argc, char **argv, std::uint64_t &seed, unsigned &threads,
             const Campaign<Result> &c)
{
    std::string out = c.out;
    unsigned requested = 0;
    std::vector<Flag> flags = c.flags;
    flags.push_back(flag("--seed", "S", seed));
    flags.push_back({"--threads", "N", [&requested](const char *s) {
                         requested = lightpc::sim::parseThreadsArg(s);
                         return true;
                     }, "-j"});
    flags.push_back(flag("--out", "FILE", out));
    parseFlags(argc, argv, flags);
    if (!c.valid())
        usage(argv[0], flags);
    threads = lightpc::sim::resolveThreads(requested);

    banner(c.title, c.what);
    paperRef(c.paper);
    const Result r = c.run();
    c.table(r);
    for (const std::string &note : c.notes(r))
        std::cout << "  VIOLATION " << note << "\n";
    c.anchors(r);

    JsonWriter json(out);
    if (json.opened())
        c.json(json.field("bench", c.bench), r);
    return json.finish() ? result() : 1;
}

} // namespace bench

#endif // LIGHTPC_BENCH_CAMPAIGN_IO_HH
