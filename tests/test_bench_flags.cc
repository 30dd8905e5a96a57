/**
 * @file
 * The campaign benches' numeric flags: a value that is not exactly
 * one number of the flag's type is a usage error (exit 2), never a
 * silent truncation or a wrapped count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../bench/campaign_io.hh"

namespace
{

/** What the flags below set, at their defaults. */
struct Parsed
{
    std::uint32_t cuts = 3;
    double arrivals = 4000.0;
};

/** Parse "bench ARGS..." against a count flag and a rate flag. */
Parsed
parse(std::vector<std::string> args)
{
    Parsed p;
    std::string argv0 = "bench";
    std::vector<char *> argv{argv0.data()};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    bench::parseFlags(static_cast<int>(argv.size()), argv.data(),
                      "[--cuts N] [--arrivals PER_SEC]",
                      {bench::flag("--cuts", p.cuts),
                       bench::flag("--arrivals", p.arrivals)});
    return p;
}

TEST(BenchFlags, MalformedNumbersAreUsageErrors)
{
    const std::pair<const char *, const char *> bad[] = {
        {"--cuts", "-1"},         {"--cuts", "3x"},
        {"--cuts", "abc"},        {"--cuts", ""},
        {"--cuts", "4294967299"}, // past uint32_t
        {"--arrivals", "abc"},    {"--arrivals", "1000/s"},
        {"--arrivals", "1e999"},  {"--arrivals", "inf"},
    };
    for (const auto &[name, value] : bad) {
        SCOPED_TRACE(std::string(name) + " '" + value + "'");
        EXPECT_EXIT(parse({name, value}), testing::ExitedWithCode(2),
                    "usage");
    }
}

TEST(BenchFlags, ValidValuesParse)
{
    const Parsed p = parse({"--cuts", "8", "--arrivals", "1500.5"});
    EXPECT_EQ(p.cuts, 8u);
    EXPECT_EQ(p.arrivals, 1500.5);
    EXPECT_EQ(parse({}).cuts, 3u);
}

} // namespace
