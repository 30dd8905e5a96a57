/**
 * @file
 * The campaign benches' command line: a value that is not exactly one
 * number of the flag's type is a usage error (exit 2), never a silent
 * truncation or a wrapped count; and bench::campaignMain() adds the
 * three shared flags, names every flag in its usage line, and exits 0,
 * 1 or 2.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../bench/campaign_io.hh"

namespace
{

using lightpc::Tick;
using lightpc::tickMs;

/** What the flags below set, at their defaults. */
struct Parsed
{
    std::uint32_t cuts = 3;
    double arrivals = 4000.0;
    Tick runFor = 2000 * tickMs;
};

/** "bench ARGS..." as argv storage and the argv pointers into it. */
struct Argv
{
    explicit Argv(std::vector<std::string> args_) : args(std::move(args_))
    {
        args.insert(args.begin(), "bench");
        for (std::string &arg : args)
            ptrs.push_back(arg.data());
    }

    int argc() { return static_cast<int>(ptrs.size()); }

    std::vector<std::string> args;
    std::vector<char *> ptrs;
};

/** Parse "bench ARGS..." against a count, a rate and a run length. */
Parsed
parse(std::vector<std::string> args)
{
    Parsed p;
    Argv argv(std::move(args));
    bench::parseFlags(argv.argc(), argv.ptrs.data(),
                      {bench::flag("--cuts", "N", p.cuts),
                       bench::flag("--arrivals", "PER_SEC", p.arrivals),
                       bench::msFlag("--runfor-ms", p.runFor)});
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
        {"--runfor-ms", "-1"},
        {"--runfor-ms", "18446744074"}, // its ticks wrap a Tick
    };
    for (const auto &[name, value] : bad) {
        SCOPED_TRACE(std::string(name) + " '" + value + "'");
        EXPECT_EXIT(parse({name, value}), testing::ExitedWithCode(2),
                    "usage");
    }
}

TEST(BenchFlags, ValidValuesParse)
{
    const Parsed p = parse({"--cuts", "8", "--arrivals", "1500.5",
                            "--runfor-ms", "8000"});
    EXPECT_EQ(p.cuts, 8u);
    EXPECT_EQ(p.arrivals, 1500.5);
    EXPECT_EQ(p.runFor, 8000 * tickMs);
    EXPECT_EQ(parse({}).cuts, 3u);
    EXPECT_EQ(parse({}).runFor, 2000 * tickMs);
    // The longest run length whose ticks still fit.
    EXPECT_EQ(parse({"--runfor-ms", "18446744073"}).runFor,
              18446744073 * tickMs);
}

/** A toy campaign: one count, a config default of one thread. */
struct ToyConfig
{
    std::uint64_t seed = 5;
    unsigned threads = 1;
    std::uint32_t cuts = 3;
};

/** The contents of the file at @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A scratch JSON path of its own for each test. */
std::string
scratchJson(const char *name)
{
    return testing::TempDir() + "campaign_main_" + name + ".json";
}

/**
 * Run campaignMain on the toy campaign with @p args and --out
 * scratchJson(@p name), read the file into @p json if asked and
 * delete it; @p pass is the toy's one anchor.
 */
int
runToy(ToyConfig &config, const char *name, std::vector<std::string> args,
       bool pass = true, std::string *json = nullptr)
{
    args.push_back("--out");
    args.push_back(scratchJson(name));
    Argv argv(std::move(args));
    bench::failures = 0;
    const bench::Campaign<std::uint32_t> toy{
        .bench = "toy",
        .out = "BENCH_toy.json",
        .title = "Toy",
        .what = "a campaign of one count",
        .paper = "none",
        .flags = {bench::flag("--cuts", "N", config.cuts)},
        .valid = [&config] { return config.cuts > 0; },
        .run = [&config] { return config.cuts * 2; },
        .table = [](std::uint32_t) {},
        .notes = [](std::uint32_t) { return std::vector<std::string>{}; },
        .anchors = [pass](std::uint32_t) { bench::check(pass, "toy"); },
        .json = [&config](bench::JsonWriter &json, std::uint32_t r) {
            json.field("seed", config.seed).field("doubled", r);
        },
    };
    const int status = bench::campaignMain(argv.argc(), argv.ptrs.data(),
                                           config.seed, config.threads, toy);
    bench::failures = 0;
    if (json)
        *json = slurp(scratchJson(name));
    std::remove(scratchJson(name).c_str());
    return status;
}

TEST(CampaignMain, UsageNamesEveryFlag)
{
    ToyConfig config;
    for (const char *bad : {"--bogus", "--cuts"}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(runToy(config, "usage", {bad, "0"}),
                    testing::ExitedWithCode(2),
                    "usage: bench \\[--cuts N\\] \\[--seed S\\] "
                    "\\[--threads N\\|-j N\\] \\[--out FILE\\]");
    }
}

TEST(CampaignMain, SharedFlagsSetTheConfigAndTheJsonRoot)
{
    ToyConfig config;
    std::string json;
    config.cuts = 4;
    EXPECT_EQ(runToy(config, "shared", {"--seed", "9", "-j", "2"}, true,
                     &json),
              0);
    EXPECT_EQ(config.seed, 9u);
    EXPECT_EQ(config.threads, 2u);
    EXPECT_EQ(json, "{\n  \"bench\": \"toy\",\n  \"seed\": 9,\n"
                    "  \"doubled\": 8\n}\n");
}

TEST(CampaignMain, LeavingThreadsOutRunsEveryHostThread)
{
    ToyConfig config;
    EXPECT_EQ(runToy(config, "threads", {}), 0);
    EXPECT_EQ(config.threads, lightpc::sim::hardwareThreads());
}

TEST(CampaignMain, FailedAnchorOrUnwritableJsonExitsOne)
{
    ToyConfig config;
    EXPECT_EQ(runToy(config, "anchor", {}, false), 1);
    // --out into a directory that does not exist.
    EXPECT_EQ(runToy(config, "no-such-dir/toy", {}), 1);
}

} // namespace
