/**
 * @file
 * perfbench: run one benchmark workload and print what it measured
 * as one JSON object on the last line of standard output.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--threads N]
 *
 * Exit status: 0 when every check passed, 1 when any failed (the JSON
 * is still printed), 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"
#include "sim/parallel.hh"

using namespace lightpc;
using namespace lightpc::perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--threads N]\n",
                 why);
    std::exit(2);
}

std::uint64_t
number(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out += (i ? ", " : "") + quoted(metrics[i].name)
            + ": {\"value\": " + value
            + ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    unsigned threads = sim::hardwareThreads();
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = number(value, "--seed");
        else if (flag == "--seconds")
            seconds = static_cast<double>(number(value, "--seconds"));
        else if (flag == "--trace")
            traced = number(value, "--trace") != 0;
        else if (flag == "--threads")
            threads = sim::parseThreadsArg(value);
        else
            usage(("unknown flag " + flag).c_str());
    }
    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == workload;
    if (!known)
        usage(("unknown workload '" + workload + "'").c_str());

    const Sizes sizes;
    Outcome out;
    try {
        out = traced ? trace(workload, seed, seconds, threads, sizes)
                     : measure(workload, seed, seconds, sizes);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (!optimisedBuild())
        out.fail("benchmark built without optimisation");

    char digest[19];
    std::snprintf(digest, sizeof digest, "0x%016llx",
                  static_cast<unsigned long long>(out.digest));
    std::string failures = "[";
    for (std::size_t i = 0; i < out.failures.size(); ++i)
        failures += (i ? ", " : "") + quoted(out.failures[i]);
    std::string build = "{";
    const auto provenance = buildProvenance();
    for (std::size_t i = 0; i < provenance.size(); ++i)
        build += (i ? ", " : "") + quoted(provenance[i].first) + ": "
            + quoted(provenance[i].second);

    std::printf("{\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
                "\"threads\": %u, \"sim_digest\": \"%s\", "
                "\"attempted\": %llu, \"failed\": %llu, "
                "\"failures\": %s], \"build\": %s}, "
                "\"metrics\": %s, \"report\": %s}\n",
                quoted(workload).c_str(),
                static_cast<unsigned long long>(seed),
                traced ? "true" : "false", out.threads, digest,
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                failures.c_str(), build.c_str(),
                metricsJson(out.metrics).c_str(),
                metricsJson(out.report).c_str());
    return out.failed ? 1 : 0;
}
