/**
 * @file
 * The repository benchmark: three fixed workloads driven through the
 * simulator's public entry points, host-time metrics around them, and
 * the simulated-statistics digests that prove a speed-only change left
 * the model untouched.
 *
 * Every workload is a closed batch: a fixed list of operations that
 * is a pure function of the seed, repeated until the measurement time
 * runs out. An operation is one (Table II spec, platform) run, one
 * power-cut campaign, or one cluster trial. Modelled caches start
 * empty in every operation (each builds fresh machines).
 */

#ifndef LIGHTPC_PERFBENCH_BENCH_HH
#define LIGHTPC_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory_port.hh"
#include "platform/system.hh"
#include "psm/psm.hh"
#include "sim/digest.hh"

namespace lightpc::perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p samples (mean of the middle pair); 0 when empty. */
double median(std::vector<double> samples);

/**
 * The highest percentile of @p samples that still has at least
 * `beyond` samples strictly above it: the value at ascending rank
 * n - beyond - 1. `valid` is false when there are not enough samples
 * (the value is then the maximum and the percentile 100).
 */
struct TailStat
{
    double value = 0.0;
    double percentile = 100.0;
    std::size_t samples = 0;
    bool valid = false;
};

TailStat tailPercentile(std::vector<double> samples,
                        std::size_t beyond = 10);

/**
 * Self share of a layer: what is left of @p total after the measured
 * @p children shares, i.e. 1 - sum(children) / total.
 */
double selfShare(double total, const std::vector<double> &children);

/**
 * A MemoryPort that forwards to a System's PSM exactly like the
 * platform's own routing on LightPC / LightPC-B (access -> Psm::access,
 * fence -> Psm::flush), counting accesses and the host time spent
 * inside Psm::access. Cores are wired to the port at System
 * construction, so it is bound to the PSM afterwards.
 */
class TimingPort : public mem::MemoryPort
{
  public:
    void bind(psm::Psm &target) { psm = &target; }

    mem::AccessResult access(const mem::MemRequest &req,
                             Tick when) override;

    Tick fence(Tick when) override { return psm->flush(when); }

    std::uint64_t accesses = 0;
    std::uint64_t hostNs = 0;

  private:
    psm::Psm *psm = nullptr;
};

/** Fold every field of @p result into @p digest. */
void foldRunResult(sim::Fnv64 &digest,
                   const platform::RunResult &result);

/** One named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark invocation measured and checked. */
struct Outcome
{
    /** The contract metrics (end-to-end or per-layer). */
    std::vector<Metric> metrics;
    /** Further named values printed for people, not compared. */
    std::vector<Metric> report;
    /** Simulated-statistics digest of the workload's batch. */
    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check. */
    std::vector<std::string> failures;
    unsigned threads = 1;

    void fail(const std::string &note);
};

/** Workload names, in the order the benchmark documents them. */
const std::vector<std::string> &workloadNames();

/** Fixed sizes of each workload's batch. */
struct Sizes
{
    /** Table II downscale divisor for table2_machine. */
    std::uint64_t table2Divisor = 20000;
    /** Cuts per mode in powercut_campaign, split over ten campaigns. */
    std::uint64_t campaignCuts = 500;
    /** Seeds per (replicas, intensity, mode) cell in kv_cluster_storm. */
    std::size_t clusterSeedsPerCell = 6;
};

/** One batch of a workload: its digest and per-operation host times. */
struct Batch
{
    std::uint64_t digest = 0;
    double setupS = 0.0;
    double wallS = 0.0;
    std::vector<double> opMs;
    /** Simulated work done: instructions, cut trials, or acked PUTs. */
    std::uint64_t work = 0;
    std::vector<std::string> failures;
};

/**
 * Run one batch of @p workload. @p threads is the ParallelExecutor
 * width for the campaign workloads (table2_machine is always single
 * threaded).
 */
Batch runBatch(const std::string &workload, std::uint64_t seed,
               unsigned threads, const Sizes &sizes);

/**
 * Benchmark entry: measure @p workload for @p seconds, every batch on
 * one host thread.
 */
Outcome measure(const std::string &workload, std::uint64_t seed,
                double seconds, const Sizes &sizes);

/** Traced entry: the per-layer ladder plus the workload's checks. */
Outcome trace(const std::string &workload, std::uint64_t seed,
              double seconds, unsigned threads, const Sizes &sizes);

/** Build-time provenance (compiler, flags, optimisation). */
std::vector<std::pair<std::string, std::string>> buildProvenance();

/** True when the benchmark itself was compiled with optimisation. */
bool optimisedBuild();

} // namespace lightpc::perfbench

#endif // LIGHTPC_PERFBENCH_BENCH_HH
