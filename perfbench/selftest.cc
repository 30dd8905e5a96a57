/**
 * @file
 * Self-tests of the benchmark's own code: the statistics helpers, the
 * timing port's transparency, and the seed reaching the inputs.
 */

#include <gtest/gtest.h>

#include "bench.hh"
#include "fault/cluster_campaign.hh"
#include "workload/spec.hh"

using namespace lightpc;
using namespace lightpc::perfbench;

namespace
{

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i));  // unsorted on purpose
    return v;
}

} // namespace

TEST(TailPercentile, KeepsTenSamplesBeyond)
{
    const TailStat t = tailPercentile(ramp(100));
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_DOUBLE_EQ(t.value, 90.0);  // 91..100 lie beyond it
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);

    const TailStat small = tailPercentile(ramp(11));
    ASSERT_TRUE(small.valid);
    EXPECT_DOUBLE_EQ(small.value, 1.0);
}

TEST(TailPercentile, TooFewSamplesIsInvalid)
{
    const TailStat t = tailPercentile(ramp(10));
    EXPECT_FALSE(t.valid);
    EXPECT_DOUBLE_EQ(t.value, 10.0);
    EXPECT_DOUBLE_EQ(t.percentile, 100.0);
    EXPECT_FALSE(tailPercentile({}).valid);
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(SelfShare, RemainderAfterChildren)
{
    EXPECT_DOUBLE_EQ(selfShare(1.0, {0.25, 0.5}), 0.25);
    EXPECT_DOUBLE_EQ(selfShare(8.0, {2.0, 2.0}), 0.5);
    EXPECT_DOUBLE_EQ(selfShare(1.0, {}), 1.0);
    EXPECT_DOUBLE_EQ(selfShare(0.0, {1.0}), 0.0);
}

namespace
{

std::uint64_t
runDigest(const workload::WorkloadSpec &spec, std::uint64_t seed,
          TimingPort *port)
{
    platform::SystemConfig cfg;
    cfg.scaleDivisor = 200000;
    cfg.seed = seed;
    cfg.overridePort = port;
    platform::System sys(cfg);
    if (port)
        port->bind(sys.psm());
    sim::Fnv64 d;
    foldRunResult(d, sys.run(spec));
    return d.h;
}

} // namespace

TEST(TimingPort, ForwardsBitIdentically)
{
    const workload::WorkloadSpec &spec = workload::findWorkload("mcf");
    TimingPort port;
    EXPECT_EQ(runDigest(spec, 7, &port), runDigest(spec, 7, nullptr));
    EXPECT_GT(port.accesses, 0u);
    EXPECT_GT(port.hostNs, 0u);
}

TEST(Seed, ChangesEveryWorkloadsInputsAndDigest)
{
    fault::ClusterCampaignConfig ga, gb;
    ga.seed = 1;
    gb.seed = 2;
    EXPECT_NE(fault::clusterTrialConfig(ga, 0).seed,
              fault::clusterTrialConfig(gb, 0).seed);

    Sizes sizes;
    sizes.table2Divisor = 400000;
    sizes.campaignCuts = 20;
    sizes.clusterSeedsPerCell = 2;
    for (const std::string &w : workloadNames()) {
        const Batch one = runBatch(w, 1, 2, sizes);
        const Batch again = runBatch(w, 1, 1, sizes);
        const Batch other = runBatch(w, 2, 2, sizes);
        EXPECT_TRUE(one.failures.empty()) << w;
        EXPECT_EQ(one.digest, again.digest) << w;
        EXPECT_NE(one.digest, other.digest) << w;
        EXPECT_GE(one.opMs.size(), 11u) << w;  // enough for a tail
    }
}
