/**
 * @file
 * Tests for the Table II specs and the synthetic stream generators.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/spec.hh"
#include "workload/stream_bench.hh"
#include "platform/system.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::workload;

TEST(WorkloadSpec, TableHasSeventeenWorkloads)
{
    EXPECT_EQ(tableTwo().size(), 17u);
}

TEST(WorkloadSpec, LookupByName)
{
    const auto &mcf = findWorkload("mcf");
    EXPECT_EQ(mcf.category, Category::Spec);
    EXPECT_NEAR(mcf.rwRatio(), 345.0, 60.0);  // Table II: 345
    EXPECT_THROW(findWorkload("nope"), FatalError);
}

TEST(WorkloadSpec, LoadsDominateStores)
{
    // "the number of loads is 27x greater than that of stores, on
    // average" (Section VI-A).
    double sum = 0.0;
    for (const auto &spec : tableTwo())
        sum += spec.rwRatio();
    EXPECT_GT(sum / 17.0, 20.0);
    EXPECT_LT(sum / 17.0, 35.0);
}

TEST(WorkloadSpec, MultithreadFlagsMatchPaper)
{
    // HPC and in-memory DB run multithreaded; Crypto and SPEC do not.
    for (const auto &spec : tableTwo()) {
        const bool expect_mt = spec.category == Category::Hpc
            || spec.category == Category::InMemoryDb;
        EXPECT_EQ(spec.multithread, expect_mt) << spec.name;
    }
}

TEST(WorkloadSpec, CategoryNames)
{
    EXPECT_EQ(categoryName(Category::Crypto), "Crypto");
    EXPECT_EQ(categoryName(Category::InMemoryDb), "In-memory DB");
}

TEST(SyntheticStream, ProducesConfiguredInstructionCount)
{
    SyntheticConfig config;
    config.scaleDivisor = 25000;
    SyntheticStream stream(findWorkload("AES"), config, 0, 1 << 20);
    cpu::Instr instr;
    std::uint64_t n = 0;
    while (stream.next(instr))
        ++n;
    EXPECT_EQ(n, stream.totalInstructions());
    EXPECT_GT(n, 100000u);
}

TEST(SyntheticStream, MixMatchesSpec)
{
    SyntheticConfig config;
    config.scaleDivisor = 12000;
    const auto &spec = findWorkload("gcc");
    SyntheticStream stream(spec, config, 0, 1 << 20);
    cpu::Instr instr;
    std::uint64_t loads = 0, stores = 0, alu = 0;
    while (stream.next(instr)) {
        switch (instr.kind) {
          case cpu::InstrKind::Load:
            ++loads;
            break;
          case cpu::InstrKind::Store:
            ++stores;
            break;
          default:
            ++alu;
        }
    }
    const double total = static_cast<double>(loads + stores + alu);
    EXPECT_NEAR((loads + stores) / total, spec.memFraction, 0.01);
    // Table II counts are memory-level; the CPU-level load/store mix
    // is their expansion through the D$ hit rates.
    const double cpu_reads =
        spec.reads / (1.0 - spec.readHitRate);
    const double cpu_writes =
        spec.writes / (1.0 - spec.writeHitRate);
    EXPECT_NEAR(static_cast<double>(loads) / (loads + stores),
                cpu_reads / (cpu_reads + cpu_writes), 0.02);
}

TEST(SyntheticStream, DeterministicAndRewindable)
{
    SyntheticConfig config;
    config.scaleDivisor = 1200000;
    SyntheticStream a(findWorkload("Redis"), config, 0, 0);
    SyntheticStream b(findWorkload("Redis"), config, 0, 0);
    cpu::Instr ia, ib;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_EQ(a.next(ia), b.next(ib));
        ASSERT_EQ(ia.kind, ib.kind);
        ASSERT_EQ(ia.addr, ib.addr);
    }
    a.rewind();
    cpu::Instr first;
    a.next(first);
    SyntheticStream c(findWorkload("Redis"), config, 0, 0);
    cpu::Instr ic;
    c.next(ic);
    EXPECT_EQ(first.addr, ic.addr);
    EXPECT_EQ(first.kind, ic.kind);
}

TEST(SyntheticStream, ThreadsGetDisjointHotSets)
{
    SyntheticConfig config;
    config.scaleDivisor = 1200000;
    config.threads = 4;
    const auto &spec = findWorkload("Redis");
    SyntheticStream t0(spec, config, 0, 0);
    SyntheticStream t1(spec, config, 1, 0);
    // Hot accesses of thread 0 stay below thread 1's hot base.
    cpu::Instr instr;
    for (int i = 0; i < 2000; ++i) {
        t0.next(instr);
        if (instr.kind != cpu::InstrKind::Alu
            && instr.addr < config.threads * SyntheticConfig::hotBytes) {
            EXPECT_LT(instr.addr, SyntheticConfig::hotBytes);
        }
    }
    (void)t1;
}

TEST(SyntheticStream, MakeStreamsHonoursMultithreading)
{
    SyntheticConfig config;
    config.scaleDivisor = 1200000;
    const auto mt = makeStreams(findWorkload("Redis"), config, 8, 0);
    EXPECT_EQ(mt.size(), 8u);
    const auto st = makeStreams(findWorkload("mcf"), config, 8, 0);
    EXPECT_EQ(st.size(), 1u);
}

/** One instruction as next() yields it. */
struct Step
{
    cpu::InstrKind kind;
    mem::Addr addr;

    bool operator==(const Step &) const = default;
};

/** Drain @p stream one next() call at a time. */
std::vector<Step>
drainSingle(SyntheticStream &stream)
{
    std::vector<Step> steps;
    cpu::Instr instr;
    while (stream.next(instr)) {
        EXPECT_EQ(instr.count, 1u);
        steps.push_back({instr.kind, instr.addr});
    }
    return steps;
}

/**
 * Drain @p stream through nextRun() with random budgets, expanding
 * each entry into its ALU prefix and its own instruction, and check
 * produced() after every entry.
 */
std::vector<Step>
drainRuns(SyntheticStream &stream, Rng &budgets)
{
    std::vector<Step> steps;
    cpu::Instr instr;
    for (;;) {
        const auto budget =
            static_cast<std::uint32_t>(budgets.between(1, 256));
        if (!stream.nextRun(instr, budget))
            break;
        EXPECT_GE(instr.count, 1u);
        EXPECT_LE(instr.count, budget);
        steps.insert(steps.end(), instr.count - 1,
                     Step{cpu::InstrKind::Alu, 0});
        steps.push_back({instr.kind, instr.addr});
        EXPECT_EQ(stream.produced(), steps.size());
    }
    return steps;
}

TEST(SyntheticStream, RunEntriesExpandToTheSingleStepSequence)
{
    SyntheticConfig config;
    config.scaleDivisor = 400000;
    Rng budgets(37);
    for (const auto &spec : tableTwo()) {
        for (const std::uint64_t seed : {1u, 5u}) {
            SCOPED_TRACE(spec.name + " seed " + std::to_string(seed));
            config.seed = seed;
            auto single = makeStreams(spec, config, 2, 1 << 20);
            auto runs = makeStreams(spec, config, 2, 1 << 20);
            for (std::size_t t = 0; t < single.size(); ++t) {
                const auto want = drainSingle(*single[t]);
                ASSERT_EQ(want.size(), single[t]->totalInstructions());
                ASSERT_TRUE(drainRuns(*runs[t], budgets) == want);

                // After rewind() both entry points start over alike.
                runs[t]->rewind();
                ASSERT_TRUE(drainRuns(*runs[t], budgets) == want);
                single[t]->rewind();
                ASSERT_TRUE(drainSingle(*single[t]) == want);
            }
        }
    }
}

TEST(SyntheticStream, RunEntriesStopAtTheBudgetAndTheEnd)
{
    SyntheticConfig config;
    config.scaleDivisor = 4000000;
    SyntheticStream stream(findWorkload("AES"), config, 0, 0);
    cpu::Instr instr;
    std::uint64_t total = 0;
    while (stream.nextRun(instr, 7)) {
        ASSERT_LE(instr.count, 7u);
        // An entry shorter than the budget ends in a memory op or at
        // the end of the stream.
        if (instr.count < 7 && instr.kind == cpu::InstrKind::Alu) {
            ASSERT_EQ(stream.produced(), stream.totalInstructions());
        }
        total += instr.count;
    }
    EXPECT_EQ(total, stream.totalInstructions());
    EXPECT_FALSE(stream.nextRun(instr, 7));
    EXPECT_FALSE(stream.next(instr));
}

TEST(StreamBench, KernelShapes)
{
    EXPECT_EQ(streamKernelName(StreamKernel::Triad), "Triad");
    EXPECT_EQ(streamBytesPerIteration(StreamKernel::Copy), 16u);
    EXPECT_EQ(streamBytesPerIteration(StreamKernel::Add), 24u);
}

TEST(StreamBench, CopyEmitsLoadStorePairs)
{
    StreamWorkload copy(StreamKernel::Copy, 64, 0);
    cpu::Instr instr;
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(copy.next(instr));
        EXPECT_EQ(instr.kind, cpu::InstrKind::Load);
        ASSERT_TRUE(copy.next(instr));
        EXPECT_EQ(instr.kind, cpu::InstrKind::Store);
    }
    EXPECT_FALSE(copy.next(instr));
    EXPECT_EQ(copy.bytesMoved(), 64u * 16);
}

TEST(StreamBench, TriadMicroSequence)
{
    StreamWorkload triad(StreamKernel::Triad, 4, 0);
    cpu::Instr instr;
    // load b, load c, alu, alu, store a
    const cpu::InstrKind expected[] = {
        cpu::InstrKind::Load, cpu::InstrKind::Load,
        cpu::InstrKind::Alu, cpu::InstrKind::Alu,
        cpu::InstrKind::Store,
    };
    for (const auto kind : expected) {
        ASSERT_TRUE(triad.next(instr));
        EXPECT_EQ(instr.kind, kind);
    }
}

TEST(StreamBench, AddressesAreSequentialPerArray)
{
    StreamWorkload copy(StreamKernel::Copy, 16, 1 << 20);
    cpu::Instr a0, s0, a1, s1;
    copy.next(a0);
    copy.next(s0);
    copy.next(a1);
    copy.next(s1);
    EXPECT_EQ(a1.addr, a0.addr + 8);
    EXPECT_EQ(s1.addr, s0.addr + 8);
}

TEST(StreamBench, ThreadsChunkTheArrays)
{
    StreamWorkload t0(StreamKernel::Copy, 100, 0, 0, 4);
    StreamWorkload t3(StreamKernel::Copy, 100, 0, 3, 4);
    EXPECT_EQ(t0.iterations(), 25u);
    EXPECT_EQ(t3.iterations(), 25u);
    cpu::Instr i0, i3;
    t0.next(i0);
    t3.next(i3);
    EXPECT_EQ(i3.addr - i0.addr, 75u * 8);
}

TEST(StreamBench, RejectsBadConfig)
{
    EXPECT_THROW(StreamWorkload(StreamKernel::Copy, 0, 0),
                 lightpc::FatalError);
    EXPECT_THROW(StreamWorkload(StreamKernel::Copy, 10, 0, 4, 4),
                 lightpc::FatalError);
}

} // namespace

namespace
{

TEST(MixedStreams, OneStreamPerWorkload)
{
    SyntheticConfig config;
    config.scaleDivisor = 100000;
    const auto streams = makeMixedStreams(
        {"Redis", "mcf", "AES"}, config, 1 << 20);
    EXPECT_EQ(streams.size(), 3u);
}

TEST(MixedStreams, RegionsAreDisjoint)
{
    SyntheticConfig config;
    config.scaleDivisor = 100000;
    auto streams = makeMixedStreams({"AES", "SHA512"}, config, 0);
    // Collect address ranges touched by each stream.
    std::vector<std::pair<mem::Addr, mem::Addr>> ranges;
    for (auto &stream : streams) {
        mem::Addr lo = ~mem::Addr(0), hi = 0;
        cpu::Instr instr;
        for (int i = 0; i < 50000 && stream->next(instr); ++i) {
            if (instr.kind == cpu::InstrKind::Alu)
                continue;
            lo = std::min(lo, instr.addr);
            hi = std::max(hi, instr.addr);
        }
        ranges.emplace_back(lo, hi);
    }
    EXPECT_TRUE(ranges[0].second < ranges[1].first
                || ranges[1].second < ranges[0].first);
}

TEST(MixedStreams, RunsOnAPlatform)
{
    SyntheticConfig config;
    config.scaleDivisor = 60000;
    auto streams = makeMixedStreams(
        {"Redis", "gcc", "bzip2", "mcf"}, config,
        platform::System::workloadBase);
    std::vector<cpu::InstrStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());

    platform::SystemConfig sys_config;
    sys_config.kind = platform::PlatformKind::LightPC;
    platform::System system(sys_config);
    const auto result = system.runStreams(raw);
    EXPECT_GT(result.instructions, 0u);
    // Each of the four cores retired its own workload.
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_GT(system.core(c).stats().instructions, 0u);
}

} // namespace
