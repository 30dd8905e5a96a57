/**
 * @file
 * Unit tests for the platform System assembly itself.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <string>
#include <vector>

#include "mem/timed_mem.hh"
#include "platform/system.hh"
#include "sim/logging.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::platform;

SystemConfig
configFor(PlatformKind kind)
{
    SystemConfig config;
    config.kind = kind;
    return config;
}

TEST(System, PlatformNames)
{
    EXPECT_EQ(platformName(PlatformKind::LegacyPC), "LegacyPC");
    EXPECT_EQ(platformName(PlatformKind::LightPCB), "LightPC-B");
    EXPECT_EQ(platformName(PlatformKind::LightPC), "LightPC");
}

TEST(System, LegacyHasDramOthersDoNot)
{
    System legacy(configFor(PlatformKind::LegacyPC));
    System light(configFor(PlatformKind::LightPC));
    EXPECT_NE(legacy.dram(), nullptr);
    EXPECT_EQ(light.dram(), nullptr);
}

TEST(System, KindSelectsPsmFeatures)
{
    System b(configFor(PlatformKind::LightPCB));
    System light(configFor(PlatformKind::LightPC));
    EXPECT_FALSE(b.psm().params().eccReconstruction);
    EXPECT_FALSE(b.psm().params().earlyReturnWrites);
    EXPECT_TRUE(light.psm().params().eccReconstruction);
}

TEST(System, PsmOverrideWins)
{
    psm::PsmParams params =
        psmParamsFor(PlatformKind::LightPC, 6);
    params.busLatency = 123 * tickNs;
    SystemConfig config;
    config.psmParams = params;
    System system(config);
    EXPECT_EQ(system.psm().params().busLatency, 123 * tickNs);
}

TEST(System, LegacyRoutesPmemWindowToPsm)
{
    System system(configFor(PlatformKind::LegacyPC));
    mem::MemRequest req;
    req.op = mem::MemOp::Write;
    req.addr = System::pmemWindowBase + 64;
    system.memoryPort().access(req, 0);
    EXPECT_EQ(system.psm().stats().writes, 1u);
    EXPECT_EQ(system.dram()->totalAccesses(), 0u);

    req.addr = 4096;  // below the window -> DRAM
    system.memoryPort().access(req, 0);
    EXPECT_EQ(system.dram()->totalAccesses(), 1u);
}

TEST(System, LightPcRoutesEverythingToPsm)
{
    System system(configFor(PlatformKind::LightPC));
    mem::MemRequest req;
    req.op = mem::MemOp::Read;
    req.addr = 4096;
    system.memoryPort().access(req, 0);
    EXPECT_EQ(system.psm().stats().reads, 1u);
}

TEST(System, TimedMemSpanMatchesLineByLineAccess)
{
    // memoryPort() serves a span in one PSM walk where every line
    // reaches the PSM on one side of pmemWindowBase, and line by line
    // where the span touches DRAM or crosses the window. Either way
    // the result is that of one access() per line on a twin system.
    struct Case
    {
        PlatformKind kind;
        mem::Addr base;
    };
    constexpr mem::Addr window = System::pmemWindowBase;
    for (const Case c : {Case{PlatformKind::LightPC, 4096},
                         Case{PlatformKind::LightPC, window - 640},
                         Case{PlatformKind::LegacyPC, 4096},
                         Case{PlatformKind::LegacyPC, window - 640},
                         Case{PlatformKind::LegacyPC, window + 4096}}) {
        SCOPED_TRACE(platformName(c.kind) + " at "
                     + std::to_string(c.base));
        System spans(configFor(c.kind)), lines(configFor(c.kind));
        mem::TimedMem timed(spans.memoryPort());
        Tick t_span = 0, t_line = 0;
        for (std::uint64_t round = 0; round < 24; ++round) {
            const mem::MemOp op = round % 3 ? mem::MemOp::Write
                                            : mem::MemOp::Read;
            const mem::Addr addr = c.base + round * 37 * 64;
            const std::uint64_t n = 1 + round * 13;
            t_span = op == mem::MemOp::Write
                ? timed.writeSpan(t_span, addr, n * 64)
                : timed.readSpan(t_span, addr, n * 64);
            mem::MemRequest req;
            req.op = op;
            for (std::uint64_t k = 0; k < n; ++k) {
                req.addr = addr + k * 64;
                t_line = lines.memoryPort().access(req, t_line).completeAt;
            }
            ASSERT_EQ(t_span, t_line) << "round " << round;
        }
        EXPECT_EQ(spans.memoryPort().fence(t_span),
                  lines.memoryPort().fence(t_line));
        EXPECT_EQ(spans.psm().stats().reads, lines.psm().stats().reads);
        EXPECT_EQ(spans.psm().stats().writes, lines.psm().stats().writes);
        EXPECT_EQ(spans.psm().stats().rowBufferWriteHits,
                  lines.psm().stats().rowBufferWriteHits);
        if (spans.dram()) {
            EXPECT_EQ(spans.dram()->totalAccesses(),
                      lines.dram()->totalAccesses());
        }
    }
}

TEST(System, FenceReachesThePsmFlushPort)
{
    System system(configFor(PlatformKind::LightPC));
    mem::MemRequest req;
    req.op = mem::MemOp::Write;
    req.addr = 0;
    system.memoryPort().access(req, 0);
    const Tick quiescent = system.memoryPort().fence(100);
    EXPECT_GT(quiescent, 100u);
    EXPECT_EQ(system.psm().stats().flushes, 1u);
}

TEST(System, RunRejectsBadStreamCounts)
{
    SystemConfig two_cores;
    two_cores.cores = 2;
    System system(two_cores);
    EXPECT_THROW(system.runStreams({}), FatalError);
}

TEST(System, CollectFillsResultFields)
{
    SystemConfig config;
    config.scaleDivisor = 60000;
    System system(config);
    const auto result =
        system.run(workload::findWorkload("SHA512"));
    EXPECT_EQ(result.platform, "LightPC");
    EXPECT_EQ(result.workload, "SHA512");
    EXPECT_GT(result.elapsed, 0u);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.watts, 0.0);
    EXPECT_GT(result.joules, 0.0);
    EXPECT_GT(result.loadHitRate, 0.9);  // SHA512: 99.9%
}

TEST(System, ActivityUtilizationBounded)
{
    SystemConfig config;
    config.scaleDivisor = 60000;
    System system(config);
    system.run(workload::findWorkload("AES"));
    const auto sample =
        system.activity(system.eventQueue().now(), 1);
    EXPECT_GE(sample.coreUtilization, 0.0);
    EXPECT_LE(sample.coreUtilization, 1.0);
    EXPECT_EQ(sample.coresActive + sample.coresIdle,
              system.coreCount());
}

TEST(System, FrequencyConfigPropagates)
{
    SystemConfig config;
    config.freqMhz = 400;  // the FPGA configuration
    System system(config);
    EXPECT_EQ(system.core(0).clock().mhz(), 400u);
    EXPECT_EQ(system.core(0).clock().period(), 2500u);
}

TEST(System, ZeroCoresRejected)
{
    SystemConfig config;
    config.cores = 0;
    EXPECT_THROW(System{config}, FatalError);
}

/** Forwards next() only, so a core gets one instruction per entry. */
class SingleStep : public cpu::InstrStream
{
  public:
    explicit SingleStep(cpu::InstrStream &inner) : inner(inner) {}

    bool next(cpu::Instr &out) override { return inner.next(out); }

  private:
    cpu::InstrStream &inner;
};

/** Everything a Table II run leaves behind that a figure could read. */
struct RunRecord
{
    RunResult result;
    Tick endTick = 0;
    std::vector<cpu::CoreStats> cores;
    std::vector<cache::L1Stats> caches;
    std::vector<Tick> localTimes;

    bool operator==(const RunRecord &) const = default;
};

RunRecord
runSpec(PlatformKind kind, const workload::WorkloadSpec &spec,
        bool single_step)
{
    SystemConfig config = configFor(kind);
    config.scaleDivisor = 200000;
    System system(config);

    workload::SyntheticConfig wconfig;
    wconfig.scaleDivisor = config.scaleDivisor;
    wconfig.seed = config.seed;
    auto streams = workload::makeStreams(spec, wconfig, system.coreCount(),
                                         System::workloadBase);
    std::vector<std::unique_ptr<SingleStep>> wrapped;
    std::vector<cpu::InstrStream *> raw;
    for (auto &stream : streams) {
        if (single_step) {
            wrapped.push_back(std::make_unique<SingleStep>(*stream));
            raw.push_back(wrapped.back().get());
        } else {
            raw.push_back(stream.get());
        }
    }

    RunRecord record;
    record.result = system.runStreams(raw);
    record.endTick = system.eventQueue().now();
    for (std::uint32_t c = 0; c < system.coreCount(); ++c) {
        record.cores.push_back(system.core(c).stats());
        record.caches.push_back(system.core(c).dcache().stats());
        record.localTimes.push_back(system.core(c).localTime());
    }
    return record;
}

TEST(System, RunEntriesRetireExactlyAsSingleSteps)
{
    // Every Table II spec (multithreaded ones on all eight cores) on
    // both OC-PMEM platforms: merged ALU runs must not move a tick.
    for (const PlatformKind kind :
         {PlatformKind::LightPC, PlatformKind::LightPCB}) {
        for (const auto &spec : workload::tableTwo()) {
            SCOPED_TRACE(spec.name + " on " + platformName(kind));
            const RunRecord direct = runSpec(kind, spec, false);
            const RunRecord single = runSpec(kind, spec, true);
            ASSERT_GT(direct.result.instructions, 0u);
            EXPECT_EQ(direct.result.elapsed, single.result.elapsed);
            EXPECT_EQ(direct.result.coreTotals, single.result.coreTotals);
            EXPECT_EQ(direct.result.psmStats, single.result.psmStats);
            EXPECT_TRUE(direct == single);
        }
    }
}

TEST(System, InstructionFetchCoreIsUnchangedByRunEntries)
{
    // With modelIFetch on, the core asks for one instruction at a
    // time; the wrapped and direct streams must agree exactly.
    auto run = [](bool single_step) {
        SystemConfig config;
        config.scaleDivisor = 100000;
        System system(config);
        workload::SyntheticConfig wconfig;
        wconfig.scaleDivisor = config.scaleDivisor;
        workload::SyntheticStream stream(workload::findWorkload("gcc"),
                                         wconfig, 0, System::workloadBase);
        SingleStep wrapped(stream);

        cpu::CoreParams params;
        params.modelIFetch = true;
        params.branchProbability = 0.08;
        cpu::Core core(system.eventQueue(), params,
                       system.memoryPort());
        core.setCodeRegion(std::uint64_t(3) << 30, 512 << 10);
        if (single_step)
            core.run(wrapped, 0);
        else
            core.run(stream, 0);
        system.eventQueue().run();
        EXPECT_TRUE(core.finished());
        return std::make_tuple(core.stats(), core.dcache().stats(),
                               core.icache()->stats(), core.localTime(),
                               system.psm().stats());
    };
    const auto direct = run(false);
    EXPECT_GT(std::get<0>(direct).fetchStallTicks, 0u);
    EXPECT_TRUE(direct == run(true));
}

} // namespace
