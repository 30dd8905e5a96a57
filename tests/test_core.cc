/**
 * @file
 * Unit tests for the core timing model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hh"
#include "mem/memory_port.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::cpu;

class StubMemory : public mem::MemoryPort
{
  public:
    explicit StubMemory(Tick latency) : latency(latency) {}

    mem::AccessResult
    access(const mem::MemRequest &, Tick when) override
    {
        ++count;
        mem::AccessResult result;
        result.completeAt = when + latency;
        result.mediaFreeAt = result.completeAt;
        return result;
    }

    Tick latency;
    std::uint64_t count = 0;
};

/** A fixed list of instructions. */
class ListStream : public InstrStream
{
  public:
    explicit ListStream(std::vector<Instr> instrs)
        : instrs(std::move(instrs))
    {}

    bool
    next(Instr &out) override
    {
        if (pos >= instrs.size())
            return false;
        out = instrs[pos++];
        return true;
    }

  private:
    std::vector<Instr> instrs;
    std::size_t pos = 0;
};

CoreParams
testCore()
{
    CoreParams p;
    p.dcache.capacityBytes = 512;
    return p;
}

TEST(Core, AluWorkRetiresAtIssueRate)
{
    EventQueue eq;
    StubMemory mem(100 * tickNs);
    Core core(eq, testCore(), mem);

    ListStream stream(std::vector<Instr>(1000, {InstrKind::Alu, 0}));
    core.run(stream, 0);
    eq.run();

    EXPECT_TRUE(core.finished());
    EXPECT_EQ(core.stats().instructions, 1000u);
    // 1.6 GHz, CPI 1 -> 625 ps per instruction.
    EXPECT_EQ(core.localTime(), 1000 * 625u);
    EXPECT_NEAR(core.ipc(), 1.0, 0.01);
}

TEST(Core, LoadMissBlocksTheCore)
{
    EventQueue eq;
    StubMemory mem(100 * tickNs);
    Core core(eq, testCore(), mem);

    ListStream stream({{InstrKind::Load, 0}, {InstrKind::Alu, 0}});
    core.run(stream, 0);
    eq.run();

    EXPECT_GE(core.localTime(), 100 * tickNs);
    EXPECT_GT(core.stats().loadStallTicks, 0u);
    EXPECT_LT(core.ipc(), 0.1);
}

TEST(Core, CachedLoadsDoNotStall)
{
    EventQueue eq;
    StubMemory mem(100 * tickNs);
    Core core(eq, testCore(), mem);

    std::vector<Instr> instrs(100, {InstrKind::Load, 0});
    ListStream stream(instrs);
    core.run(stream, 0);
    eq.run();

    // One miss, then 99 hits at issue rate.
    EXPECT_EQ(mem.count, 1u);
    EXPECT_NEAR(core.ipc(), 100.0 / (100.0 + 160.0), 0.1);
}

TEST(Core, StoresRetireThroughStoreBuffer)
{
    EventQueue eq;
    StubMemory mem(1000 * tickNs);
    Core core(eq, testCore(), mem);

    //8 distinct-line store misses fit the 8-entry store buffer; the
    // core keeps going without waiting 1000 ns each.
    std::vector<Instr> instrs;
    for (int i = 0; i < 8; ++i)
        instrs.push_back({InstrKind::Store, mem::Addr(i) * 64});
    ListStream stream(instrs);
    core.run(stream, 0);
    eq.run();

    EXPECT_LT(core.localTime(), 1000 * tickNs);
    EXPECT_EQ(core.stats().storeStallTicks, 0u);
}

TEST(Core, StoreBufferBackpressure)
{
    EventQueue eq;
    StubMemory mem(1000 * tickNs);
    CoreParams params = testCore();
    params.storeBufferEntries = 2;
    Core core(eq, params, mem);

    std::vector<Instr> instrs;
    for (int i = 0; i < 6; ++i)
        instrs.push_back({InstrKind::Store, mem::Addr(i) * 64});
    ListStream stream(instrs);
    core.run(stream, 0);
    eq.run();

    EXPECT_GT(core.stats().storeStallTicks, 0u);
}

TEST(Core, StopParksTheCore)
{
    EventQueue eq;
    StubMemory mem(10 * tickNs);
    CoreParams params = testCore();
    params.episodeLimit = 16;
    Core core(eq, params, mem);

    ListStream stream(
        std::vector<Instr>(100000, {InstrKind::Alu, 0}));
    core.run(stream, 0);
    // Let it start, then request a stop.
    eq.step();
    core.stop();
    eq.run();

    EXPECT_TRUE(core.idle());
    EXPECT_FALSE(core.finished());
    EXPECT_LT(core.stats().instructions, 100000u);
}

TEST(Core, FinishedCallbackFires)
{
    EventQueue eq;
    StubMemory mem(10 * tickNs);
    Core core(eq, testCore(), mem);

    bool fired = false;
    core.onFinished([&] { fired = true; });
    ListStream stream({{InstrKind::Alu, 0}});
    core.run(stream, 0);
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_TRUE(core.finished());
}

TEST(Core, FrequencyScalesExecutionTime)
{
    EventQueue eq1, eq2;
    StubMemory mem1(100 * tickNs), mem2(100 * tickNs);
    CoreParams fast = testCore();
    CoreParams slow = testCore();
    slow.freqMhz = 400;  // the FPGA configuration
    Core a(eq1, fast, mem1);
    Core b(eq2, slow, mem2);

    std::vector<Instr> instrs(1000, {InstrKind::Alu, 0});
    ListStream s1(instrs), s2(instrs);
    a.run(s1, 0);
    b.run(s2, 0);
    eq1.run();
    eq2.run();
    EXPECT_EQ(b.localTime(), a.localTime() * 4);
}

TEST(Core, MemoryBoundWorkStallsMoreAtHigherFrequency)
{
    // The Fig. 14 effect: raising core frequency grows the *stall
    // share* of memory-bound work.
    auto stall_fraction = [](std::uint64_t mhz) {
        EventQueue eq;
        StubMemory mem(100 * tickNs);
        CoreParams params;
        params.freqMhz = mhz;
        params.dcache.capacityBytes = 512;
        Core core(eq, params, mem);
        std::vector<Instr> instrs;
        for (int i = 0; i < 2000; ++i) {
            // Streaming loads: mostly misses.
            instrs.push_back({InstrKind::Load, mem::Addr(i) * 64});
            instrs.push_back({InstrKind::Alu, 0});
        }
        ListStream stream(instrs);
        core.run(stream, 0);
        eq.run();
        return static_cast<double>(core.stats().loadStallTicks)
            / static_cast<double>(core.localTime());
    };
    EXPECT_GT(stall_fraction(1800), stall_fraction(800));
}

} // namespace

namespace
{

TEST(CoreIFetch, DisabledByDefault)
{
    EventQueue eq;
    StubMemory mem(100 * tickNs);
    Core core(eq, testCore(), mem);
    EXPECT_EQ(core.icache(), nullptr);

    ListStream stream(std::vector<Instr>(100, {InstrKind::Alu, 0}));
    core.run(stream, 0);
    eq.run();
    EXPECT_EQ(core.stats().fetchStallTicks, 0u);
    EXPECT_EQ(mem.count, 0u);
}

TEST(CoreIFetch, SmallCodeFitsTheICache)
{
    EventQueue eq;
    StubMemory mem(100 * tickNs);
    CoreParams params = testCore();
    params.modelIFetch = true;
    Core core(eq, params, mem);
    core.setCodeRegion(1 << 30, 8 * 1024);  // fits 16 KB I$

    ListStream stream(
        std::vector<Instr>(50000, {InstrKind::Alu, 0}));
    core.run(stream, 0);
    eq.run();
    // Cold misses only: 8 KB / 64 B = 128 fills, then steady hits.
    EXPECT_LE(mem.count, 128u);
    EXPECT_GT(core.ipc(), 0.6);
}

TEST(CoreIFetch, LargeCodeThrashesTheICache)
{
    EventQueue eq;
    StubMemory mem(100 * tickNs);
    CoreParams params = testCore();
    params.modelIFetch = true;
    params.branchProbability = 0.2;  // jumpy control flow
    Core core(eq, params, mem);
    core.setCodeRegion(1 << 30, 4 << 20);  // 4 MB >> 16 KB I$

    ListStream stream(
        std::vector<Instr>(50000, {InstrKind::Alu, 0}));
    core.run(stream, 0);
    eq.run();
    EXPECT_GT(core.stats().fetchStallTicks, 0u);
    EXPECT_GT(mem.count, 1000u);
    EXPECT_LT(core.ipc(), 0.8);
}

TEST(CoreIFetch, RejectsTinyCodeRegion)
{
    EventQueue eq;
    StubMemory mem(10 * tickNs);
    CoreParams params = testCore();
    params.modelIFetch = true;
    Core core(eq, params, mem);
    EXPECT_THROW(core.setCodeRegion(0, 32), lightpc::FatalError);
}

} // namespace
