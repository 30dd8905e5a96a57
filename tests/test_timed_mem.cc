/**
 * @file
 * Tests for the timed+functional memory accessor.
 */

#include <gtest/gtest.h>

#include "mem/backing_store.hh"
#include "mem/memory_port.hh"
#include "mem/timed_mem.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::mem;

class CountingPort : public MemoryPort
{
  public:
    explicit CountingPort(Tick latency) : latency(latency) {}

    AccessResult
    access(const MemRequest &req, Tick when) override
    {
        ++count;
        lastOp = req.op;
        AccessResult result;
        result.completeAt = when + latency;
        return result;
    }

    Tick latency;
    std::uint64_t count = 0;
    MemOp lastOp = MemOp::Read;
};

TEST(TimedMem, WritesAreFunctionalAndTimed)
{
    CountingPort port(100 * tickNs);
    BackingStore store;
    TimedMem mem(port, &store);
    const std::uint64_t value = 0x1122334455667788ULL;
    const Tick done = mem.writeValue(0, 4096, value);
    EXPECT_EQ(done, 100 * tickNs);
    EXPECT_EQ(store.readValue<std::uint64_t>(4096), value);
    EXPECT_EQ(port.lastOp, MemOp::Write);
}

TEST(TimedMem, ReadsReturnStoredBytes)
{
    CountingPort port(50 * tickNs);
    BackingStore store;
    store.writeValue<std::uint32_t>(128, 42);
    TimedMem mem(port, &store);
    std::uint32_t out = 0;
    const Tick done = mem.readValue(10, 128, out);
    EXPECT_EQ(out, 42u);
    EXPECT_EQ(done, 10 + 50 * tickNs);
}

TEST(TimedMem, SpanChargesPerLine)
{
    CountingPort port(10 * tickNs);
    TimedMem mem(port);
    // 10 lines, serialized behind each other at 10 ns.
    const Tick done = mem.writeSpan(0, 0, 640);
    EXPECT_EQ(port.count, 10u);
    EXPECT_EQ(done, 100 * tickNs);
}

TEST(TimedMem, UnalignedSpanCoversAllTouchedLines)
{
    CountingPort port(10 * tickNs);
    TimedMem mem(port);
    // 2 bytes straddling a line boundary -> 2 lines.
    mem.writeSpan(0, 63, 2);
    EXPECT_EQ(port.count, 2u);
}

TEST(TimedMem, ZeroLengthIsFree)
{
    CountingPort port(10 * tickNs);
    TimedMem mem(port);
    EXPECT_EQ(mem.writeSpan(77, 0, 0), 77u);
    EXPECT_EQ(port.count, 0u);
}

TEST(TimedMem, LargeSpansExtrapolate)
{
    CountingPort port(10 * tickNs);
    TimedMem mem(port);
    const std::uint64_t big = (TimedMem::sampleLines * 4) * 64;
    const Tick done = mem.writeSpan(0, 0, big);
    // Only the sample prefix hits the port...
    EXPECT_EQ(port.count, TimedMem::sampleLines);
    // ...but the elapsed time covers all lines at the sampled rate.
    EXPECT_EQ(done, TimedMem::sampleLines * 4 * 10 * tickNs);
}

TEST(TimedMem, WorksWithoutBackingStore)
{
    CountingPort port(10 * tickNs);
    TimedMem mem(port);
    EXPECT_EQ(mem.backing(), nullptr);
    EXPECT_GT(mem.readSpan(0, 0, 128), 0u);
}

} // namespace
