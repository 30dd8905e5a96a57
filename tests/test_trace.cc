/**
 * @file
 * Tests for trace recording and replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "platform/system.hh"
#include "sim/logging.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::workload;

std::vector<cpu::Instr>
drain(cpu::InstrStream &stream)
{
    std::vector<cpu::Instr> out;
    cpu::Instr instr;
    while (stream.next(instr))
        out.push_back(instr);
    return out;
}

TEST(Trace, RoundTripsSmallSequence)
{
    std::stringstream buffer;
    {
        TraceWriter writer(buffer);
        writer.append({cpu::InstrKind::Alu, 0});
        writer.append({cpu::InstrKind::Alu, 0});
        writer.append({cpu::InstrKind::Load, 0x1234});
        writer.append({cpu::InstrKind::Store, 0xbeef00});
        writer.append({cpu::InstrKind::Alu, 0});
        writer.finish();
    }

    TraceStream replay(buffer);
    EXPECT_EQ(replay.totalInstructions(), 5u);
    const auto out = drain(replay);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0].kind, cpu::InstrKind::Alu);
    EXPECT_EQ(out[1].kind, cpu::InstrKind::Alu);
    EXPECT_EQ(out[2].kind, cpu::InstrKind::Load);
    EXPECT_EQ(out[2].addr, 0x1234u);
    EXPECT_EQ(out[3].kind, cpu::InstrKind::Store);
    EXPECT_EQ(out[3].addr, 0xbeef00u);
    EXPECT_EQ(out[4].kind, cpu::InstrKind::Alu);
}

TEST(Trace, AluRunsAreLengthEncoded)
{
    std::stringstream buffer;
    {
        TraceWriter writer(buffer);
        for (int i = 0; i < 1000; ++i)
            writer.append({cpu::InstrKind::Alu, 0});
        writer.finish();
    }
    // One "A 1000" record, not 1000 lines.
    EXPECT_LT(buffer.str().size(), 100u);
    TraceStream replay(buffer);
    EXPECT_EQ(replay.totalInstructions(), 1000u);
    EXPECT_EQ(drain(replay).size(), 1000u);
}

TEST(Trace, RoundTripsSyntheticWorkloadExactly)
{
    SyntheticConfig config;
    config.scaleDivisor = 100000;
    SyntheticStream original(findWorkload("gcc"), config, 0, 1 << 20);
    SyntheticStream reference(findWorkload("gcc"), config, 0,
                              1 << 20);

    std::stringstream buffer;
    TraceWriter writer(buffer);
    const std::uint64_t captured = writer.capture(original);
    EXPECT_EQ(captured, original.totalInstructions());

    TraceStream replay(buffer);
    EXPECT_EQ(replay.totalInstructions(), captured);
    cpu::Instr a, b;
    while (reference.next(a)) {
        ASSERT_TRUE(replay.next(b));
        ASSERT_EQ(a.kind, b.kind);
        if (a.kind != cpu::InstrKind::Alu) {
            ASSERT_EQ(a.addr, b.addr);
        }
    }
    EXPECT_FALSE(replay.next(b));
}

TEST(Trace, ReplayDrivesIdenticalSimulation)
{
    // The same workload, once native and once through a trace,
    // must produce identical timing on the platform.
    SyntheticConfig config;
    config.scaleDivisor = 60000;

    auto run_with = [&](cpu::InstrStream &stream) {
        platform::SystemConfig sys_config;
        sys_config.kind = platform::PlatformKind::LightPC;
        platform::System system(sys_config);
        return system.runStreams({&stream}).elapsed;
    };

    SyntheticStream native(findWorkload("Redis"), config, 0,
                           platform::System::workloadBase);
    std::stringstream buffer;
    TraceWriter writer(buffer);
    SyntheticStream to_capture(findWorkload("Redis"), config, 0,
                               platform::System::workloadBase);
    writer.capture(to_capture);
    TraceStream replay(buffer);

    EXPECT_EQ(run_with(native), run_with(replay));
}

TEST(Trace, RewindRestarts)
{
    std::stringstream buffer;
    TraceWriter writer(buffer);
    writer.append({cpu::InstrKind::Load, 0x40});
    writer.append({cpu::InstrKind::Store, 0x80});
    writer.finish();
    TraceStream replay(buffer);
    const auto first = drain(replay);
    replay.rewind();
    const auto second = drain(replay);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].addr, second[i].addr);
}

TEST(Trace, CommentsAndBlankLinesIgnored)
{
    std::stringstream buffer(
        "# a comment\n\nL ff\n# another\nA 3\nS 10\n");
    TraceStream replay(buffer);
    EXPECT_EQ(replay.totalInstructions(), 5u);
}

TEST(Trace, MalformedRecordsRejected)
{
    {
        std::stringstream buffer("X 123\n");
        EXPECT_THROW(TraceStream{buffer}, FatalError);
    }
    {
        std::stringstream buffer("A 0\n");
        EXPECT_THROW(TraceStream{buffer}, FatalError);
    }
    {
        std::stringstream buffer("L\n");
        EXPECT_THROW(TraceStream{buffer}, FatalError);
    }
}

TEST(Trace, FileHelpers)
{
    const std::string path = "/tmp/lightpc_trace_test.txt";
    SyntheticConfig config;
    config.scaleDivisor = 500000;
    SyntheticStream stream(findWorkload("AES"), config, 0, 0);
    const std::uint64_t captured = captureTraceFile(path, stream);
    auto replay = loadTraceFile(path);
    EXPECT_EQ(replay->totalInstructions(), captured);
    EXPECT_THROW(loadTraceFile("/nonexistent/trace"), FatalError);
}

} // namespace
