/**
 * @file
 * Tests for the object-mode / trans-mode instruction-stream
 * decorators (the Fig. 4 software overheads).
 */

#include <gtest/gtest.h>

#include <vector>

#include "platform/pmem_modes.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::platform;

class FixedStream : public cpu::InstrStream
{
  public:
    explicit FixedStream(std::vector<cpu::Instr> instrs)
        : instrs(std::move(instrs))
    {}

    bool
    next(cpu::Instr &out) override
    {
        if (pos >= instrs.size())
            return false;
        out = instrs[pos++];
        return true;
    }

  private:
    std::vector<cpu::Instr> instrs;
    std::size_t pos = 0;
};

std::vector<cpu::Instr>
drain(cpu::InstrStream &stream)
{
    std::vector<cpu::Instr> out;
    cpu::Instr instr;
    while (stream.next(instr))
        out.push_back(instr);
    return out;
}

TEST(ObjectModeStream, PreservesInnerInstructions)
{
    std::vector<cpu::Instr> inner_instrs(
        500, {cpu::InstrKind::Load, 0x1000});
    FixedStream inner(inner_instrs);
    PmdkStreamParams params;
    ObjectModeStream stream(inner, params);
    const auto out = drain(stream);

    std::size_t loads_at_data = 0;
    for (const auto &instr : out)
        loads_at_data += instr.kind == cpu::InstrKind::Load
            && instr.addr == 0x1000;
    EXPECT_EQ(loads_at_data, 500u);
    EXPECT_GT(out.size(), 500u);  // swizzle work added
}

TEST(ObjectModeStream, SwizzleAddsAluAndMetadataLoads)
{
    std::vector<cpu::Instr> inner_instrs(
        5000, {cpu::InstrKind::Load, 0x1000});
    FixedStream inner(inner_instrs);
    PmdkStreamParams params;
    params.swizzleProbability = 0.5;
    ObjectModeStream stream(inner, params);
    const auto out = drain(stream);

    std::size_t alu = 0, metadata_loads = 0;
    for (const auto &instr : out) {
        alu += instr.kind == cpu::InstrKind::Alu;
        metadata_loads += instr.kind == cpu::InstrKind::Load
            && instr.addr >= PmdkStreamParams::metadataBase;
    }
    // ~2500 swizzles, each: 1 metadata load + (swizzleOps-1) ALU.
    EXPECT_NEAR(static_cast<double>(metadata_loads), 2500.0, 300.0);
    EXPECT_NEAR(static_cast<double>(alu),
                2500.0 * (PmdkStreamParams::swizzleOps - 1),
                25000.0 * 0.15);
}

TEST(ObjectModeStream, AluInstructionsNeverSwizzled)
{
    std::vector<cpu::Instr> inner_instrs(1000,
                                         {cpu::InstrKind::Alu, 0});
    FixedStream inner(inner_instrs);
    PmdkStreamParams params;
    params.swizzleProbability = 1.0;
    ObjectModeStream stream(inner, params);
    EXPECT_EQ(drain(stream).size(), 1000u);
}

TEST(TransModeStream, EveryStoreGetsALogCopy)
{
    std::vector<cpu::Instr> inner_instrs(
        64, {cpu::InstrKind::Store, 0x2000});
    FixedStream inner(inner_instrs);
    PmdkStreamParams params;
    params.swizzleProbability = 0.0;  // isolate the tx machinery
    TransModeStream stream(inner, params);
    const auto out = drain(stream);

    std::size_t data_stores = 0, log_stores = 0;
    for (const auto &instr : out) {
        if (instr.kind != cpu::InstrKind::Store)
            continue;
        if (instr.addr >= PmdkStreamParams::logBase)
            ++log_stores;
        else
            ++data_stores;
    }
    // 100% write-traffic overhead: one undo-log copy per store.
    EXPECT_EQ(data_stores, 64u);
    EXPECT_EQ(log_stores, 64u);
}

TEST(TransModeStream, CommitsEveryTxStores)
{
    std::vector<cpu::Instr> inner_instrs(
        80, {cpu::InstrKind::Store, 0x2000});
    FixedStream inner(inner_instrs);
    PmdkStreamParams params;
    params.swizzleProbability = 0.0;
    params.txStores = 8;
    TransModeStream stream(inner, params);
    drain(stream);
    EXPECT_EQ(stream.commits(), 10u);
}

TEST(TransModeStream, CommitEmitsFlushWork)
{
    std::vector<cpu::Instr> inner_instrs(
        8, {cpu::InstrKind::Store, 0x2000});
    FixedStream inner(inner_instrs);
    PmdkStreamParams params;
    params.swizzleProbability = 0.0;
    params.txStores = 8;
    TransModeStream stream(inner, params);
    const auto out = drain(stream);

    std::size_t alu = 0;
    for (const auto &instr : out)
        alu += instr.kind == cpu::InstrKind::Alu;
    // pmem_persist: flushOps per line (8 stores + 8 log copies)
    // plus the fence.
    EXPECT_EQ(alu, PmdkStreamParams::flushOps * 16
                       + PmdkStreamParams::fenceOps);
}

TEST(TransModeStream, LoadsPassThroughUntouched)
{
    std::vector<cpu::Instr> inner_instrs(
        100, {cpu::InstrKind::Load, 0x3000});
    FixedStream inner(inner_instrs);
    PmdkStreamParams params;
    params.swizzleProbability = 0.0;
    TransModeStream stream(inner, params);
    const auto out = drain(stream);
    EXPECT_EQ(out.size(), 100u);
    EXPECT_EQ(stream.commits(), 0u);
}

TEST(PmemModeNames, AllNamed)
{
    EXPECT_EQ(pmemModeName(PmemMode::DramOnly), "DRAM-only");
    EXPECT_EQ(pmemModeName(PmemMode::TransMode), "trans-mode");
}

} // namespace
