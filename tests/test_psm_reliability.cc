/**
 * @file
 * Tests for PSM fault handling: XCC repair, symbol-ECC fallback,
 * MCE containment policies, and wear-leveler re-seeding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "psm/psm.hh"
#include "sim/logging.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::psm;
using mem::MemOp;
using mem::MemRequest;

PsmParams
quietParams()
{
    PsmParams p;
    p.wearLeveling = false;
    return p;
}

MemRequest
readAt(mem::Addr addr)
{
    MemRequest req;
    req.op = MemOp::Read;
    req.addr = addr;
    return req;
}

/** Find an address routed to unit (0, 0) half-deterministically. */
mem::Addr
addrOnUnitZero(Psm &psm)
{
    // With wear leveling off the routing is a pure page interleave:
    // page 0 lands on unit 0.
    (void)psm;
    return 0;
}

TEST(PsmReliability, SingleHalfFaultIsCorrectedByXcc)
{
    Psm psm(quietParams());
    psm.injectFault(0, 0, 0);
    EXPECT_EQ(psm.faultCount(), 1u);

    const auto result = psm.access(readAt(addrOnUnitZero(psm)), 0);
    EXPECT_TRUE(result.corrected);
    EXPECT_FALSE(result.containment);
    EXPECT_EQ(psm.stats().correctedReads, 1u);
    EXPECT_EQ(psm.stats().mceCount, 0u);
    // One read latency + one XOR cycle, not a stall.
    EXPECT_LE(result.completeAt,
              psm.params().busLatency
                  + psm.params().dimm.device.readLatency
                  + psm.params().xorLatency);
}

TEST(PsmReliability, BothHalvesDeadRaiseContainment)
{
    Psm psm(quietParams());
    psm.injectFault(0, 0, 0);
    psm.injectFault(0, 0, 1);

    const auto result = psm.access(readAt(addrOnUnitZero(psm)), 0);
    EXPECT_TRUE(result.containment);
    EXPECT_FALSE(result.corrected);
    EXPECT_EQ(psm.stats().mceCount, 1u);
}

TEST(PsmReliability, SymbolEccFallbackRecoversDoubleFault)
{
    PsmParams params = quietParams();
    params.symbolEccFallback = true;
    Psm psm(params);
    psm.injectFault(0, 0, 0);
    psm.injectFault(0, 0, 1);

    const auto result = psm.access(readAt(addrOnUnitZero(psm)), 0);
    EXPECT_TRUE(result.corrected);
    EXPECT_FALSE(result.containment);
    EXPECT_EQ(psm.stats().symbolCorrections, 1u);
    EXPECT_EQ(psm.stats().mceCount, 0u);
    // Pays the symbol decode latency on top of the media read.
    EXPECT_GE(result.completeAt,
              params.dimm.device.readLatency
                  + params.symbolEccLatency);
}

TEST(PsmReliability, WornDrainSticksEachDirtyLinesOwnGranules)
{
    // With the media-fault model on, a row-buffer drain writes every
    // dirty line at its own address: each line's two data granules
    // and its parity granule draw their own stuck-at faults. On fully
    // worn media with a stuck rate of one, every write sticks exactly
    // one symbol per granule, and the clean lines of the page none.
    PsmParams params = quietParams();
    params.dimm.device.faults.enabled = true;
    params.dimm.device.faults.wearStuckRate = 1.0;
    params.dimm.device.faults.wearOnsetFraction = 0.5;
    Psm psm(params);
    mem::PramDevice &dev = psm.dimm(0).group(0);
    dev.preWear(params.dimm.device.enduranceCycles);

    // Page 0 lands on unit (0, 0) with wear leveling off.
    const std::vector<std::uint32_t> dirty{0, 3, 7, 31};
    for (const std::uint32_t line : dirty) {
        MemRequest req;
        req.op = MemOp::Write;
        req.addr = line * mem::cacheLineBytes;
        psm.access(req, 0);
    }
    EXPECT_EQ(dev.writeCount(), 0u);
    psm.flush(0);
    EXPECT_EQ(dev.writeCount(), dirty.size());

    for (std::uint32_t line = 0; line < 32; ++line) {
        const bool is_dirty =
            std::find(dirty.begin(), dirty.end(), line) != dirty.end();
        const std::uint32_t want = is_dirty ? 1 : 0;
        const mem::Addr a = mem::Addr(line) * mem::cacheLineBytes;
        EXPECT_EQ(dev.stuckSymbols(a), want) << "line " << line;
        EXPECT_EQ(dev.stuckSymbols(a + mem::pramDeviceGranularity), want)
            << "line " << line;
        EXPECT_EQ(dev.stuckSymbols(a | mem::pramParityTag), want)
            << "line " << line;
    }
}

TEST(PsmReliability, FaultsOnOtherUnitsDoNotInterfere)
{
    Psm psm(quietParams());
    psm.injectFault(1, 2, 0);
    const auto result = psm.access(readAt(0), 0);  // unit 0
    EXPECT_FALSE(result.corrected);
    EXPECT_FALSE(result.containment);
}

TEST(PsmReliability, RowBufferForwardsEvenOnFaultyUnit)
{
    // Freshly-written data lives in the (SRAM) row buffer; reads of
    // it never touch the dead media.
    Psm psm(quietParams());
    psm.injectFault(0, 0, 0);
    psm.injectFault(0, 0, 1);
    MemRequest write;
    write.op = MemOp::Write;
    write.addr = 0;
    psm.access(write, 0);
    const auto result = psm.access(readAt(0), 100);
    EXPECT_TRUE(result.rowBufferHit);
    EXPECT_FALSE(result.containment);
}

TEST(PsmReliability, ResetColdBootPolicyWipes)
{
    PsmParams params = quietParams();
    params.mcePolicy = McePolicy::ResetColdBoot;
    Psm psm(params);
    psm.injectFault(0, 0, 0);
    psm.injectFault(0, 0, 1);
    psm.access(readAt(0), 0);
    EXPECT_TRUE(psm.handleContainment());
    EXPECT_EQ(psm.stats().resets, 1u);
    EXPECT_EQ(psm.stats().mceCount, 1u);  // history preserved
    // The media is still dead after a reset (no device replaced).
    EXPECT_EQ(psm.faultCount(), 2u);
}

TEST(PsmReliability, ContainPolicyDoesNotReset)
{
    PsmParams params = quietParams();
    params.mcePolicy = McePolicy::Contain;
    Psm psm(params);
    psm.injectFault(0, 0, 0);
    psm.injectFault(0, 0, 1);
    psm.access(readAt(0), 0);
    EXPECT_FALSE(psm.handleContainment());
    EXPECT_EQ(psm.stats().resets, 0u);
}

TEST(PsmReliability, ClearFaultsHeals)
{
    Psm psm(quietParams());
    psm.injectFault(0, 0, 0);
    psm.clearFaults();
    EXPECT_EQ(psm.faultCount(), 0u);
    const auto result = psm.access(readAt(0), 0);
    EXPECT_FALSE(result.corrected);
}

TEST(PsmReliability, InjectFaultValidatesRange)
{
    Psm psm(quietParams());
    EXPECT_THROW(psm.injectFault(99, 0, 0), FatalError);
    EXPECT_THROW(psm.injectFault(0, 99, 0), FatalError);
    EXPECT_THROW(psm.injectFault(0, 0, 2), FatalError);
}

TEST(PsmReliability, ReseedChangesMapping)
{
    PsmParams params;  // wear leveling ON
    Psm psm(params);

    // Record where a line's traffic lands before the reseed; flush
    // so the buffered writes actually reach a device.
    MemRequest write;
    write.op = MemOp::Write;
    write.addr = 4096;
    Tick t = 0;
    for (int i = 0; i < 64; ++i)
        t = psm.access(write, t).completeAt;
    t = psm.flush(t);
    std::vector<std::uint64_t> before;
    for (std::uint32_t d = 0; d < params.dimms; ++d)
        for (std::uint32_t g = 0; g < psm.dimm(d).groupCount(); ++g)
            before.push_back(psm.dimm(d).group(g).writeCount());

    Tick done = psm.reseedWearLeveler(t, 0xfeedULL);
    EXPECT_GT(done, t);  // migration costs time

    for (int i = 0; i < 64; ++i)
        done = psm.access(write, done).completeAt;
    done = psm.flush(done);
    std::vector<std::uint64_t> after;
    for (std::uint32_t d = 0; d < params.dimms; ++d)
        for (std::uint32_t g = 0; g < psm.dimm(d).groupCount(); ++g)
            after.push_back(psm.dimm(d).group(g).writeCount());

    // The hammered line should now hit a different unit: the unit
    // that grew before the reseed is not the one growing after.
    std::size_t before_hot = 0, after_hot = 0;
    std::uint64_t before_max = 0, after_max = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        if (before[i] > before_max) {
            before_max = before[i];
            before_hot = i;
        }
        const std::uint64_t delta = after[i] - before[i];
        if (delta > after_max) {
            after_max = delta;
            after_hot = i;
        }
    }
    EXPECT_NE(before_hot, after_hot);
}

TEST(PsmReliability, ReseedMigrationScalesWithCapacity)
{
    PsmParams small_params, large_params;
    small_params.dimm.device.capacityBytes = 64 << 20;
    large_params.dimm.device.capacityBytes = 512 << 20;
    Psm small(small_params), large(large_params);
    const Tick t_small = small.reseedWearLeveler(0, 1);
    const Tick t_large = large.reseedWearLeveler(0, 1);
    EXPECT_GT(t_large, 4 * t_small);
}

} // namespace
