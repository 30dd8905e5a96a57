/**
 * @file
 * Unit tests for the Persistent Support Module.
 */

#include <gtest/gtest.h>

#include "psm/psm.hh"
#include "sim/rng.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::psm;
using mem::MemOp;
using mem::MemRequest;

PsmParams
lightParams()
{
    PsmParams p;  // LightPC defaults
    p.wearLeveling = false;  // keep addresses predictable
    return p;
}

PsmParams
baselineParams()
{
    PsmParams p = lightParams();
    p.earlyReturnWrites = false;
    p.eccReconstruction = false;
    return p;
}

MemRequest
write(mem::Addr addr)
{
    MemRequest req;
    req.op = MemOp::Write;
    req.addr = addr;
    return req;
}

MemRequest
read(mem::Addr addr)
{
    MemRequest req;
    req.op = MemOp::Read;
    req.addr = addr;
    return req;
}

TEST(Psm, GeometryDefaults)
{
    Psm psm(lightParams());
    // 6 DIMMs x 4 dual-channel groups.
    EXPECT_EQ(psm.serviceUnits(), 24u);
    EXPECT_GT(psm.capacityBytes(), std::uint64_t(64) << 30);
}

TEST(Psm, EarlyReturnWriteCompletesFast)
{
    Psm psm(lightParams());
    const auto result = psm.access(write(0), 0);
    EXPECT_LE(result.completeAt,
              psm.params().busLatency + psm.params().rowBufferLatency);
}

TEST(Psm, RowBufferAggregatesSamePageWrites)
{
    Psm psm(lightParams());
    psm.access(write(0), 0);
    const auto second = psm.access(write(64), 1000);
    EXPECT_TRUE(second.rowBufferHit);
    EXPECT_EQ(psm.stats().rowBufferWriteHits, 1u);
}

TEST(Psm, RowBufferForwardsReadsOfBufferedWrites)
{
    Psm psm(lightParams());
    psm.access(write(128), 0);
    const auto rd = psm.access(read(128), 100);
    EXPECT_TRUE(rd.rowBufferHit);
    EXPECT_EQ(psm.stats().rowBufferReadHits, 1u);
}

TEST(Psm, ReadAfterWriteReconstructsInsteadOfBlocking)
{
    PsmParams params = lightParams();
    Psm psm(params);
    const std::uint64_t page = params.rowBufferBytes;
    // Two writes to *different* pages of the same unit: the second
    // closes the first page, pushing a media write in flight.
    psm.access(write(0), 0);
    const std::uint64_t units = psm.serviceUnits();
    psm.access(write(page * units), 100);

    // A read to a third page of the same unit while the media cools.
    const auto rd = psm.access(read(2 * page * units), 200);
    EXPECT_TRUE(rd.reconstructed);
    EXPECT_EQ(psm.stats().reconstructedReads, 1u);
    // Served at roughly read latency + XOR, not after the write.
    EXPECT_LE(rd.completeAt,
              200 + params.busLatency
                  + params.dimm.device.readLatency
                  + params.xorLatency);
}

TEST(Psm, BaselineReadAfterWriteBlocks)
{
    PsmParams params = baselineParams();
    Psm psm(params);
    const std::uint64_t page = params.rowBufferBytes;
    const std::uint64_t units = psm.serviceUnits();
    psm.access(write(0), 0);
    psm.access(write(page * units), 100);

    const auto rd = psm.access(read(2 * page * units), 200);
    EXPECT_FALSE(rd.reconstructed);
    EXPECT_EQ(psm.stats().blockedReads, 1u);
    // Head-of-line blocking: waits out the cooling window.
    EXPECT_GT(rd.completeAt,
              200 + params.dimm.device.writeLatency);
}

TEST(Psm, BaselineWritesWaitForMedia)
{
    PsmParams params = baselineParams();
    Psm psm(params);
    const std::uint64_t page = params.rowBufferBytes;
    const std::uint64_t units = psm.serviceUnits();
    psm.access(write(0), 0);
    // Page change forces a drain; without early return the issuer
    // waits for it.
    const auto second = psm.access(write(page * units), 50);
    EXPECT_GE(second.completeAt,
              50 + params.dimm.device.writeLatency);
}

TEST(Psm, FlushDrainsRowBuffersAndFences)
{
    Psm psm(lightParams());
    psm.access(write(0), 0);
    psm.access(write(64), 10);
    const Tick quiescent = psm.flush(100);
    // Two dirty lines cool off back to back on the same device.
    EXPECT_GE(quiescent,
              100 + 2 * psm.params().dimm.device.writeLatency);
    EXPECT_EQ(psm.stats().flushes, 1u);
    // After the fence a read is served from media, not the buffer.
    const auto rd = psm.access(read(0), quiescent);
    EXPECT_FALSE(rd.rowBufferHit);
}

TEST(Psm, FlushMatchesClosingEveryUnitInTurn)
{
    // Without wear leveling, page n of the address space lives on
    // service unit n % units, at group-local page n / units.
    const PsmParams params = lightParams();
    Psm psm(params);
    Psm ref(params);
    const std::uint64_t units = psm.serviceUnits();
    const std::uint64_t groups = units / params.dimms;
    const std::uint64_t page_lines =
        params.rowBufferBytes / mem::cacheLineBytes;
    const auto local = [&](std::uint64_t local_page, std::uint64_t line) {
        return local_page * params.rowBufferBytes
            + line * mem::cacheLineBytes;
    };
    const auto addr = [&](std::uint64_t unit, std::uint64_t local_page,
                          std::uint64_t line) {
        return local(local_page * units + unit, line);
    };

    // Units 4-5 are dirty at a first flush and closed by it; the
    // units past 5 are never opened. Units 0-3 end dirty, and unit 1
    // first drains another page, so its media is still busy when the
    // second flush comes. Every page a write opens is dirty, so an
    // open but clean row buffer cannot arise through the ports.
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> dirty = {
        {0, 0}, {0, 5}, {1, 2}, {2, page_lines - 1}, {3, 1}, {3, 9}};
    Tick t = 0;
    for (Psm *p : {&psm, &ref}) {
        t = p->access(write(addr(4, 2, 0)), 0).completeAt;
        t = p->access(write(addr(5, 2, 3)), t).completeAt;
        t = p->flush(t);
        t = p->access(write(addr(1, 3, 7)), t).completeAt;
        for (const auto &[unit, line] : dirty)
            t = p->access(write(addr(unit, 0, line)), t).completeAt;
    }

    // Close every unit in turn on the twin: each dirty line goes to
    // the media in line order, as closeRowBuffer emits it.
    const Tick when = t + 10;
    for (std::uint64_t unit = 0; unit < units; ++unit) {
        std::uint64_t mask = 0;
        for (const auto &[u, line] : dirty)
            if (u == unit)
                mask |= std::uint64_t(1) << line;
        mem::PramDevice &dev =
            ref.dimm(unit / groups).group(unit % groups);
        for (std::uint64_t line = 0; line < page_lines; ++line)
            if (mask & (std::uint64_t(1) << line))
                dev.write(when, local(0, line), /*early_return=*/true);
    }
    Tick expected = when;
    for (std::uint32_t d = 0; d < params.dimms; ++d)
        expected = std::max(expected, ref.dimm(d).busyUntil());

    const Tick quiescent = psm.flush(when);
    EXPECT_EQ(quiescent, expected);
    EXPECT_GT(quiescent, when + params.dimm.device.writeLatency);
    for (std::uint64_t unit = 0; unit < units; ++unit)
        EXPECT_EQ(psm.dimm(unit / groups).group(unit % groups).busyUntil(),
                  ref.dimm(unit / groups).group(unit % groups).busyUntil())
            << "unit " << unit;

    // Every row buffer is closed: no dirty line is forwarded, and no
    // write to a formerly open page hits.
    for (const auto &[unit, line] : dirty)
        EXPECT_FALSE(psm.access(read(addr(unit, 0, line)), quiescent)
                         .rowBufferHit)
            << "unit " << unit << " line " << line;
    for (const std::uint64_t unit : {0, 1, 2, 3, 4, 5})
        EXPECT_FALSE(
            psm.access(write(addr(unit, unit < 4 ? 0 : 2, 20)), quiescent)
                .rowBufferHit)
            << "unit " << unit;
    EXPECT_EQ(psm.stats().rowBufferReadHits, 0u);
}

TEST(Psm, SequentialWritesSpreadAcrossUnits)
{
    PsmParams params = lightParams();
    Psm psm(params);
    // Touch many consecutive pages; every unit should see traffic.
    const std::uint64_t page = params.rowBufferBytes;
    Tick t = 0;
    for (std::uint64_t i = 0; i < psm.serviceUnits() * 2; ++i)
        t = psm.access(write(i * page), t).completeAt;
    std::uint64_t busy_units = 0;
    for (std::uint32_t d = 0; d < params.dimms; ++d)
        for (std::uint32_t g = 0; g < psm.dimm(d).groupCount(); ++g)
            busy_units += psm.dimm(d).group(g).writeCount() ? 1 : 0;
    // The drains land on many distinct units (the last page per unit
    // may still sit in its row buffer).
    EXPECT_GE(busy_units, psm.serviceUnits() / 2);
}

TEST(Psm, WearLevelingMovesGap)
{
    PsmParams params = lightParams();
    params.wearLeveling = true;
    params.wearThreshold = 10;
    Psm psm(params);
    Tick t = 0;
    for (int i = 0; i < 100; ++i)
        t = psm.access(write(i * 64), t).completeAt;
    EXPECT_EQ(psm.stats().wearMoves, 10u);
}

TEST(Psm, WearStateSurvivesSaveRestore)
{
    PsmParams params = lightParams();
    params.wearLeveling = true;
    params.wearThreshold = 5;
    Psm a(params);
    Tick t = 0;
    for (int i = 0; i < 57; ++i)
        t = a.access(write(i * 4096), t).completeAt;
    const StartGapState state = a.saveWearState();

    Psm b(params);
    b.restoreWearState(state);
    // Identical routing afterwards: same units get the same traffic.
    const auto ra = a.access(read(123 * 64), 1'000'000'000);
    const auto rb = b.access(read(123 * 64), 1'000'000'000);
    EXPECT_EQ(ra.reconstructed, rb.reconstructed);
}

TEST(Psm, ResetPortClearsEverything)
{
    Psm psm(lightParams());
    psm.access(write(0), 0);
    psm.raiseMce();
    psm.resetPort();
    EXPECT_EQ(psm.stats().writes, 0u);
    EXPECT_EQ(psm.stats().mceCount, 0u);
    const auto rd = psm.access(read(0), 0);
    EXPECT_FALSE(rd.rowBufferHit);
}

TEST(Psm, DramLikeLayoutHasOneUnitPerDimm)
{
    PsmParams params = lightParams();
    params.dimm.layout = DimmLayout::DramLike;
    Psm psm(params);
    EXPECT_EQ(psm.serviceUnits(), 6u);
}

TEST(Psm, DramLikeWritePaysReadModifyWrite)
{
    PsmParams dual = lightParams();
    PsmParams rank = lightParams();
    rank.dimm.layout = DimmLayout::DramLike;
    Psm a(dual), b(rank);

    // Two different pages on the same unit -> drain happens.
    auto drain_time = [](Psm &psm) {
        const std::uint64_t page = psm.params().rowBufferBytes;
        const std::uint64_t units = psm.serviceUnits();
        psm.access(write(0), 0);
        psm.access(write(page * units), 10);
        return psm.flush(20);
    };
    // The rank-wide layout pays an extra read per line drain.
    EXPECT_GT(drain_time(b), drain_time(a));
}

TEST(Psm, DrainSplitsWearWhereAPageStraddlesRegions)
{
    // With 1 KiB wear regions a 2 KiB row page covers two of them,
    // so a drain must charge each dirty line to its own region: the
    // one-burst drain applies only where a page fits in one region.
    PsmParams params = lightParams();
    params.dimm.device.capacityBytes = 1 << 20;
    params.dimm.device.wearRegionBytes = 1024;
    Psm psm(params);
    const std::uint64_t lines = params.rowBufferBytes / 64;
    for (std::uint64_t i = 0; i < lines; ++i)
        psm.access(write(i * 64), 0);
    psm.flush(0);
    const mem::PramDevice &dev = psm.dimm(0).group(0);
    EXPECT_EQ(dev.writeCount(), lines);
    EXPECT_EQ(dev.wearByRegion()[0], lines / 2);
    EXPECT_EQ(dev.wearByRegion()[1], lines / 2);
}

TEST(Psm, LatencyHistogramsPopulate)
{
    Psm psm(lightParams());
    Tick t = 0;
    for (int i = 0; i < 10; ++i) {
        t = psm.access(write(i * 64), t).completeAt;
        t = psm.access(read(i * 64), t).completeAt;
    }
    EXPECT_EQ(psm.readLatencyHist().count(), 10u);
    EXPECT_GT(psm.readLatencyHist().mean(), 0.0);
    EXPECT_EQ(psm.stats().writes, 10u);
}

} // namespace
