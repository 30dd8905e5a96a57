/**
 * @file
 * Unit tests for the PRAM, DRAM, and PMEM DIMM timing models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>
#include <string_view>

#include "mem/dram_device.hh"
#include "mem/pmem_dimm.hh"
#include "mem/pram_device.hh"
#include "sim/rng.hh"
#include "stats/summary.hh"

namespace
{

using namespace lightpc;
using namespace lightpc::mem;

TEST(PramDevice, ReadLatencyIsConfigured)
{
    PramDevice dev;
    const auto result = dev.read(1000);
    EXPECT_EQ(result.completeAt, 1000 + dev.params().readLatency);
    EXPECT_EQ(result.mediaFreeAt, result.completeAt);
}

TEST(PramDevice, WriteOccupiesCoolingWindow)
{
    PramDevice dev;
    const auto result = dev.write(0, 0, /*early_return=*/false);
    EXPECT_EQ(result.completeAt, dev.params().writeLatency);
    EXPECT_EQ(dev.busyUntil(), dev.params().writeLatency);
}

TEST(PramDevice, EarlyReturnCompletesAtAcceptance)
{
    PramDevice dev;
    const auto result = dev.write(100, 0, /*early_return=*/true);
    EXPECT_EQ(result.completeAt, 100u);
    EXPECT_EQ(result.mediaFreeAt, 100 + dev.params().writeLatency);
    // The media is still busy: a read queues behind the write.
    const auto read = dev.read(150);
    EXPECT_EQ(read.completeAt,
              100 + dev.params().writeLatency
                  + dev.params().readLatency);
}

TEST(PramDevice, SerializesBackToBackAccesses)
{
    PramDevice dev;
    const auto first = dev.read(0);
    const auto second = dev.read(0);
    EXPECT_EQ(second.completeAt,
              first.completeAt + dev.params().readLatency);
    EXPECT_EQ(dev.stallTicks(), first.completeAt);
}

TEST(PramDevice, WearTracksRegions)
{
    PramParams params;
    params.capacityBytes = 4 << 20;
    params.wearRegionBytes = 1 << 20;
    PramDevice dev(params);
    dev.write(0, 0, true);
    dev.write(0, (1 << 20) + 5, true);
    dev.write(0, 7, true);
    EXPECT_EQ(dev.wearByRegion()[0], 2u);
    EXPECT_EQ(dev.wearByRegion()[1], 1u);
    EXPECT_EQ(dev.maxRegionWear(), 2u);
}

TEST(PramDevice, WriteBurstMatchesRepeatedWrites)
{
    // A row-buffer drain: n early-return line writes issued at one
    // tick into one page. writeBurst must leave the die exactly where
    // n write() calls leave it: on an idle die, on one still cooling
    // off an earlier write, and on a region whose wear saturates at
    // the endurance mid-burst.
    PramParams params;
    params.capacityBytes = 4 << 20;
    params.wearRegionBytes = 1 << 20;
    const Addr page = (1 << 20) + 4096 * 5;
    const Tick when = 1000;
    for (const std::uint64_t n : {1, 2, 32, 64}) {
        for (const std::string_view state : {"idle", "busy", "worn"}) {
            SCOPED_TRACE(std::to_string(n) + " lines, "
                         + std::string(state));
            PramDevice burst(params), lines(params);
            for (PramDevice *dev : {&burst, &lines}) {
                if (state == "busy")
                    dev->write(when - 100, 0, /*early_return=*/true);
                if (state == "worn")
                    dev->preWear(params.enduranceCycles - 3);
            }

            AccessResult want;
            for (std::uint64_t k = 0; k < n; ++k)
                want = lines.write(when, page + k * cacheLineBytes,
                                   /*early_return=*/true);
            const AccessResult got = burst.writeBurst(when, page, n);

            EXPECT_EQ(got.completeAt, want.completeAt);
            EXPECT_EQ(got.mediaFreeAt, want.mediaFreeAt);
            EXPECT_EQ(burst.busyUntil(), lines.busyUntil());
            EXPECT_EQ(burst.stallTicks(), lines.stallTicks());
            EXPECT_EQ(burst.writeCount(), lines.writeCount());
            EXPECT_EQ(burst.wearByRegion(), lines.wearByRegion());
        }
    }
}

TEST(PramDevice, SparseWearMatchesDenseReference)
{
    // Wear counters are allocated in chunks on first write; a dense
    // per-region array replayed alongside must agree on every query
    // through pre-wear, writes, bursts, saturation and reset. 100
    // regions leave the last chunk short.
    PramParams params;
    params.wearRegionBytes = 64 << 10;
    params.capacityBytes = 100 * params.wearRegionBytes;
    params.enduranceCycles = 40;
    PramDevice dev(params);
    std::vector<std::uint64_t> dense(100, 0);
    Rng rng(23);

    const auto expect_same = [&] {
        ASSERT_EQ(dev.wearByRegion(), dense);
        EXPECT_EQ(dev.maxRegionWear(),
                  *std::max_element(dense.begin(), dense.end()));
        stats::Histogram want;
        for (const std::uint64_t w : dense)
            want.add(w);
        const stats::Histogram got = dev.wearHistogram();
        ASSERT_EQ(got.count(), want.count());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean()),
                  std::bit_cast<std::uint64_t>(want.mean()));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stddev()),
                  std::bit_cast<std::uint64_t>(want.stddev()));
        for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0})
            EXPECT_EQ(got.percentile(q), want.percentile(q));
        for (std::uint64_t r = 0; r < dense.size(); r += 7)
            EXPECT_DOUBLE_EQ(
                dev.wearFraction(r * params.wearRegionBytes + 64),
                std::min(1.0, dense[r] / 40.0));
    };

    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE(round);
        if (round == 3) {
            dev.reset();
            std::fill(dense.begin(), dense.end(), 0);
        } else if (round % 2 == 1) {
            const std::uint64_t level = rng.below(60);
            dev.preWear(level);
            std::fill(dense.begin(), dense.end(),
                      std::min<std::uint64_t>(level, 40));
        }
        expect_same();
        // Writes land in a few chunks only; bursts saturate some.
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t region =
                rng.chance(0.5) ? rng.below(10) : 64 + rng.below(36);
            const Addr addr = region * params.wearRegionBytes
                + rng.below(params.wearRegionBytes / 64) * 64;
            const std::uint64_t n = rng.chance(0.2) ? 1 + rng.below(30) : 1;
            if (n == 1)
                dev.write(0, addr, /*early_return=*/true);
            else
                dev.writeBurst(0, addr & ~Addr(2047), n);
            dense[region] = std::min<std::uint64_t>(dense[region] + n, 40);
        }
        expect_same();
    }
}

TEST(PramDevice, ReadRunMatchesRepeatedReads)
{
    // n reads, each issued a gap after the one before completes, on
    // an idle die and on one still cooling off a write.
    for (const Tick gap : {Tick(0), 10 * tickNs}) {
        for (const bool busy : {false, true}) {
            PramDevice run, lines;
            for (PramDevice *dev : {&run, &lines})
                if (busy)
                    dev->write(0, 0, /*early_return=*/true);
            const Tick when = 100 * tickNs;
            Tick want = when;
            for (int k = 0; k < 9; ++k)
                want = lines.read(k == 0 ? when : want + gap).completeAt;
            EXPECT_EQ(run.readRun(when, 9, gap), want);
            EXPECT_EQ(run.busyUntil(), lines.busyUntil());
            EXPECT_EQ(run.stallTicks(), lines.stallTicks());
            EXPECT_EQ(run.readCount(), lines.readCount());
        }
    }
}

TEST(PramDevice, LifetimeShrinksWithWear)
{
    PramParams params;
    params.enduranceCycles = 100;
    PramDevice dev(params);
    EXPECT_DOUBLE_EQ(dev.lifetimeRemaining(), 1.0);
    for (int i = 0; i < 50; ++i)
        dev.write(0, 0, true);
    EXPECT_NEAR(dev.lifetimeRemaining(), 0.5, 0.01);
}

TEST(PramDevice, ResetClearsState)
{
    PramDevice dev;
    dev.write(0, 0, true);
    dev.reset();
    EXPECT_EQ(dev.busyUntil(), 0u);
    EXPECT_EQ(dev.writeCount(), 0u);
    EXPECT_EQ(dev.maxRegionWear(), 0u);
}

TEST(DramDevice, RowHitIsFasterThanMiss)
{
    DramDevice dev;
    MemRequest req;
    req.addr = 0;
    const auto miss = dev.access(req, 0);
    EXPECT_FALSE(miss.rowBufferHit);
    const auto hit = dev.access(req, miss.completeAt);
    EXPECT_TRUE(hit.rowBufferHit);
    EXPECT_EQ(miss.completeAt, dev.params().rowMissLatency);
    EXPECT_EQ(hit.completeAt - miss.completeAt,
              dev.params().rowHitLatency);
}

TEST(DramDevice, DifferentBanksDoNotConflict)
{
    DramDevice dev;
    MemRequest a, b;
    a.addr = 0;
    b.addr = dev.params().rowBytes;  // next row -> next bank
    const auto ra = dev.access(a, 0);
    const auto rb = dev.access(b, 0);
    // Both start at 0 in their own bank.
    EXPECT_EQ(ra.completeAt, rb.completeAt);
}

TEST(DramDevice, SameBankConflicts)
{
    DramDevice dev;
    MemRequest a, b;
    a.addr = 0;
    b.addr = dev.params().rowBytes * dev.params().banks;  // same bank
    const auto ra = dev.access(a, 0);
    const auto rb = dev.access(b, 0);
    EXPECT_GT(rb.completeAt, ra.completeAt);
    EXPECT_FALSE(rb.rowBufferHit);
}

TEST(DramDevice, RefreshDelaysCollidingAccess)
{
    DramParams params;
    params.refreshInterval = 1000 * tickNs;
    params.refreshLatency = 300 * tickNs;
    DramDevice dev(params);
    MemRequest req;
    req.addr = 0;
    // Arrive just after the first refresh window opened.
    const auto result = dev.access(req, params.refreshInterval + 1);
    EXPECT_GE(result.completeAt,
              params.refreshInterval + params.refreshLatency);
    EXPECT_GE(dev.refreshCount(), 1u);
}

TEST(DramDevice, CountsReadsAndWrites)
{
    DramDevice dev;
    MemRequest read, write;
    read.op = MemOp::Read;
    write.op = MemOp::Write;
    dev.access(read, 0);
    dev.access(write, 0);
    dev.access(write, 0);
    EXPECT_EQ(dev.readCount(), 1u);
    EXPECT_EQ(dev.writeCount(), 2u);
}

// --- PMEM DIMM (Fig. 2) -------------------------------------------

PmemDimmParams
smallPmem()
{
    PmemDimmParams params;
    params.sramBytes = 4 * 1024;
    params.dramBytes = 64 * 1024;
    return params;
}

TEST(PmemDimm, FirstReadMissesToMedia)
{
    PmemDimm dimm(smallPmem());
    MemRequest req;
    req.op = MemOp::Read;
    req.addr = 0;
    const auto result = dimm.access(req, 0);
    EXPECT_EQ(dimm.mediaReads(), 1u);
    // Full path: firmware + SRAM + DRAM lookups + media read.
    const auto &p = dimm.params();
    EXPECT_GE(result.completeAt,
              p.firmwareLatency + p.sramLatency + p.dramLatency
                  + p.media.readLatency);
}

TEST(PmemDimm, SecondReadHitsInternally)
{
    PmemDimm dimm(smallPmem());
    MemRequest req;
    req.op = MemOp::Read;
    req.addr = 0;
    const auto first = dimm.access(req, 0);
    const auto second = dimm.access(req, first.completeAt);
    EXPECT_TRUE(second.internalCacheHit);
    EXPECT_LT(second.completeAt - first.completeAt,
              first.completeAt);
    EXPECT_EQ(dimm.internalReadHits(), 1u);
}

TEST(PmemDimm, WritesAreBufferedAndFast)
{
    PmemDimm dimm(smallPmem());
    MemRequest req;
    req.op = MemOp::Write;
    req.addr = 4096;
    const auto result = dimm.access(req, 0);
    // Accepted at firmware + LSQ cost, far below a bare PRAM write.
    EXPECT_LE(result.completeAt,
              dimm.params().firmwareLatency
                  + dimm.params().lsqInsertLatency + 1);
    EXPECT_LT(result.completeAt, dimm.params().media.writeLatency);
}

TEST(PmemDimm, WriteCombiningMergesSameMediaBlock)
{
    PmemDimm dimm(smallPmem());
    MemRequest a, b;
    a.op = b.op = MemOp::Write;
    a.addr = 0;
    b.addr = 64;  // same 256 B media block
    dimm.access(a, 0);
    dimm.access(b, 10);
    EXPECT_EQ(dimm.combinedWrites(), 1u);
}

TEST(PmemDimm, LsqForwardsReadsOfPendingWrites)
{
    PmemDimm dimm(smallPmem());
    MemRequest write, read;
    write.op = MemOp::Write;
    write.addr = 512;
    read.op = MemOp::Read;
    read.addr = 512;
    dimm.access(write, 0);
    const auto result = dimm.access(read, 5);
    EXPECT_TRUE(result.internalCacheHit);
    EXPECT_EQ(dimm.mediaReads(), 0u);
}

TEST(PmemDimm, RandomReadsSlowerAndMoreVariableThanBarePram)
{
    // The Fig. 2b property: DIMM-level random reads pay the
    // multi-buffer lookup and are non-deterministic; bare PRAM reads
    // are flat.
    PmemDimm dimm;  // default: 256 KB SRAM, 32 MB DRAM buffer
    PramDevice bare;
    Rng rng(5);
    stats::Summary dimm_lat, bare_lat;
    // Mixed locality: half the reads in a buffer-resident hot set,
    // half streaming over a footprint far beyond the buffers. The
    // up-to-date line may sit in SRAM, DRAM, or media — the source
    // of the paper's non-determinism.
    const std::uint64_t hot = std::uint64_t(8) << 20;
    const std::uint64_t footprint = std::uint64_t(1) << 30;

    Tick t_dimm = 0, t_bare = 0;
    for (int i = 0; i < 4000; ++i) {
        MemRequest req;
        req.op = MemOp::Read;
        req.addr = (rng.chance(0.5) ? rng.below(hot)
                                    : rng.below(footprint))
            & ~std::uint64_t(63);
        const auto rd = dimm.access(req, t_dimm);
        dimm_lat.add(static_cast<double>(rd.completeAt - t_dimm));
        t_dimm = rd.completeAt;

        const auto rb = bare.read(t_bare);
        bare_lat.add(static_cast<double>(rb.completeAt - t_bare));
        t_bare = rb.completeAt;
    }

    EXPECT_GT(dimm_lat.mean(), 2.0 * bare_lat.mean());
    EXPECT_GT(dimm_lat.cv(), 10.0 * std::max(bare_lat.cv(), 0.01));
}

TEST(PmemDimm, SustainedRandomWritesBackpressure)
{
    PmemDimmParams params = smallPmem();
    params.lsqEntries = 4;
    PmemDimm dimm(params);
    Rng rng(6);
    Tick t = 0;
    Tick max_latency = 0;
    for (int i = 0; i < 500; ++i) {
        MemRequest req;
        req.op = MemOp::Write;
        // Distinct 4 KB regions: every write eventually reaches media.
        req.addr = (std::uint64_t(i) * 4096 * 7)
            % (std::uint64_t(1) << 28);
        const auto result = dimm.access(req, t);
        max_latency = std::max(max_latency, result.completeAt - t);
        t = result.completeAt;
    }
    // Backpressure must show up: some writes wait on LSQ drains.
    EXPECT_GT(max_latency, dimm.params().firmwareLatency);
    EXPECT_GT(dimm.mediaWrites(), 0u);
}

} // namespace
