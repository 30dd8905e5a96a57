/**
 * @file
 * Engineering microbenchmarks (google-benchmark): throughput of the
 * simulator's hot paths. Not a paper figure — these guard the
 * simulator's own performance so that the figure benches stay fast.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/l1_cache.hh"
#include "mem/backing_store.hh"
#include "mem/tag_cache.hh"
#include "mem/pmem_dimm.hh"
#include "mem/timed_mem.hh"
#include "psm/psm.hh"
#include "psm/start_gap.hh"
#include "psm/xcc.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"

using namespace lightpc;

namespace
{

void
BM_PsmRead(benchmark::State &state)
{
    psm::Psm psm;
    Rng rng(1);
    Tick t = 0;
    mem::MemRequest req;
    req.op = mem::MemOp::Read;
    for (auto _ : state) {
        req.addr = rng.below(std::uint64_t(1) << 30) & ~63ull;
        t = psm.access(req, t).completeAt;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsmRead);

void
BM_PsmWrite(benchmark::State &state)
{
    psm::Psm psm;
    Rng rng(2);
    Tick t = 0;
    mem::MemRequest req;
    req.op = mem::MemOp::Write;
    for (auto _ : state) {
        req.addr = rng.below(std::uint64_t(1) << 30) & ~63ull;
        t = psm.access(req, t).completeAt;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsmWrite);

/** One image span through the PSM, as Stop/Go and the checkpoint
 *  baselines move it: 4096 line accesses walking page after page. */
void
psmSpan(benchmark::State &state, mem::MemOp op, bool early_return)
{
    psm::PsmParams params;
    params.earlyReturnWrites = early_return;
    psm::Psm psm(params);
    psm::PsmPort port(psm);
    mem::TimedMem timed(port);
    const std::uint64_t len =
        mem::TimedMem::sampleLines * mem::cacheLineBytes;
    Tick t = 0;
    mem::Addr addr = 0;
    for (auto _ : state) {
        t = op == mem::MemOp::Write ? timed.writeSpan(t, addr, len)
                                    : timed.readSpan(t, addr, len);
        addr = (addr + len) % (std::uint64_t(1) << 30);
    }
    state.SetItemsProcessed(state.iterations()
                            * mem::TimedMem::sampleLines);
}

/** LightPC: early-return writes, mostly open row-buffer hits. */
void
BM_PsmSpanWrite(benchmark::State &state)
{
    psmSpan(state, mem::MemOp::Write, true);
}
BENCHMARK(BM_PsmSpanWrite);

/** LightPC-B: every line write waits for the media. */
void
BM_PsmSpanWriteLightPcB(benchmark::State &state)
{
    psmSpan(state, mem::MemOp::Write, false);
}
BENCHMARK(BM_PsmSpanWriteLightPcB);

/** The image read back (Go, recovery): one media read per line. */
void
BM_PsmSpanRead(benchmark::State &state)
{
    psmSpan(state, mem::MemOp::Read, true);
}
BENCHMARK(BM_PsmSpanRead);

/** A default six-DIMM PSM built and torn down, as every power-cut
 *  trial does: wear counters, row buffers, the Start-Gap registers. */
void
BM_PsmConstruct(benchmark::State &state)
{
    for (auto _ : state) {
        psm::Psm psm;
        benchmark::DoNotOptimize(psm.managedLines());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsmConstruct);

/** A read span's latency samples: runs of equal values, as the PSM's
 *  closed-form read runs stage them (range(0) samples per run). */
void
BM_HistogramAddRuns(benchmark::State &state)
{
    const std::uint64_t run = static_cast<std::uint64_t>(state.range(0));
    stats::Histogram hist;
    Rng rng(5);
    for (auto _ : state) {
        hist.add(60 + rng.below(4), run);
        if (hist.count() > (std::uint64_t(1) << 24))
            hist.reset();
    }
    benchmark::DoNotOptimize(hist.mean());
    state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_HistogramAddRuns)->Arg(1)->Arg(32);

void
BM_PmemDimmAccess(benchmark::State &state)
{
    mem::PmemDimm dimm;
    Rng rng(3);
    Tick t = 0;
    mem::MemRequest req;
    for (auto _ : state) {
        req.op = rng.chance(0.6) ? mem::MemOp::Read
                                 : mem::MemOp::Write;
        req.addr = rng.below(std::uint64_t(1) << 28) & ~63ull;
        t = dimm.access(req, t).completeAt + 200 * tickNs;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmemDimmAccess);

void
BM_StartGapRemap(benchmark::State &state)
{
    psm::StartGapParams params;
    params.lines = 1 << 24;
    psm::StartGap sg(params);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sg.remap(rng.below(params.lines)));
        sg.recordWrite();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StartGapRemap);

/** Line after line, as a span walks a page: the randomizer's page
 *  memo hits on all but one line of every page. */
void
BM_StartGapRemapSequential(benchmark::State &state)
{
    psm::StartGapParams params;
    params.lines = 1 << 24;
    psm::StartGap sg(params);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sg.remap(line));
        line = line + 1 == params.lines ? 0 : line + 1;
        sg.recordWrite();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StartGapRemapSequential);

void
BM_XccReconstruct(benchmark::State &state)
{
    Rng rng(5);
    psm::HalfLine a, b;
    for (auto &x : a)
        x = static_cast<std::uint8_t>(rng.next());
    for (auto &x : b)
        x = static_cast<std::uint8_t>(rng.next());
    const psm::HalfLine parity = psm::XccCodec::encode(a, b);
    for (auto _ : state)
        benchmark::DoNotOptimize(psm::XccCodec::reconstruct(b, parity));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XccReconstruct);

void
BM_EventQueueChurn(benchmark::State &state)
{
    EventQueue eq;
    Tick t = 0;
    for (auto _ : state) {
        t += 10;
        eq.schedule(t, [] {});
        eq.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn);

/** Churn with a 32-byte capture, stored inline in the event record. */
void
BM_EventQueueChurnCapture32(benchmark::State &state)
{
    EventQueue eq;
    Tick t = 0;
    std::uint64_t sink[4] = {1, 2, 3, 4};
    for (auto _ : state) {
        t += 10;
        eq.schedule(t, [sink] { benchmark::DoNotOptimize(sink[0]); });
        eq.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurnCapture32);

void
BM_BackingStoreWrite64(benchmark::State &state)
{
    mem::BackingStore store;
    Rng rng(6);
    std::uint8_t line[64] = {};
    for (auto _ : state) {
        const mem::Addr addr =
            rng.below(std::uint64_t(64) << 20) & ~63ull;
        store.write(addr, line, sizeof(line));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BackingStoreWrite64);

/** One 16-byte field read, as an object-table probe does it. */
void
BM_BackingStoreRead16(benchmark::State &state)
{
    constexpr std::uint64_t region = std::uint64_t(4) << 20;
    mem::BackingStore store;
    std::vector<std::uint8_t> fill(region, 0x5a);
    store.write(0, fill.data(), fill.size());
    Rng rng(7);
    std::uint8_t field[16];
    for (auto _ : state) {
        const mem::Addr addr = rng.below(region - 16) & ~7ull;
        store.read(addr, field, sizeof(field));
        benchmark::DoNotOptimize(field);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_BackingStoreRead16);

// The Table II instruction supply: one gcc thread at perfbench's
// table2_machine scale, timed per instruction through each entry
// point. The stream rewinds when it runs dry.

workload::SyntheticStream
gccStream()
{
    workload::SyntheticConfig config;
    config.scaleDivisor = 20000;
    return workload::SyntheticStream(workload::findWorkload("gcc"),
                                     config, 0, std::uint64_t(16) << 20);
}

void
BM_SyntheticStreamNext(benchmark::State &state)
{
    workload::SyntheticStream stream = gccStream();
    cpu::Instr instr;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        if (!stream.next(instr)) {
            stream.rewind();
            stream.next(instr);
        }
        benchmark::DoNotOptimize(instr);
        ++instructions;
    }
    state.counters["per_instr"] = benchmark::Counter(
        static_cast<double>(instructions),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SyntheticStreamNext);

// The same stream merged into run entries of up to one core episode
// (256 instructions), as Core::episode asks for them.
void
BM_SyntheticStreamRun(benchmark::State &state)
{
    workload::SyntheticStream stream = gccStream();
    cpu::Instr instr;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        if (!stream.nextRun(instr, 256)) {
            stream.rewind();
            stream.nextRun(instr, 256);
        }
        benchmark::DoNotOptimize(instr);
        instructions += instr.count;
    }
    state.counters["per_instr"] = benchmark::Counter(
        static_cast<double>(instructions),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SyntheticStreamRun);

// L1 D$ geometry (16 KB, 4 ways) under the synthetic streams' 6 KB
// resident hot set. A warm-up that mixes in a cold streaming tail
// scatters the hot lines over the ways, as in a run; then every timed
// access hits, in a way that varies from access to access.
void
BM_TagCacheHit(benchmark::State &state)
{
    const cache::L1Params l1;
    mem::TagCache tags(l1.capacityBytes, l1.lineBytes, l1.ways);
    const std::uint64_t hot_lines = 6 * 1024 / l1.lineBytes;
    Rng rng(1);
    mem::Addr cold = std::uint64_t(1) << 30;
    for (int i = 0; i < 200000; ++i) {
        if (rng.chance(0.9)) {
            tags.access(rng.below(hot_lines) * l1.lineBytes, false);
        } else {
            tags.access(cold, false);
            cold += l1.lineBytes;
        }
    }
    for (std::uint64_t line = 0; line < hot_lines; ++line)
        tags.access(line * l1.lineBytes, false);

    std::vector<mem::Addr> addrs(4096);
    for (auto &addr : addrs)
        addr = rng.below(hot_lines) * l1.lineBytes;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tags.access(addrs[i++ & (addrs.size() - 1)], false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagCacheHit);

} // namespace

BENCHMARK_MAIN();
