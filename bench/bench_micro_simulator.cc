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
#include "mem/pmem_dimm.hh"
#include "mem/timed_mem.hh"
#include "psm/psm.hh"
#include "psm/start_gap.hh"
#include "psm/xcc.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

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
 *  baselines move it: 4096 line writes walking page after page. */
void
BM_PsmSpanWrite(benchmark::State &state)
{
    psm::Psm psm;
    psm::PsmPort port(psm);
    mem::TimedMem timed(port);
    const std::uint64_t len =
        mem::TimedMem::sampleLines * mem::cacheLineBytes;
    Tick t = 0;
    mem::Addr addr = 0;
    for (auto _ : state) {
        t = timed.writeSpan(t, addr, len);
        addr = (addr + len) % (std::uint64_t(1) << 30);
    }
    state.SetItemsProcessed(state.iterations()
                            * mem::TimedMem::sampleLines);
}
BENCHMARK(BM_PsmSpanWrite);

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

} // namespace

BENCHMARK_MAIN();
