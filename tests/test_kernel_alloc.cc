/**
 * @file
 * Zero-allocation guarantees for the simulation kernel's hot paths.
 *
 * The global operator new/delete overrides below count every heap
 * allocation made by this test binary. Each test drives a kernel
 * workload long enough to reach steady state (slabs grown, every
 * calendar bucket's vector at capacity), then asserts that a further
 * measured run performs exactly zero allocations. A regression that
 * reintroduces per-event malloc — a std::function capture, a
 * per-request new, a container grown on the hot path — fails these
 * tests deterministically, without timing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "mem/request.hh"
#include "sim/event_queue.hh"

namespace
{

// Atomic because the override counts every allocation in the whole
// test binary, including ones made on ParallelExecutor workers in
// other test files. The allocation-free assertions below are all
// single-threaded, so relaxed counting is exact where it matters.
std::atomic<std::uint64_t> g_newCalls{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using namespace lightpc;

/** Ticks between consecutive churn events. */
constexpr Tick churnStride = 10;

/**
 * Enough churn iterations to cycle the calendar ring twice, so every
 * bucket vector has grown to its steady capacity.
 */
constexpr std::uint64_t warmupEvents =
    2 * EventQueue::ringSpan / churnStride;
constexpr std::uint64_t measuredEvents = 200'000;

TEST(KernelAlloc, EventQueueChurnIsAllocationFree)
{
    EventQueue eq;
    Tick t = eq.now();
    auto churn = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            t += churnStride;
            eq.schedule(t, [] {});
            eq.step();
        }
    };
    churn(warmupEvents);

    const std::uint64_t before = g_newCalls;
    churn(measuredEvents);
    EXPECT_EQ(g_newCalls - before, 0u);
}

TEST(KernelAlloc, EventQueueCapture32ChurnIsAllocationFree)
{
    EventQueue eq;
    Tick t = eq.now();
    std::uint64_t sink[4] = {1, 2, 3, 4};
    volatile std::uint64_t out = 0;
    auto churn = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            t += churnStride;
            eq.schedule(t, [sink, &out] { out = sink[0]; });
            eq.step();
        }
    };
    churn(warmupEvents);

    const std::uint64_t before = g_newCalls;
    churn(measuredEvents);
    EXPECT_EQ(g_newCalls - before, 0u);
}

TEST(KernelAlloc, EventQueueScheduleCancelIsAllocationFree)
{
    EventQueue eq;
    Tick t = eq.now();
    auto churn = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            t += churnStride;
            eq.schedule(t, [] {});
            const EventId doomed = eq.schedule(t + 5, [] {});
            eq.deschedule(doomed);
            eq.step();
        }
    };
    churn(warmupEvents);

    const std::uint64_t before = g_newCalls;
    churn(measuredEvents);
    EXPECT_EQ(g_newCalls - before, 0u);
}

TEST(KernelAlloc, RequestPoolReuseIsAllocationFree)
{
    mem::RequestPool pool;
    // Grow to steady capacity: hold a batch, release it.
    constexpr unsigned depth = 32;
    mem::PooledRequest *held[depth];
    for (auto &p : held)
        p = pool.acquire();
    for (auto &p : held)
        pool.release(p);

    const std::uint64_t before = g_newCalls;
    for (int round = 0; round < 10'000; ++round) {
        for (auto &p : held)
            p = pool.acquire();
        for (auto &p : held)
            pool.release(p);
    }
    EXPECT_EQ(g_newCalls - before, 0u);
}

} // namespace
