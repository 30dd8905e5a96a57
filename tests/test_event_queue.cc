/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace
{

using namespace lightpc;

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); },
                EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(2); },
                EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::PowerEvent);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RunWithLimitStopsBeforeLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsScheduledExactlyAtLimitExecute)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(50, [&] { fired = true; });
    eq.run(50);
    EXPECT_TRUE(fired);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int chain = 0;
    std::function<void()> step = [&] {
        if (++chain < 5)
            eq.scheduleIn(10, step);
    };
    eq.schedule(0, step);
    eq.run();
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(10, [&] { fired = true; });
    eq.deschedule(id);
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleIsIdempotentAndIgnoresInvalid)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.deschedule(invalidEventId);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, DescheduledClosureIsDestroyedEagerly)
{
    EventQueue eq;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    const EventId id = eq.schedule(10, [token] {});
    token.reset();
    EXPECT_FALSE(watch.expired());
    eq.deschedule(id);
    // The capture must die at cancellation, not when time reaches 10.
    EXPECT_TRUE(watch.expired());
    eq.run();
}

/**
 * Regression for the stale-entry leak: a million cancelled events
 * must not accumulate ordering entries or pool slabs. The original
 * kernel kept one heap entry per cancelled event until its tick was
 * reached; the sweep must keep pendingEntries() proportional to the
 * live count, not to the cancellation history.
 */
TEST(EventQueue, ScheduleCancelChurnKeepsMemoryBounded)
{
    EventQueue eq;
    Tick t = 0;
    std::size_t max_pending = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        t += 10;
        const EventId id = eq.schedule(t + 100'000, [] {});
        eq.deschedule(id);
        if (i % 4 == 0) {
            eq.schedule(t, [] {});
            eq.step();
        }
        max_pending = std::max(max_pending, eq.pendingEntries());
    }
    // Live count never exceeds 2 here; the sweep threshold allows a
    // backlog of max(pruneFloor, 2x live) stale entries plus slack.
    EXPECT_LT(max_pending, 1024u);
    EXPECT_LT(eq.pendingEntries(), 1024u);
    // One slab (256 records) is plenty for two in-flight events.
    EXPECT_LE(eq.poolCapacity(), 512u);
}

/**
 * The kernel's ordering contract as the plainest structure that
 * meets it: pending events in a std::map keyed by (tick, priority,
 * insertion sequence). deschedule() erases the key; run() and step()
 * pop the smallest key, set now() to its tick and invoke it.
 */
class ReferenceQueue
{
  public:
    using Key = std::tuple<Tick, int, std::uint64_t>;

    Tick now() const { return _now; }
    std::size_t size() const { return pending.size(); }

    Key
    schedule(Tick when, std::function<void()> fn, EventPriority prio)
    {
        const Key key{when, static_cast<int>(prio), ++seq};
        pending.emplace(key, std::move(fn));
        return key;
    }

    void deschedule(const Key &key) { pending.erase(key); }

    bool
    step(Tick limit = maxTick)
    {
        if (pending.empty()
            || std::get<0>(pending.begin()->first) > limit)
            return false;
        auto node = pending.extract(pending.begin());
        _now = std::get<0>(node.key());
        node.mapped()();
        return true;
    }

    Tick
    run(Tick limit = maxTick)
    {
        while (step(limit)) {
        }
        return _now;
    }

  private:
    Tick _now = 0;
    std::uint64_t seq = 0;
    std::map<Key, std::function<void()>> pending;
};

/**
 * One seeded fuzz run against @p Queue. Top-level ops schedule
 * single events (some at cluster-timer delays of 1 us to 2 ms, far
 * enough out for the far heap, the rest within 4 us, where many
 * share a calendar bucket), same-tick bursts across all four
 * priorities and rare waves of 500 events; cancel one event or,
 * rarely, most of them (after a wave, enough to trigger the
 * stale-entry sweep); run() to a limit, sometimes a timer delay
 * ahead; and step(). Firing events schedule follow-ups at now() and
 * later, re-arm timers and cancel other pending events. The trace records every firing (its
 * label and tick) and, after every op and the final drain, its
 * result, now() and size(). With @p widened false only the retired
 * legacy comparison's ops remain: single schedules within 300'000
 * ticks, single cancels and run() to a limit, with callbacks that
 * only record their firing.
 */
template <typename Queue>
class KernelFuzz
{
  public:
    KernelFuzz(std::uint64_t seed, bool widened)
        : rng(seed), widened(widened)
    {
    }

    std::vector<std::uint64_t>
    run()
    {
        for (int op = 0; op < 4000; ++op) {
            const auto roll = rng.below(100);
            if (widened && roll < 60 && rng.below(100) == 0) {
                for (int i = 0; i < 500; ++i)
                    add(q.now() + rng.below(4'000'000));
            } else if (widened && roll < 60 && rng.below(6) == 0) {
                add(q.now() + timerDelay());
            } else if (roll < 60) {
                const Tick when = q.now()
                    + rng.below(widened && rng.below(8) == 0 ? 4'000'000
                                                             : 300'000);
                add(when, widened && rng.below(6) == 0 ? 2 + rng.below(4) : 1);
            } else if (widened && roll < 80 && rng.below(50) == 0) {
                for (const Handle &h : handles)
                    if (rng.below(4) != 0)
                        q.deschedule(h);
            } else if (roll < 80 && !handles.empty()) {
                q.deschedule(handles[rng.below(handles.size())]);
            } else if (widened && rng.below(4) == 0) {
                trace.push_back(q.step());
            } else {
                const Tick reach = widened && rng.below(8) == 0
                    ? timerDelay()
                    : rng.below(50'000);
                trace.push_back(q.run(q.now() + reach));
            }
            trace.push_back(q.now());
            trace.push_back(q.size());
        }
        trace.push_back(q.run());
        trace.push_back(q.size());
        return trace;
    }

    std::uint64_t firings = 0;

  private:
    using Handle = decltype(std::declval<Queue &>().schedule(
        Tick{}, [] {}, EventPriority::Default));

    /**
     * A cluster-timer-like delay: 1 us to 2 ms, log-uniform in
     * octaves. Short ones share calendar buckets with other events
     * (the sorted insert); long ones go through the far heap.
     */
    Tick
    timerDelay()
    {
        const Tick octave = tickUs << rng.below(11);
        return octave + rng.below(octave);
    }

    /** @p n events at tick @p when, each at a random priority. */
    void
    add(Tick when, std::uint64_t n = 1)
    {
        constexpr EventPriority prios[] = {
            EventPriority::PowerEvent, EventPriority::Interrupt,
            EventPriority::Default, EventPriority::Stats};
        for (; n > 0; --n) {
            const std::uint64_t label = handles.size();
            handles.push_back(q.schedule(
                when, [this, label] { fire(label); },
                prios[rng.below(4)]));
        }
    }

    void
    fire(std::uint64_t label)
    {
        ++firings;
        trace.push_back(label);
        trace.push_back(q.now());
        if (!widened)
            return;
        // Half the follow-ups land at now() itself.
        const auto roll = rng.below(100);
        const Tick when = q.now()
            + (rng.below(2) == 0 ? 0 : rng.below(roll < 25 ? 300'000 : 4096));
        if (roll < 25)
            add(when);
        else if (roll < 35)
            add(when, 2 + rng.below(4));
        else if (roll < 50)
            q.deschedule(handles[rng.below(handles.size())]);
        else if (roll < 58)
            add(q.now() + timerDelay());  // a re-armed timer
    }

    Queue q;
    Rng rng;
    const bool widened;
    std::vector<Handle> handles;
    std::vector<std::uint64_t> trace;
};

/**
 * The pooled kernel must fire in exactly the reference model's
 * (tick, priority, FIFO) order under identical op streams, including
 * events scheduled and cancelled from inside firing events.
 */
void
expectSameTraces(bool widened)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        KernelFuzz<EventQueue> pooled(seed, widened);
        const std::vector<std::uint64_t> got = pooled.run();
        const std::vector<std::uint64_t> want =
            KernelFuzz<ReferenceQueue>(seed, widened).run();
        ASSERT_TRUE(got == want)
            << "seed " << seed << ": trace diverged at entry "
            << (std::mismatch(got.begin(), got.end(), want.begin(),
                              want.end()).first
                - got.begin());
        EXPECT_GT(pooled.firings, widened ? 4000u : 1000u);
    }
}

TEST(EventQueue, FiringOrderMatchesReferenceModelUnderFuzz)
{
    expectSameTraces(true);
}

/**
 * The retired legacy kernel's comparison, against the reference
 * model, which keeps that kernel's semantics exactly.
 */
TEST(EventQueue, FiringOrderMatchesLegacyKernelUnderFuzz)
{
    expectSameTraces(false);
}

TEST(Ticks, ClockDomainConversions)
{
    ClockDomain clk(1600);  // 1.6 GHz -> 625 ps
    EXPECT_EQ(clk.period(), 625u);
    EXPECT_EQ(clk.toTicks(1000), 625'000u);
    EXPECT_EQ(clk.toCycles(625'000), 1000u);
    EXPECT_EQ(clk.toCycles(1), 1u);  // rounds up
}

TEST(Ticks, UnitConstants)
{
    EXPECT_EQ(tickNs, 1000u);
    EXPECT_EQ(tickMs, 1'000'000'000u);
    EXPECT_DOUBLE_EQ(ticksToMs(16 * tickMs), 16.0);
}

} // namespace
