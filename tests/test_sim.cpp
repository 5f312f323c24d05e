/**
 * @file
 * Unit tests for the discrete-event queue and the shared
 * simulation context.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/sim_context.hh"

namespace lightllm {
namespace sim {
namespace {

/** Fire every pending event, including ones scheduled meanwhile. */
void
runAll(EventQueue &queue)
{
    while (!queue.empty())
        queue.runNext();
}

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(30, [&](Tick) { order.push_back(3); });
    queue.schedule(10, [&](Tick) { order.push_back(1); });
    queue.schedule(20, [&](Tick) { order.push_back(2); });
    runAll(queue);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTicksFireInInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        queue.schedule(5, [&order, i](Tick) { order.push_back(i); });
    runAll(queue);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, RunNextLeavesLaterTicksPending)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(10, [&](Tick) { ++fired; });
    queue.schedule(11, [&](Tick) { ++fired; });
    EXPECT_EQ(queue.runNext(), 10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.nextTick(), 11);
}

TEST(EventQueueTest, HandlerReceivesScheduledTick)
{
    EventQueue queue;
    Tick seen = -1;
    queue.schedule(42, [&](Tick when) { seen = when; });
    runAll(queue);
    EXPECT_EQ(seen, 42);
}

TEST(EventQueueTest, HandlerMaySchedule)
{
    EventQueue queue;
    std::vector<Tick> fired;
    queue.schedule(1, [&](Tick when) {
        fired.push_back(when);
        queue.schedule(2, [&](Tick w2) { fired.push_back(w2); });
    });
    runAll(queue);
    EXPECT_EQ(fired, (std::vector<Tick>{1, 2}));
}

TEST(EventQueueTest, ChainedLaterEventStaysPending)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(1, [&](Tick) {
        ++fired;
        queue.schedule(50, [&](Tick) { ++fired; });
    });
    EXPECT_EQ(queue.runNext(), 1);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.nextTick(), 50);
}

TEST(EventQueueTest, RunNextPopsExactlyOne)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(3, [&](Tick) { ++fired; });
    queue.schedule(3, [&](Tick) { ++fired; });
    EXPECT_EQ(queue.runNext(), 3);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.size(), 1u);
}

// --- Cancellable / reschedulable handles --------------------------------

TEST(EventQueueHandleTest, CancelPreventsFiring)
{
    EventQueue queue;
    int fired = 0;
    const EventId keep = queue.schedule(5, [&](Tick) { ++fired; });
    const EventId drop =
        queue.schedule(3, [&](Tick) { fired += 100; });
    EXPECT_EQ(queue.eventTick(drop), 3);
    EXPECT_TRUE(queue.cancel(drop));
    EXPECT_FALSE(queue.reschedule(drop, 4));
    EXPECT_EQ(queue.eventTick(keep), 5);
    runAll(queue);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueHandleTest, CancelUnknownOrFiredReturnsFalse)
{
    EventQueue queue;
    EXPECT_FALSE(queue.cancel(kInvalidEventId));
    EXPECT_FALSE(queue.cancel(12345));
    const EventId id = queue.schedule(1, [](Tick) {});
    runAll(queue);
    EXPECT_FALSE(queue.cancel(id));
    EXPECT_FALSE(queue.reschedule(id, 2));
}

TEST(EventQueueHandleTest, RescheduleMovesEventBothDirections)
{
    EventQueue queue;
    std::vector<int> order;
    const EventId a =
        queue.schedule(10, [&](Tick) { order.push_back(1); });
    const EventId b =
        queue.schedule(20, [&](Tick) { order.push_back(2); });
    // Pull b before a, push a past b.
    EXPECT_TRUE(queue.reschedule(b, 5));
    EXPECT_TRUE(queue.reschedule(a, 30));
    EXPECT_EQ(queue.eventTick(a), 30);
    EXPECT_EQ(queue.eventTick(b), 5);
    runAll(queue);
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueHandleTest, RescheduleResequencesBehindSameTick)
{
    // A rescheduled event behaves as newly scheduled: it fires
    // after events already waiting at the target tick.
    EventQueue queue;
    std::vector<int> order;
    const EventId moved =
        queue.schedule(1, [&](Tick) { order.push_back(1); });
    queue.schedule(7, [&](Tick) { order.push_back(2); });
    EXPECT_TRUE(queue.reschedule(moved, 7));
    runAll(queue);
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueHandleTest, HandlesSurviveHeavyChurn)
{
    // Interleave schedule/cancel/reschedule and verify the firing
    // order is exactly the sorted surviving set (exercises the
    // index maintenance through sifts in both directions).
    EventQueue queue;
    std::vector<Tick> fired;
    std::vector<EventId> ids;
    for (Tick t = 0; t < 50; ++t) {
        ids.push_back(queue.schedule(
            100 - 2 * t, [&](Tick when) { fired.push_back(when); }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3)
        EXPECT_TRUE(queue.cancel(ids[i]));
    for (std::size_t i = 1; i < ids.size(); i += 3) {
        EXPECT_TRUE(
            queue.reschedule(ids[i], 1000 + static_cast<Tick>(i)));
    }
    runAll(queue);
    std::vector<Tick> sorted = fired;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fired, sorted);
    EXPECT_EQ(fired.size(), ids.size() - (ids.size() + 2) / 3);
}

// --- Recycled-slot generation tags --------------------------------------

TEST(EventQueueHandleTest, StaleHandleDoesNotAliasRecycledSlot)
{
    EventQueue queue;
    int cancelled_fired = 0;
    int fresh_fired = 0;
    const EventId stale =
        queue.schedule(5, [&](Tick) { ++cancelled_fired; });
    EXPECT_TRUE(queue.cancel(stale));
    // The freed arena slot is recycled by the next schedule; the
    // stale handle must target nothing — not the new occupant.
    const EventId fresh =
        queue.schedule(7, [&](Tick) { ++fresh_fired; });
    EXPECT_NE(stale, fresh);
    EXPECT_FALSE(queue.cancel(stale));
    EXPECT_FALSE(queue.reschedule(stale, 1));
    EXPECT_EQ(queue.eventTick(fresh), 7);
    runAll(queue);
    EXPECT_EQ(cancelled_fired, 0);
    EXPECT_EQ(fresh_fired, 1);
}

TEST(EventQueueHandleTest, FiredHandleDoesNotAliasRecycledSlot)
{
    EventQueue queue;
    int fired = 0;
    const EventId spent = queue.schedule(1, [&](Tick) { ++fired; });
    runAll(queue);
    EXPECT_EQ(fired, 1);
    // Firing released the slot; the next schedule recycles it.
    int live_fired = 0;
    const EventId live =
        queue.schedule(9, [&](Tick) { ++live_fired; });
    EXPECT_NE(spent, live);
    EXPECT_FALSE(queue.cancel(spent));
    EXPECT_FALSE(queue.reschedule(spent, 3));
    EXPECT_EQ(queue.eventTick(live), 9);
    runAll(queue);
    EXPECT_EQ(live_fired, 1);
}

TEST(EventQueueHandleTest, RepeatedRecyclingKeepsHandlesDistinct)
{
    // One slot recycled many times: every issued handle is unique
    // and only the newest one resolves.
    EventQueue queue;
    EventId previous = kInvalidEventId;
    for (int i = 0; i < 1000; ++i) {
        const EventId id = queue.schedule(1, [](Tick) {});
        EXPECT_NE(id, previous);
        if (previous != kInvalidEventId) {
            EXPECT_FALSE(queue.reschedule(previous, 2));
        }
        EXPECT_EQ(queue.eventTick(id), 1);
        EXPECT_TRUE(queue.cancel(id));
        previous = id;
    }
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueueClassTest, DeliveriesFireBeforeStepsAtEqualTicks)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(5, [&](Tick) { order.push_back(1); },
                   EventClass::Step);
    queue.schedule(5, [&](Tick) { order.push_back(2); },
                   EventClass::Delivery);
    queue.schedule(4, [&](Tick) { order.push_back(3); },
                   EventClass::Step);
    queue.schedule(5, [&](Tick) { order.push_back(4); },
                   EventClass::Delivery);
    runAll(queue);
    // Tick 4 step first, then tick-5 deliveries in FIFO order,
    // then the tick-5 step.
    EXPECT_EQ(order, (std::vector<int>{3, 2, 4, 1}));
}

// --- Shared simulation context ------------------------------------------

TEST(SimContextTest, ClockFollowsFiredEvents)
{
    SimContext context;
    std::vector<Tick> seen;
    auto note = [&](Tick) { seen.push_back(context.now()); };
    context.schedule(10, note);
    context.schedule(3, note);
    EXPECT_EQ(context.now(), 0);
    EXPECT_TRUE(context.runNext());
    EXPECT_EQ(context.now(), 3);
    EXPECT_EQ(context.runToCompletion(), 1u);
    EXPECT_EQ(context.now(), 10);
    // Handlers observed the advanced clock, not the stale one.
    EXPECT_EQ(seen, (std::vector<Tick>{3, 10}));
    EXPECT_FALSE(context.runNext());
}

TEST(SimContextTest, HandlersMayChainSameTickEvents)
{
    SimContext context;
    int fired = 0;
    context.schedule(5, [&](Tick when) {
        ++fired;
        context.schedule(when, [&](Tick) { ++fired; });
    });
    EXPECT_EQ(context.runToCompletion(), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(context.now(), 5);
}

TEST(SimContextDeathTest, SchedulingInThePastPanics)
{
    SimContext context;
    context.schedule(10, [](Tick) {});
    context.runToCompletion();
    EXPECT_DEATH(context.schedule(5, [](Tick) {}),
                 "past of the shared clock");
}

TEST(EventQueueDeathTest, NegativeTickPanics)
{
    EventQueue queue;
    EXPECT_DEATH(queue.schedule(-1, [](Tick) {}), "negative tick");
}

TEST(EventQueueDeathTest, NextTickOnEmptyPanics)
{
    EventQueue queue;
    EXPECT_DEATH(queue.nextTick(), "empty");
}

} // namespace
} // namespace sim
} // namespace lightllm
