/**
 * @file
 * Shared discrete-event simulation context.
 *
 * A SimContext owns the one clock and the one EventQueue of a
 * simulation. Actors (serving engines, routers, load generators,
 * drain triggers) schedule their occurrences here; the context
 * fires them in global (tick, class, FIFO) order and advances the
 * clock to each event's tick as it fires. Because *all* actors
 * share the ordering authority, a multi-instance co-simulation is
 * exact: no actor ever observes another actor's state from the
 * future (see DESIGN.md §3).
 *
 * The clock is monotonic: events can only be scheduled at or after
 * now(). Handlers may schedule, cancel, or reschedule further
 * events freely, including at the current tick (they fire later in
 * the same tick's FIFO order).
 *
 * Sharded mode (DESIGN.md §9): a ShardedSimContext may enroll a
 * context in one of two roles, neither of which changes the
 * default single-threaded behavior when no hub is attached:
 *
 *  - *root*: the coordinator's context. Its queue holds every
 *    Delivery-class event of the simulation (arrivals, completion
 *    notifications, drains, autoscale control, disagg handoffs) —
 *    the cross-shard traffic — and its run entry points
 *    (runNext/runToCompletion/empty) delegate to the hub so
 *    existing drivers (`ServingCluster::run`, the autoscaler's
 *    quiescence check) work unchanged.
 *  - *shard member*: a per-shard context engines attach to. Its
 *    queue holds only engine-local Step events; Delivery-class
 *    schedules are routed to the hub, which commits them to the
 *    root queue in deterministic global order. Handles returned
 *    for routed deliveries carry a tag bit so cancel(),
 *    reschedule() and eventTick() transparently reach the root
 *    queue.
 */

#ifndef LIGHTLLM_SIM_SIM_CONTEXT_HH
#define LIGHTLLM_SIM_SIM_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "sim/event_queue.hh"

namespace lightllm {
namespace sim {

class ShardedSimContext;

/** Shared clock + event queue driving one simulation. */
class SimContext
{
  public:
    SimContext() = default;

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /**
     * Current simulation time. For a plain context this is the tick
     * of the last fired event; a shard member also never lags the
     * coordinator's clock (its own clock only advances on local
     * Step events, but globally-ordered Delivery handlers run at
     * the coordinator's later tick).
     */
    Tick now() const;

    /** Schedule `handler` at absolute tick `when` (>= now()). */
    EventId schedule(Tick when, EventHandler handler,
                     EventClass cls = EventClass::Delivery);

    /** Cancel a pending event (see EventQueue::cancel). */
    bool cancel(EventId id);

    /** Move a pending event to `when` (>= now()). */
    bool reschedule(EventId id, Tick when);

    /** Scheduled tick of a pending event (EventQueue::pending). */
    Tick eventTick(EventId id) const;

    /** True when no events remain (across all shards for a root). */
    bool empty() const;

    /**
     * Fire the earliest pending event, advancing the clock to its
     * tick. A hub-attached root fires one coordinator event or one
     * full parallel window.
     *
     * @return false when no events remain (clock unchanged).
     */
    bool runNext();

    /**
     * Fire events until none remain.
     *
     * @return Number of events fired.
     */
    std::uint64_t runToCompletion();

    /** The underlying queue (tests / advanced scheduling). */
    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }

    /** The sharded hub this context coordinates, or null for plain
     *  single-threaded contexts and shard members. Clusters use
     *  this to place engines onto shards at adoption time. */
    ShardedSimContext *coordinatedHub() const
    {
        return shard_ < 0 ? hub_ : nullptr;
    }

  private:
    friend class ShardedSimContext;

    /** Routed-delivery handles: bit 63 marks an EventId issued by
     *  the root queue on behalf of a shard member. Root-queue slot
     *  generations would need 2^31 recycles of one slot to reach
     *  this bit (asserted when tagging). */
    static constexpr EventId kRoutedDeliveryBit = 1ull << 63;

    bool isMember() const { return hub_ != nullptr && shard_ >= 0; }
    bool isRoot() const { return hub_ != nullptr && shard_ < 0; }

    /** Fire the earliest event of this context's own queue (the
     *  hub's coordinator path; bypasses hub delegation). */
    bool runNextLocal();

    /** Record the calling execution context's deterministic stamp
     *  for the member-queue event `id` (see ShardedSimContext). */
    void noteStamp(EventId id);

    EventQueue queue_;
    Tick now_ = 0;

    /** Hub enrollment (null for plain single-threaded contexts). */
    ShardedSimContext *hub_ = nullptr;
    /** Shard index for members; -1 for root / plain contexts. */
    std::int32_t shard_ = -1;

    /**
     * Member-queue event stamps, keyed by arena slot: the global
     * (turn, op) of the schedule/reschedule that created the event.
     * Within one queue FIFO order equals stamp order, so the heap
     * needs no change; stamps exist to compare *heads of different
     * shard queues* in the exact order the single-threaded queue
     * would have used.
     */
    std::vector<std::uint64_t> stampTurn_;
    std::vector<std::uint64_t> stampOp_;
};

} // namespace sim
} // namespace lightllm

#endif // LIGHTLLM_SIM_SIM_CONTEXT_HH
