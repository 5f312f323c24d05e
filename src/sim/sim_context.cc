#include "sim/sim_context.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "sim/sharded_sim_context.hh"

namespace lightllm {
namespace sim {

Tick
SimContext::now() const
{
    // A shard member's own clock only advances on its local Step
    // events; globally-ordered delivery handlers (drains, steals,
    // submissions) run at the coordinator's tick, which the single
    // shared clock would have reached first.
    if (isMember())
        return std::max(now_, hub_->rootNow());
    return now_;
}

EventId
SimContext::schedule(Tick when, EventHandler handler, EventClass cls)
{
    if (isMember()) {
        if (cls == EventClass::Delivery) {
            return hub_->scheduleDeliveryFromShard(
                static_cast<std::uint32_t>(shard_), when,
                std::move(handler));
        }
        LIGHTLLM_ASSERT(when >= now_, "cannot schedule at tick ",
                        when, " in the past of the shard clock ",
                        now_);
        const EventId id =
            queue_.schedule(when, std::move(handler), cls);
        noteStamp(id);
        return id;
    }
    LIGHTLLM_ASSERT(when >= now_, "cannot schedule at tick ", when,
                    " in the past of the shared clock ", now_);
    LIGHTLLM_ASSERT(hub_ == nullptr || cls == EventClass::Delivery,
                    "sharded root context accepts only Delivery "
                    "events (Step events are engine-local and "
                    "belong on a shard)");
    return queue_.schedule(when, std::move(handler), cls);
}

bool
SimContext::cancel(EventId id)
{
    if (isMember() && (id & kRoutedDeliveryBit) != 0)
        return hub_->root().queue_.cancel(id & ~kRoutedDeliveryBit);
    return queue_.cancel(id);
}

bool
SimContext::reschedule(EventId id, Tick when)
{
    if (isMember()) {
        if ((id & kRoutedDeliveryBit) != 0) {
            LIGHTLLM_ASSERT(when >= hub_->rootNow(),
                            "cannot reschedule to tick ", when,
                            " in the past of the shared clock ",
                            hub_->rootNow());
            return hub_->root().queue_.reschedule(
                id & ~kRoutedDeliveryBit, when);
        }
        LIGHTLLM_ASSERT(when >= now_, "cannot reschedule to tick ",
                        when, " in the past of the shard clock ",
                        now_);
        const bool moved = queue_.reschedule(id, when);
        if (moved) {
            // Re-sequenced as if newly scheduled: re-stamp so heads
            // of different shard queues keep comparing in the exact
            // single-queue FIFO order.
            noteStamp(id);
        }
        return moved;
    }
    LIGHTLLM_ASSERT(when >= now_, "cannot reschedule to tick ", when,
                    " in the past of the shared clock ", now_);
    return queue_.reschedule(id, when);
}

Tick
SimContext::eventTick(EventId id) const
{
    if (isMember() && (id & kRoutedDeliveryBit) != 0) {
        return hub_->root().queue_.eventTick(id &
                                             ~kRoutedDeliveryBit);
    }
    return queue_.eventTick(id);
}

bool
SimContext::empty() const
{
    if (isRoot())
        return hub_->allEmpty();
    return queue_.empty();
}

void
SimContext::noteStamp(EventId id)
{
    const auto slot =
        static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
    if (slot >= stampTurn_.size()) {
        stampTurn_.resize(slot + 1, 0);
        stampOp_.resize(slot + 1, 0);
    }
    ShardedSimContext::stampNow(stampTurn_[slot], stampOp_[slot]);
}

bool
SimContext::runNextLocal()
{
    if (queue_.empty())
        return false;
    // Advance the clock before the handler runs so handlers observe
    // now() == their fire tick and may schedule same-tick events.
    const Tick next = queue_.nextTick();
    LIGHTLLM_ASSERT(next >= now_,
                    "event queue fired out of order: ", next,
                    " after ", now_);
    now_ = next;
    queue_.runNext();
    return true;
}

bool
SimContext::runNext()
{
    if (isRoot())
        return hub_->runOne();
    return runNextLocal();
}

std::uint64_t
SimContext::runToCompletion()
{
    if (isRoot())
        return hub_->runAll();
    std::uint64_t fired = 0;
    while (runNextLocal())
        ++fired;
    return fired;
}

} // namespace sim
} // namespace lightllm
