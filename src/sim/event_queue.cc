#include "sim/event_queue.hh"

#include <utility>

#include "base/logging.hh"

namespace lightllm {
namespace sim {

std::uint32_t
EventQueue::acquireSlot(EventHandler &&handler)
{
    std::uint32_t slot;
    if (freeHead_ != kNoSlot) {
        slot = freeHead_;
        freeHead_ = freeNext_[slot];
        handlers_[slot] = std::move(handler);
    } else {
        slot = static_cast<std::uint32_t>(handlers_.size());
        LIGHTLLM_ASSERT(slot <= kSlotMask,
                        "event arena exhausted: ", slot,
                        " concurrently pending events");
        handlers_.push_back(std::move(handler));
        pos_.push_back(kNoSlot);
        gen_.push_back(0);
        freeNext_.push_back(kNoSlot);
    }
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    handlers_[slot].reset();
    pos_[slot] = kNoSlot;
    // Bumping the generation invalidates every handle issued for
    // this slot's previous occupants in O(1).
    ++gen_[slot];
    freeNext_[slot] = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::siftUp(std::size_t at)
{
    const HeapEntry moving = heap_[at];
    const OrderKey movingKey = orderKey(moving);
    while (at > 0) {
        const std::size_t parent = (at - 1) / 2;
        if (!(movingKey < orderKey(heap_[parent])))
            break;
        heap_[at] = heap_[parent];
        pos_[slotIn(heap_[at].key)] = static_cast<std::uint32_t>(at);
        at = parent;
    }
    heap_[at] = moving;
    pos_[slotIn(moving.key)] = static_cast<std::uint32_t>(at);
}

void
EventQueue::siftDown(std::size_t at)
{
    const std::size_t size = heap_.size();
    const HeapEntry moving = heap_[at];
    const OrderKey movingKey = orderKey(moving);
    // Main loop runs while both children exist: the smaller-child
    // pick is branch-free (ranks are unique scalars, see orderKey).
    while (2 * at + 2 < size) {
        std::size_t child = 2 * at + 1;
        child += static_cast<std::size_t>(
            orderKey(heap_[child + 1]) < orderKey(heap_[child]));
        if (!(orderKey(heap_[child]) < movingKey))
            break;
        heap_[at] = heap_[child];
        pos_[slotIn(heap_[at].key)] = static_cast<std::uint32_t>(at);
        at = child;
    }
    // Tail: a lone left child at the heap edge. Harmless after the
    // early break above (the left child ranks >= the min child,
    // which ranked >= moving).
    const std::size_t child = 2 * at + 1;
    if (child < size && orderKey(heap_[child]) < movingKey) {
        heap_[at] = heap_[child];
        pos_[slotIn(heap_[at].key)] = static_cast<std::uint32_t>(at);
        at = child;
    }
    heap_[at] = moving;
    pos_[slotIn(moving.key)] = static_cast<std::uint32_t>(at);
}

EventId
EventQueue::schedule(Tick when, EventHandler handler, EventClass cls)
{
    LIGHTLLM_ASSERT(when >= 0, "cannot schedule at negative tick ",
                    when);
    const std::uint32_t slot = acquireSlot(std::move(handler));
    heap_.push_back(HeapEntry{when, sortKey(cls, nextSeq_++, slot)});
    siftUp(heap_.size() - 1);
    return (static_cast<EventId>(gen_[slot]) << 32) |
        static_cast<EventId>(slot + 1);
}

void
EventQueue::removeAt(std::size_t at)
{
    const std::size_t last = heap_.size() - 1;
    if (at != last) {
        heap_[at] = heap_[last];
        heap_.pop_back();
        // The moved entry may belong above or below its new slot;
        // whichever sift moves it, the other is a no-op.
        siftUp(at);
        siftDown(at);
    } else {
        heap_.pop_back();
    }
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = slotOf(id);
    if (slot == kNoSlot)
        return false;
    removeAt(pos_[slot]);
    releaseSlot(slot);
    return true;
}

bool
EventQueue::reschedule(EventId id, Tick when)
{
    LIGHTLLM_ASSERT(when >= 0, "cannot reschedule to negative tick ",
                    when);
    const std::uint32_t slot = slotOf(id);
    if (slot == kNoSlot)
        return false;
    const std::size_t at = pos_[slot];
    heap_[at].when = when;
    // Re-sequence as if newly scheduled, preserving the class bits.
    heap_[at].key = (heap_[at].key & kClsMask) |
        ((nextSeq_++) << 24) | slot;
    siftUp(at);
    siftDown(pos_[slot]);
    return true;
}

Tick
EventQueue::eventTick(EventId id) const
{
    const std::uint32_t slot = slotOf(id);
    LIGHTLLM_ASSERT(slot != kNoSlot, "eventTick on unknown event ",
                    id);
    return heap_[pos_[slot]].when;
}

Tick
EventQueue::nextTick() const
{
    LIGHTLLM_ASSERT(!heap_.empty(), "nextTick on empty queue");
    return heap_.front().when;
}

EventQueue::HeadView
EventQueue::peekHead() const
{
    LIGHTLLM_ASSERT(!heap_.empty(), "peekHead on empty queue");
    const HeapEntry &top = heap_.front();
    return HeadView{top.when,
                    static_cast<EventClass>(top.key >> 62),
                    slotIn(top.key)};
}

EventHandler
EventQueue::extractNext()
{
    LIGHTLLM_ASSERT(!heap_.empty(), "extractNext on empty queue");
    const HeapEntry top = heap_.front();
    const std::uint32_t slot = slotIn(top.key);
    EventHandler handler = std::move(handlers_[slot]);
    removeAt(0);
    releaseSlot(slot);
    return handler;
}

Tick
EventQueue::runNext()
{
    LIGHTLLM_ASSERT(!heap_.empty(), "runNext on empty queue");
    const HeapEntry top = heap_.front();
    const std::uint32_t slot = slotIn(top.key);
    // Move the handler out and release the slot before running so
    // the handler may freely schedule new events (which may recycle
    // this very slot or grow the arena).
    EventHandler handler = std::move(handlers_[slot]);
    removeAt(0);
    releaseSlot(slot);
    handler(top.when);
    return top.when;
}

} // namespace sim
} // namespace lightllm
