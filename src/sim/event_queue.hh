/**
 * @file
 * Discrete-event queue driving the serving simulation.
 *
 * The queue is the single ordering authority of a simulation: every
 * timed occurrence — request arrivals, completion notifications,
 * engine iteration boundaries, drain triggers — is an event, and
 * events fire in (tick, class, insertion) order. Handles returned
 * by schedule() make events cancellable and reschedulable, which
 * the engine uses to pull its next-iteration event earlier when an
 * arrival lands on an idle instance, and the cluster uses to claw
 * back in-flight arrivals when an instance drains.
 *
 * Implementation (DESIGN.md §8): an indexed binary min-heap of flat
 * POD entries over a free-list slot arena. Each pending event owns
 * an arena slot holding its callback (inline storage, no heap
 * allocation for small callables) and per-slot bookkeeping; the
 * heap itself stores only {tick, sort key, slot} so sift swaps move
 * 24-byte PODs and update one dense u32 position array — no hash
 * map on any path. Slots are recycled through a free list, and an
 * EventId carries the slot's generation so a stale handle held
 * across recycling can never alias a newer event: cancel(),
 * reschedule() and eventTick() are O(1) array lookups
 * (plus an O(log n) sift where the heap changes). In steady state —
 * once the arena and heap have grown to the simulation's high-water
 * pending count — scheduling and firing events performs zero heap
 * allocations for callables that fit the inline buffer.
 */

#ifndef LIGHTLLM_SIM_EVENT_QUEUE_HH
#define LIGHTLLM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if !defined(__SIZEOF_INT128__)
#error "sim/event_queue.hh needs a compiler with unsigned __int128"
#endif

#include "base/types.hh"

namespace lightllm {
namespace sim {

/**
 * Move-only callable taking the fire tick, with inline storage.
 *
 * A drop-in replacement for `std::function<void(Tick)>` on the
 * event hot path: callables up to kInlineSize bytes live inside
 * the handler object itself (libstdc++'s std::function only
 * inlines 16 bytes, so even a [this, token] capture allocates).
 * Larger callables fall back to a heap allocation.
 */
class EventHandler
{
  public:
    /** Inline capture budget; larger callables heap-allocate. */
    static constexpr std::size_t kInlineSize = 48;

    EventHandler() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, EventHandler>>>
    EventHandler(F &&fn) // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(fn));
            // Trivially relocatable+destructible callables (plain
            // capture lists of pointers/PODs — every hot-path
            // lambda) move as a raw byte copy and destroy as a
            // no-op, with no indirect ops calls.
            if constexpr (std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>) {
                ops_ = &trivialOps<Fn>;
                trivial_ = true;
            } else {
                ops_ = &inlineOps<Fn>;
            }
        } else {
            *reinterpret_cast<void **>(storage_) =
                new Fn(std::forward<F>(fn));
            ops_ = &heapOps<Fn>;
        }
    }

    EventHandler(EventHandler &&other) noexcept { moveFrom(other); }

    EventHandler &
    operator=(EventHandler &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventHandler(const EventHandler &) = delete;
    EventHandler &operator=(const EventHandler &) = delete;

    ~EventHandler() { reset(); }

    /** Invoke the callable; requires a non-empty handler. */
    void
    operator()(Tick when)
    {
        ops_->invoke(storage_, when);
    }

    /** Destroy the held callable, leaving the handler empty. */
    void
    reset()
    {
        if (ops_ != nullptr) {
            if (!trivial_)
                ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *storage, Tick when);
        /** Move-construct into dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *storage) noexcept;
    };

    template <typename Fn>
    static constexpr Ops trivialOps = {
        [](void *storage, Tick when) {
            (*std::launder(reinterpret_cast<Fn *>(storage)))(when);
        },
        nullptr,
        nullptr,
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *storage, Tick when) {
            (*std::launder(reinterpret_cast<Fn *>(storage)))(when);
        },
        [](void *dst, void *src) noexcept {
            Fn *from = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *storage) noexcept {
            std::launder(reinterpret_cast<Fn *>(storage))->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *storage, Tick when) {
            (**static_cast<Fn **>(storage))(when);
        },
        [](void *dst, void *src) noexcept {
            *static_cast<void **>(dst) = *static_cast<void **>(src);
        },
        [](void *storage) noexcept {
            delete *static_cast<Fn **>(storage);
        },
    };

    void
    moveFrom(EventHandler &other) noexcept
    {
        ops_ = other.ops_;
        trivial_ = other.trivial_;
        if (ops_ != nullptr) {
            if (trivial_) {
                __builtin_memcpy(storage_, other.storage_,
                                 kInlineSize);
            } else {
                ops_->relocate(storage_, other.storage_);
            }
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    const Ops *ops_ = nullptr;
    bool trivial_ = false;
};

/**
 * Handle naming a scheduled event (0 is never issued).
 *
 * Layout: low 32 bits hold `slot + 1` (the arena slot the event
 * occupies), high 32 bits hold the slot's generation at schedule
 * time. Every release of a slot (fire or cancel) bumps its
 * generation, so a stale handle kept across slot recycling fails
 * the generation check in cancel()/reschedule() instead
 * of aliasing the newer event now occupying the slot. A single
 * slot would need 2^32 recycles for a stale handle to collide.
 */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId kInvalidEventId = 0;

/**
 * Coarse ordering band among events at the same tick. Deliveries
 * (arrivals, completion notifications, drains) always fire before
 * engine iteration (Step) events at the same tick, so an iteration
 * starting at tick t observes every delivery stamped <= t.
 */
enum class EventClass : std::uint8_t
{
    Delivery = 0,
    Step = 1,
};

/** Indexed min-heap of timestamped events with FIFO tie-breaking. */
class EventQueue
{
  public:
    EventQueue() = default;

    /**
     * Schedule a handler to fire at the given absolute tick.
     *
     * @return Handle usable with cancel() / reschedule() until the
     *         event fires.
     */
    EventId schedule(Tick when, EventHandler handler,
                     EventClass cls = EventClass::Delivery);

    /**
     * Drop a pending event.
     *
     * @return false when the handle is unknown (already fired,
     *         cancelled, never issued, or stale — i.e. its arena
     *         slot was recycled by a newer event).
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to a new tick. The event keeps its
     * handler and class but is re-sequenced as if newly scheduled
     * (it fires after existing same-tick, same-class events).
     *
     * @return false when the handle is unknown or stale.
     */
    bool reschedule(EventId id, Tick when);

    /** Scheduled tick of a pending event (one that has not fired
     *  and was not cancelled). */
    Tick eventTick(EventId id) const;

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event; requires !empty(). */
    Tick nextTick() const;

    /**
     * View of the earliest pending event without popping it:
     * fire tick, ordering class, and the arena slot it occupies
     * (the slot lets callers look up side metadata keyed by slot
     * before extractNext() recycles it). Requires !empty().
     */
    struct HeadView
    {
        Tick when;
        EventClass cls;
        std::uint32_t slot;
    };

    HeadView peekHead() const;

    /**
     * Pop the earliest pending event and hand its handler to the
     * caller *without invoking it* — the sharded scheduler extracts
     * a time window of events and runs them on shard threads under
     * its own clock discipline. The slot is released exactly as
     * runNext() would release it. Requires !empty().
     */
    EventHandler extractNext();

    /**
     * Pop and run exactly the earliest event; requires !empty().
     *
     * @return The tick at which the event fired.
     */
    Tick runNext();

  private:
    /**
     * Heap entry: 16 bytes, so sift swaps move one POD and all
     * comparisons touch only the heap array. `key` packs
     * (EventClass << 62) | (FIFO sequence << 24) | arena slot:
     * class-then-sequence ordering falls out of one u64 compare
     * (the slot bits only break ties that cannot occur — sequences
     * are unique), and the slot rides along for free. 38 sequence
     * bits last ~274 billion schedules; 24 slot bits allow 16.7M
     * concurrently pending events.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t key;
    };

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::uint64_t kSlotMask = 0xffffffull;
    static constexpr std::uint64_t kClsMask = 3ull << 62;

    static std::uint64_t
    sortKey(EventClass cls, std::uint64_t seq, std::uint32_t slot)
    {
        return (static_cast<std::uint64_t>(cls) << 62) |
            (seq << 24) | slot;
    }

    static std::uint32_t
    slotIn(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key & kSlotMask);
    }

    /**
     * An entry's position in the total event order as one scalar,
     * (when << 64) | key: sift loops compare ranks with a single
     * branch-free unsigned compare (`when` is never negative), so
     * the data-dependent child pick in siftDown becomes a cmov
     * instead of a ~50% mispredicted branch.
     */
    using OrderKey = unsigned __int128;

    static OrderKey
    orderKey(const HeapEntry &e)
    {
        return (static_cast<OrderKey>(
                    static_cast<std::uint64_t>(e.when))
                << 64) |
            e.key;
    }

    /** Decode + validate a handle; kNoSlot when unknown/stale. */
    std::uint32_t
    slotOf(EventId id) const
    {
        const std::uint32_t slot =
            static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
        if (slot >= gen_.size() ||
            gen_[slot] != static_cast<std::uint32_t>(id >> 32) ||
            pos_[slot] == kNoSlot) {
            return kNoSlot;
        }
        return slot;
    }

    /** Acquire an arena slot holding `handler`. */
    std::uint32_t acquireSlot(EventHandler &&handler);

    /** Return a slot to the free list, bumping its generation. */
    void releaseSlot(std::uint32_t slot);

    /** Remove the heap entry at heap index `at`. */
    void removeAt(std::size_t at);

    // Sift the entry at `at` toward its heap position; both update
    // pos_ for every move.
    void siftUp(std::size_t at);
    void siftDown(std::size_t at);

    std::vector<HeapEntry> heap_;
    /** Per-slot heap index while pending; kNoSlot while free. */
    std::vector<std::uint32_t> pos_;
    /** Per-slot generation, bumped on every release. */
    std::vector<std::uint32_t> gen_;
    /** Per-slot callback storage (inline up to 48 bytes). */
    std::vector<EventHandler> handlers_;
    /** Free-list links threaded through freed slots. */
    std::vector<std::uint32_t> freeNext_;
    std::uint32_t freeHead_ = kNoSlot;
    std::uint64_t nextSeq_ = 0;
};

} // namespace sim
} // namespace lightllm

#endif // LIGHTLLM_SIM_EVENT_QUEUE_HH
