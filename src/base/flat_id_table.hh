/**
 * @file
 * Flat open-addressing table keyed by a 64-bit integer.
 *
 * One contiguous power-of-two array of slots, each holding its key
 * and value inline: linear probing from a Fibonacci-hashed home slot
 * (the top bits of key * 2^64/phi, so consecutive integer keys —
 * request ids, submission tokens — spread as well as hashes do),
 * backward-shift erase (no tombstones, so a warmed table never
 * allocates) and doubling at half load (an empty slot always ends a
 * probe run). A lookup reads one short contiguous run instead of
 * chasing a node per bucket, and an insert or erase allocates
 * nothing once the table has grown to its working size.
 *
 * Pointers returned by find() are invalidated by the next insert
 * (it may grow the table) or erase (it may shift a run back).
 * forEach visits slots in array order, which depends on the keys
 * and on the growth history, never on the host's hash seeds.
 */

#ifndef LIGHTLLM_BASE_FLAT_ID_TABLE_HH
#define LIGHTLLM_BASE_FLAT_ID_TABLE_HH

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace lightllm {

/** Open-addressing map from a 64-bit integer key to `Value`. */
template <typename Value>
class FlatIdTable
{
  public:
    using Key = std::uint64_t;

    /** @param slots Initial slot count (a power of two >= 2). */
    explicit FlatIdTable(std::size_t slots = 16) : slots_(slots)
    {
        LIGHTLLM_ASSERT(slots >= 2 && std::has_single_bit(slots),
                        "table slots must be a power of two, got ",
                        slots);
    }

    /** Home slot of `key` in a table of `slots` slots (a power of
     *  two): the top bits of a Fibonacci multiply. */
    static std::size_t
    home(Key key, std::size_t slots)
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >>
            (64 - std::countr_zero(slots)));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slot count: a power of two, at least twice size(). */
    std::size_t slots() const { return slots_.size(); }

    /** The value stored under `key`; null when absent. */
    Value *
    find(Key key)
    {
        Slot &slot = slots_[probe(key)];
        return slot.used ? &slot.value : nullptr;
    }

    const Value *
    find(Key key) const
    {
        const Slot &slot = slots_[probe(key)];
        return slot.used ? &slot.value : nullptr;
    }

    /** Start loading the home slot of `key`. */
    void
    prefetch(Key key) const
    {
        __builtin_prefetch(&slots_[home(key, slots_.size())]);
    }

    /** Store `value` under `key` unless the key is present, in one
     *  probe. @return The value stored under `key` (valid until the
     *  next insert or erase) and whether it was just stored. */
    std::pair<Value *, bool>
    insertOrFind(Key key, Value value)
    {
        std::size_t at = probe(key);
        if (slots_[at].used)
            return {&slots_[at].value, false};
        if (2 * (size_ + 1) > slots()) {
            grow();
            at = probe(key);
        }
        slots_[at] = Slot{key, std::move(value), true};
        ++size_;
        return {&slots_[at].value, true};
    }

    /** Store `value` under `key` unless the key is present.
     *  @return Whether it was stored. */
    bool
    tryInsert(Key key, Value value)
    {
        return insertOrFind(key, std::move(value)).second;
    }

    /** Store `value` under `key`, which must be absent. */
    void
    insert(Key key, Value value)
    {
        const bool inserted = tryInsert(key, std::move(value));
        LIGHTLLM_ASSERT(inserted, "key ", key, " inserted twice");
    }

    /** Store `value` under `key`, replacing any present value. */
    void
    insertOrAssign(Key key, Value value)
    {
        if (Value *present = find(key))
            *present = std::move(value);
        else
            tryInsert(key, std::move(value));
    }

    /**
     * Remove `key`, shifting the rest of its probe run back so every
     * remaining key stays reachable from its home.
     * @return Whether the key was present.
     */
    bool
    erase(Key key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = probe(key);
        if (!slots_[hole].used)
            return false;
        // Backward shift: walk the rest of the run and move back
        // every slot whose home does not lie cyclically in
        // (hole, next].
        for (std::size_t next = (hole + 1) & mask; slots_[next].used;
             next = (next + 1) & mask) {
            const std::size_t want = home(slots_[next].key, slots_.size());
            const bool stays = hole <= next
                ? hole < want && want <= next
                : hole < want || want <= next;
            if (stays)
                continue;
            slots_[hole] = std::move(slots_[next]);
            hole = next;
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

    /** Remove every key (the slot array keeps its size). */
    void
    clear()
    {
        for (Slot &slot : slots_)
            slot = Slot{};
        size_ = 0;
    }

    /** Call visit(key, value) for every stored key, in slot order. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Slot &slot : slots_) {
            if (slot.used)
                visit(slot.key, slot.value);
        }
    }

  private:
    struct Slot
    {
        Key key = 0;
        Value value{};
        bool used = false;
    };

    /** Slot holding `key`, or the empty slot ending its probe run
     *  (the table is never full). */
    std::size_t
    probe(Key key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t slot = home(key, slots_.size());
        while (slots_[slot].used && slots_[slot].key != key)
            slot = (slot + 1) & mask;
        return slot;
    }

    /** Double the slot array, rehashing every stored key. */
    void
    grow()
    {
        std::vector<Slot> previous(2 * slots_.size());
        previous.swap(slots_);
        for (Slot &slot : previous) {
            if (slot.used)
                slots_[probe(slot.key)] = std::move(slot);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace lightllm

#endif // LIGHTLLM_BASE_FLAT_ID_TABLE_HH
