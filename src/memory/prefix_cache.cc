#include "memory/prefix_cache.hh"

#include "base/logging.hh"

namespace lightllm {
namespace memory {

PrefixCache::PrefixCache(KvBlockManager &kv)
    : kv_(kv), index_(kInitialSlots)
{
}

PrefixCache::~PrefixCache()
{
    // Orderly teardown keeps the manager's invariants intact even
    // when the cache dies first (engine member destruction order).
    index_.forEach([this](PrefixHash, EntryIndex entry) {
        kv_.dropCached(entries_[entry].block);
    });
}

std::size_t
PrefixCache::match(std::span<const PrefixHash> hashes,
                   std::vector<BlockId> &blocks_out)
{
    std::size_t matched = 0;
    for (const PrefixHash hash : hashes) {
        prefetchHome(hashes, matched + kPrefetchAhead);
        const EntryIndex entry = lookup(hash);
        if (entry == kEmptySlot)
            break;
        touch(entry);
        blocks_out.push_back(entries_[entry].block);
        ++matched;
    }
    return matched;
}

std::size_t
PrefixCache::peek(std::span<const PrefixHash> hashes) const
{
    std::size_t matched = 0;
    for (const PrefixHash hash : hashes) {
        prefetchHome(hashes, matched + kPrefetchAhead);
        if (lookup(hash) == kEmptySlot)
            break;
        ++matched;
    }
    return matched;
}

void
PrefixCache::insert(std::span<const PrefixHash> hashes,
                    std::span<const BlockId> blocks)
{
    LIGHTLLM_ASSERT(hashes.size() == blocks.size(),
                    "hash/block span mismatch");
    for (std::size_t i = 0; i < hashes.size(); ++i) {
        if (i + kPrefetchAhead < blocks.size())
            kv_.prefetchState(blocks[i + kPrefetchAhead]);
        // The block itself already cached under this hash (matched
        // at admission, or published at prefill): its entry link is
        // the index's answer, so refresh it without a probe.
        const EntryIndex linked = kv_.cacheEntry(blocks[i]);
        if (linked != KvBlockManager::kNotCached &&
            entries_[linked].hash == hashes[i]) {
            touch(linked);
            continue;
        }
        const EntryIndex incumbent = lookup(hashes[i]);
        if (incumbent != kEmptySlot) {
            // Same content already cached under a different
            // physical block prefilled concurrently; keep the
            // incumbent, refresh its recency.
            touch(incumbent);
            continue;
        }
        EntryIndex entry;
        if (freeEntries_.empty()) {
            entry = static_cast<EntryIndex>(entries_.size());
            LIGHTLLM_ASSERT(entry != KvBlockManager::kNotCached,
                            "entry slab overflow");
            entries_.emplace_back();
        } else {
            entry = freeEntries_.back();
            freeEntries_.pop_back();
        }
        // A live request holds the block, so it starts pinned.
        entries_[entry] =
            Entry{hashes[i], ++clock_, blocks[i], kPinned};
        kv_.retainCached(blocks[i], entry);
        index_.insert(hashes[i], entry);
    }
}

std::int64_t
PrefixCache::reclaim(std::int64_t count)
{
    std::int64_t reclaimed = 0;
    while (reclaimed < count && !parked_.empty()) {
        const EntryIndex entry = parked_.front().entry;
        const std::uint64_t stamp = entries_[entry].stamp;
        if (parked_.front().stamp != stamp) {
            // Touched since keyed. Every key is at most its entry's
            // stamp, so a current root is the true LRU block.
            parked_.front().stamp = stamp;
            siftDown(0);
            continue;
        }
        pin(entry);  // leave the heap
        const bool indexed = index_.erase(entries_[entry].hash);
        LIGHTLLM_ASSERT(indexed, "erasing an unindexed hash");
        freeEntries_.push_back(entry);
        kv_.dropCached(entries_[entry].block);
        ++reclaimed;
    }
    return reclaimed;
}

void
PrefixCache::park(EntryIndex entry)
{
    LIGHTLLM_ASSERT(entries_[entry].heapSlot == kPinned,
                    "parking a parked cache entry");
    parked_.push_back(Parked{entries_[entry].stamp, entry});
    siftUp(parked_.size() - 1);
}

void
PrefixCache::pin(EntryIndex entry)
{
    const std::size_t slot = entries_[entry].heapSlot;
    LIGHTLLM_ASSERT(slot != kPinned, "pinning a pinned cache entry");
    entries_[entry].heapSlot = kPinned;
    const Parked last = parked_.back();
    parked_.pop_back();
    if (slot == parked_.size())
        return;  // it was the last node
    placeAt(slot, last);
    if (slot > 0 && parked_[(slot - 1) / 2].stamp > last.stamp)
        siftUp(slot);
    else
        siftDown(slot);
}

void
PrefixCache::placeAt(std::size_t slot, Parked node)
{
    parked_[slot] = node;
    entries_[node.entry].heapSlot = static_cast<std::uint32_t>(slot);
}

void
PrefixCache::siftUp(std::size_t slot)
{
    const Parked node = parked_[slot];
    while (slot > 0) {
        const std::size_t parent = (slot - 1) / 2;
        if (parked_[parent].stamp <= node.stamp)
            break;
        placeAt(slot, parked_[parent]);
        slot = parent;
    }
    placeAt(slot, node);
}

void
PrefixCache::siftDown(std::size_t slot)
{
    const Parked node = parked_[slot];
    const std::size_t size = parked_.size();
    for (;;) {
        std::size_t child = 2 * slot + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            parked_[child + 1].stamp < parked_[child].stamp)
            ++child;
        if (node.stamp <= parked_[child].stamp)
            break;
        placeAt(slot, parked_[child]);
        slot = child;
    }
    placeAt(slot, node);
}

} // namespace memory
} // namespace lightllm
