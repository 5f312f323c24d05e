#include "memory/prefix_cache.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {
namespace memory {

PrefixCache::PrefixCache(KvBlockManager &kv)
    : kv_(kv), index_(kInitialSlots)
{
    // Live nodes never outnumber the pool's blocks, so sliding them
    // to the front frees at least half of twice that.
    const std::int64_t blocks = kv.capacityTokens() / kv.blockSize();
    LIGHTLLM_ASSERT(2 * blocks < kStale,
                    "block pool too large for the parked FIFO");
    fifoCapacity_ = static_cast<std::uint32_t>(2 * blocks);
    fifo_.reset(new BlockId[fifoCapacity_]);
    records_.reset(new Record[static_cast<std::size_t>(blocks)]);
}

PrefixCache::~PrefixCache()
{
    kv_.detachPrefixCache();
}

void
PrefixCache::collect(std::span<const PrefixHash> hashes)
{
    matched_.clear();
    for (const PrefixHash hash : hashes) {
        prefetchHome(hashes, matched_.size() + kPrefetchAhead);
        const BlockId block = lookup(hash);
        if (block == kNone)
            break;
        matched_.push_back(block);
    }
}

std::size_t
PrefixCache::match(std::span<const PrefixHash> hashes,
                   std::vector<BlockId> &blocks_out)
{
    collect(hashes);
    for (const BlockId block : matched_) {
        touch(block, ++clock_);
        blocks_out.push_back(block);
    }
    return matched_.size();
}

std::size_t
PrefixCache::peek(std::span<const PrefixHash> hashes) const
{
    std::size_t matched = 0;
    for (const PrefixHash hash : hashes) {
        prefetchHome(hashes, matched + kPrefetchAhead);
        if (lookup(hash) == kNone)
            break;
        ++matched;
    }
    return matched;
}

std::int64_t
PrefixCache::allocateMatched(RequestSlot slot, TokenCount tokens,
                             std::span<const PrefixHash> hashes)
{
    collect(hashes);
    // The stamps match() would give, held back for the release.
    const std::uint64_t base = clock_;
    clock_ += matched_.size();
    if (!kv_.allocateShared(slot, tokens, matched_)) {
        // Nothing holds the blocks: their touch lands now.
        for (std::size_t i = 0; i < matched_.size(); ++i)
            touch(matched_[i], base + i + 1);
        return -1;
    }
    deferral(slot) = Deferral{base, matched_.size()};
    return static_cast<std::int64_t>(matched_.size());
}

void
PrefixCache::insert(std::span<const PrefixHash> hashes,
                    std::span<const BlockId> blocks)
{
    LIGHTLLM_ASSERT(hashes.size() == blocks.size(),
                    "hash/block span mismatch");
    const std::uint64_t base = clock_;
    clock_ += hashes.size();
    insertFrom(hashes, blocks, 0, base);
}

void
PrefixCache::insertHeld(RequestSlot slot,
                        std::span<const PrefixHash> hashes)
{
    const std::span<const BlockId> blocks =
        std::span<const BlockId>(kv_.blockTable(slot))
            .first(hashes.size());
    Deferral &held = deferral(slot);
    LIGHTLLM_ASSERT(held.count <= hashes.size(),
                    "linked run past the inserted chain");
    const std::uint64_t base = clock_;
    clock_ += hashes.size();
    // The new deferral covers the old one (its stamps are newer) and
    // the run this walk links; deferring a stamp the walk just gave
    // changes nothing.
    held = Deferral{base, insertFrom(hashes, blocks, held.count, base)};
}

std::size_t
PrefixCache::insertFrom(std::span<const PrefixHash> hashes,
                        std::span<const BlockId> blocks,
                        std::size_t from, std::uint64_t base)
{
    std::size_t run = from;
    for (std::size_t i = from; i < hashes.size(); ++i) {
        kv_.prefetchWalk(blocks, i);
        prefetchHome(hashes, i + kPrefetchAhead);
        const BlockId block = blocks[i];
        const std::uint64_t stamp = base + i + 1;
        // The block itself already cached under this hash (matched
        // at admission, or published at prefill): refresh it
        // without a probe.
        if (kv_.cacheMark(block) != KvBlockManager::kNotCached &&
            records_[static_cast<std::size_t>(block)].hash ==
                hashes[i]) {
            touch(block, stamp);
            run += run == i;
            continue;
        }
        // One probe: a miss stores the block in place.
        const auto [present, fresh] =
            index_.insertOrFind(hashes[i], block);
        if (!fresh) {
            // Same content already cached under a different
            // physical block prefilled concurrently; keep the
            // incumbent, refresh its recency.
            touch(*present, stamp);
            continue;
        }
        // A live request holds the block, so it starts pinned.
        kv_.retainCached(block, kPinned);
        records_[static_cast<std::size_t>(block)] =
            Record{hashes[i], stamp};
        run += run == i;
    }
    return run;
}

std::int64_t
PrefixCache::reclaim(std::int64_t count)
{
    std::int64_t reclaimed = 0;
    while (reclaimed < count) {
        const BlockId block = unparkOldest();
        if (block == kNone)
            break;
        const bool indexed = index_.erase(
            records_[static_cast<std::size_t>(block)].hash);
        LIGHTLLM_ASSERT(indexed, "erasing an unindexed hash");
        kv_.dropCached(block);
        ++reclaimed;
    }
    prefetchFifo();
    return reclaimed;
}

void
PrefixCache::prefetchFifo() const
{
    // Reclaims come a block or two at a time, front by front: start
    // loading what the next ones read. An index slot needs the
    // block's hash, so only the two oldest live nodes, whose records
    // an earlier call loaded, have theirs loaded too.
    std::size_t live = 0;
    const std::uint32_t end = std::min<std::uint32_t>(
        fifoTail_, fifoHead_ + 4 * kPrefetchAhead);
    for (std::uint32_t at = fifoHead_; at < end && live < kPrefetchAhead;
         ++at) {
        const BlockId block = fifo_[at];
        if (block == kNone)
            continue;
        if (live++ < 2)
            index_.prefetch(records_[static_cast<std::size_t>(block)].hash);
        prefetchRecord(block);
        kv_.prefetchState(block);
    }
}

BlockId
PrefixCache::unparkOldest()
{
    // The FIFO front: step over tombstones, re-file a touched block
    // under its current stamp.
    while (fifoHead_ != fifoTail_) {
        const BlockId block = fifo_[fifoHead_];
        if (block != kNone && !(kv_.cacheMark(block) & kStale))
            break;
        ++fifoHead_;
        if (block != kNone) {
            kv_.cacheMark(block) = kPinned;
            park(block);
        }
    }
    // The heap root: re-key a touched one. Every key is at most its
    // block's stamp, so a current root is the heap's oldest.
    while (!heap_.empty()) {
        const std::uint64_t stamp =
            records_[static_cast<std::size_t>(heap_.front().block)]
                .stamp;
        if (heap_.front().stamp == stamp)
            break;
        heap_.front().stamp = stamp;
        siftDown(0);
    }
    const bool fifo = fifoHead_ != fifoTail_;
    if (!fifo && heap_.empty())
        return kNone;
    if (fifo &&
        (heap_.empty() ||
         records_[static_cast<std::size_t>(fifo_[fifoHead_])].stamp <
             heap_.front().stamp)) {
        const BlockId block = fifo_[fifoHead_++];
        kv_.cacheMark(block) = kPinned;
        return block;
    }
    const BlockId block = heap_.front().block;
    pin(block);
    return block;
}

void
PrefixCache::compactFifo()
{
    std::uint32_t out = 0;
    for (std::uint32_t at = fifoHead_; at < fifoTail_; ++at) {
        const BlockId block = fifo_[at];
        if (block == kNone)
            continue;
        std::uint32_t &mark = kv_.cacheMark(block);
        mark = out | (mark & kStale);
        fifo_[out++] = block;
    }
    LIGHTLLM_ASSERT(out < fifoCapacity_, "parked FIFO overflow");
    fifoHead_ = 0;
    fifoTail_ = out;
}

void
PrefixCache::heapPush(Parked node)
{
    heap_.push_back(node);
    siftUp(heap_.size() - 1);
}

void
PrefixCache::heapRemove(std::size_t slot)
{
    const Parked last = heap_.back();
    heap_.pop_back();
    if (slot == heap_.size())
        return;  // it was the last node
    placeAt(slot, last);
    if (slot > 0 && heap_[(slot - 1) / 2].stamp > last.stamp)
        siftUp(slot);
    else
        siftDown(slot);
}

void
PrefixCache::placeAt(std::size_t slot, Parked node)
{
    heap_[slot] = node;
    kv_.cacheMark(node.block) =
        kInHeap | static_cast<std::uint32_t>(slot);
}

void
PrefixCache::siftUp(std::size_t slot)
{
    const Parked node = heap_[slot];
    while (slot > 0) {
        const std::size_t parent = (slot - 1) / 2;
        if (heap_[parent].stamp <= node.stamp)
            break;
        placeAt(slot, heap_[parent]);
        slot = parent;
    }
    placeAt(slot, node);
}

void
PrefixCache::siftDown(std::size_t slot)
{
    const Parked node = heap_[slot];
    const std::size_t size = heap_.size();
    for (;;) {
        std::size_t child = 2 * slot + 1;
        if (child >= size)
            break;
        if (child + 1 < size &&
            heap_[child + 1].stamp < heap_[child].stamp)
            ++child;
        if (node.stamp <= heap_[child].stamp)
            break;
        placeAt(slot, heap_[child]);
        slot = child;
    }
    placeAt(slot, node);
}

} // namespace memory
} // namespace lightllm
