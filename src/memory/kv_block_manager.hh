/**
 * @file
 * Paged KV-cache block manager (PagedAttention-style) with
 * copy-on-write block sharing.
 *
 * KV memory is carved into fixed-size blocks of token slots. Each
 * request owns a block table mapping its logical token positions to
 * physical blocks; blocks are handed out from a free list and
 * returned when their last reference drops. This reproduces
 * vLLM-style block accounting: a request's last block may be
 * partially filled, so the manager distinguishes token-level
 * occupancy (what the paper's equations reason about) from
 * block-level occupancy (what actually limits allocation).
 *
 * Sharing model (DESIGN.md §4): every physical block is
 * reference-counted. A request may be admitted with a *shared
 * prefix* — a run of full blocks already holding the identical
 * tokens (same system prompt, same conversation history), provided
 * by the prefix cache. Shared blocks are never written again by
 * sharers (a request only appends past its prefix, so divergence
 * allocates fresh blocks — classic copy-on-write with the write
 * window always past the shared region). release() decrements
 * instead of freeing: a block returns to the free list only when no
 * request and no cache entry holds it.
 *
 * Growth accounting: extend() first fills the slack in the
 * allocation's last block (slack = blocks * blockSize - numTokens)
 * and only then takes new blocks from the free list, so a request
 * growing one token per decode step allocates one block every
 * blockSize steps. Shared prefix blocks are always full, hence the
 * last block of any allocation is private and slack arithmetic is
 * unaffected by sharing.
 *
 * Lazy arena: block state materialises on first hand-out. Block ids
 * [0, handedOut()) have a BlockState; the free list holds only
 * released ones, and when it runs dry the next block is the lowest
 * id never handed out (the watermark). That is exactly the block the
 * eager stack [N-1 ... 0] (released blocks pushed on top) would pop,
 * so block ids, and with them the prefix cache's reclaim order, are
 * those of a pool built up front, while a pool costs memory in
 * proportion to the blocks it ever held at once. A hand-out past the
 * watermark grows the state table, so no BlockState reference may be
 * held across takeFreeBlock().
 */

#ifndef LIGHTLLM_MEMORY_KV_BLOCK_MANAGER_HH
#define LIGHTLLM_MEMORY_KV_BLOCK_MANAGER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace lightllm {
namespace memory {

class PrefixCache;

/** Physical block index within the KV pool. */
using BlockId = std::int32_t;

/** Allocates KV-cache token slots in fixed-size, refcounted blocks. */
class KvBlockManager
{
  public:
    /**
     * @param capacity_tokens Total token slots in the pool (rounded
     *        down to a whole number of blocks).
     * @param block_size_tokens Token slots per block (>= 1).
     */
    KvBlockManager(TokenCount capacity_tokens,
                   TokenCount block_size_tokens = 16);

    /** Token capacity after rounding to whole blocks. */
    TokenCount capacityTokens() const { return capacityTokens_; }

    TokenCount blockSize() const { return blockSize_; }

    /**
     * Attach a prefix cache: blocks the cache retains survive
     * release() as reclaimable entries, and allocation reclaims
     * least-recently-used unreferenced cached blocks when the free
     * list alone cannot cover a request. The manager tells the
     * cache when a cached block loses its last request reference
     * (parked) or gains its first (pinned), so the cache indexes
     * exactly the reclaimable blocks. A cache detaches itself when
     * it is destroyed (detachPrefixCache).
     */
    void attachPrefixCache(PrefixCache *cache) { cache_ = cache; }

    /**
     * Allocate `num_tokens` slots for the request in `slot`.
     *
     * Allocations are keyed by the engine's generation-tagged
     * request slot and live in a vector indexed by its slot index
     * (dense: the engine's slab positions), so no lookup on the
     * step path hashes. A stale handle (another
     * generation of a slot index) names nothing: lookups through it
     * find no allocation, release() ignores it, and allocating
     * through it fails while the index is held.
     *
     * @return false (and allocate nothing) when `num_tokens` is not
     *         positive, the free list (plus reclaimable cached
     *         blocks) cannot cover the required blocks, or the
     *         slot index already holds an allocation.
     */
    bool allocate(RequestSlot slot, TokenCount num_tokens);

    /**
     * Allocate with a shared prefix: each block of `shared_prefix`
     * (full cached blocks, in stream order) gains a reference, and
     * only the remaining `num_tokens - shared * blockSize()` slots
     * are taken from the free list. Requires num_tokens to exceed
     * the shared span so the allocation always ends in a private
     * block.
     *
     * @return false (and change nothing) when the private suffix
     *         cannot be covered or the slot index already holds an
     *         allocation.
     */
    bool allocateShared(RequestSlot slot, TokenCount num_tokens,
                        std::span<const BlockId> shared_prefix);

    /**
     * Grow an existing request's allocation by `num_tokens` slots
     * (> 0). Fills the slack in the request's last (always private)
     * block before taking new blocks: growing by g tokens takes
     * exactly max(0, ceil((g - slack) / blockSize)) blocks.
     *
     * @return false (and change nothing) when insufficient blocks
     *         remain.
     */
    bool extend(RequestSlot slot, TokenCount num_tokens);

    /**
     * Drop the request's references. Blocks whose last reference
     * this was return to the free list; blocks shared with other
     * requests or retained by the prefix cache live on. A stale or
     * unknown slot is a no-op.
     */
    void release(RequestSlot slot);

    // --- The decode batch ---------------------------------------------
    //
    // A continuous-batching step grows every decoding request by one
    // token. The manager keeps the step's block demand (how many
    // joined allocations have a full last block) up to date as
    // allocations join, grow and leave, so the feasibility test is
    // O(1) and the growth itself rides the engine's one walk over
    // its batch.

    /** The allocation in `slot` joins the decode batch. */
    void joinBatch(RequestSlot slot);

    /**
     * True when every joined allocation can grow by one token now,
     * counting the slack in last blocks (exact for the per-step
     * growth of continuous batching), in O(1).
     */
    bool
    batchCanGrow() const
    {
        return batchNeed_ <=
            freeBlocks() + (cache_ != nullptr ? cacheOnly_ : 0);
    }

    /**
     * Grow a joined allocation by one token. Growing every joined
     * allocation once, after batchCanGrow() held, never fails and
     * evolves state exactly as extend(slot, 1) on each, in order.
     */
    void growByOne(RequestSlot slot);

    /**
     * Grow a joined allocation by `tokens` slots that fit in its
     * last block: what `tokens` growByOne calls taking no block do,
     * at once (a decode run's deferred growth, DESIGN.md §8).
     */
    void growInSlack(RequestSlot slot, TokenCount tokens);

    /**
     * Token slots currently pinned by requests. Physically shared
     * blocks count once no matter how many requests reference them;
     * blocks held only by the prefix cache are reclaimable and do
     * not count. Without sharing this equals the sum of per-request
     * logical tokens, the accounting the cache-off golden suites
     * (test_scheduling_golden) pin.
     */
    TokenCount usedTokens() const { return usedTokens_; }

    /** Free blocks: released ones plus those never handed out. */
    std::int64_t freeBlocks() const
    {
        return static_cast<std::int64_t>(freeList_.size()) +
            (numBlocks_ - handedOut());
    }

    /** Cached blocks no request references (parked) — reclaimable
     *  on demand, least recently used first, by the attached prefix
     *  cache. */
    std::int64_t reclaimableBlocks() const { return cacheOnly_; }

    /** Logical tokens allocated to one request (shared prefix
     *  included); 0 if absent or stale. */
    TokenCount requestTokens(RequestSlot slot) const;

    /** Tokens of one request covered by shared prefix blocks. */
    TokenCount requestSharedTokens(RequestSlot slot) const;

    /** Block table of one request (for attention-kernel mapping). */
    const std::vector<BlockId> &blockTable(RequestSlot slot) const;

    /** Number of live requests. */
    std::size_t numRequests() const { return liveAllocations_; }

    // --- Reference bookkeeping (tests) -------------------------------

    /** Requests referencing `block` (cache retention excluded);
     *  `block` must have been handed out. */
    std::int32_t requestRefs(BlockId block) const;

  private:
    friend class PrefixCache;

    /** BlockState::cacheMark of a block the cache does not hold. */
    static constexpr std::uint32_t kNotCached = 0xffffffffu;

    struct Allocation
    {
        /** The handle holding this slot index; kInvalidSlot while
         *  the entry is free. */
        RequestSlot owner = kInvalidSlot;

        /** Joined the decode batch (counted in batchNeed_). */
        bool growing = false;

        /** blocks.back(), kept here so a one-token growth reads no
         *  block-table memory. */
        BlockId last = -1;

        TokenCount numTokens = 0;

        /** Tokens covered by the shared full-block prefix. */
        TokenCount sharedTokens = 0;

        /** [shared prefix blocks ..., private blocks ...]; the
         *  vector keeps its capacity across the slot's requests, so
         *  a warmed pool allocates nothing. */
        std::vector<BlockId> blocks;
    };

    /** Per-physical-block reference state. */
    struct BlockState
    {
        /** Requests whose tables contain the block. */
        std::int32_t requestRefs = 0;

        /** Tokens this block contributes to usedTokens_ while
         *  request-referenced (blockSize for full blocks, the
         *  actual fill for a private last block; never more than
         *  blockSize, hence 32 bits). */
        std::int32_t heldTokens = 0;

        /** kNotCached when the prefix cache does not retain the
         *  block; otherwise the cache's park mark for it (pinned, or
         *  where in its parked set the block waits). */
        std::uint32_t cacheMark = kNotCached;
    };

  public:
    /** Bytes of per-block state (tests pin that the prefix cache's
     *  park mark did not grow it). */
    static constexpr std::size_t kBlockStateBytes = sizeof(BlockState);

  private:
    /** The prefix cache retains `block` (must be live, not yet
     *  cached) with park mark `mark`: the block will survive request
     *  release as reclaimable. */
    void retainCached(BlockId block, std::uint32_t mark);

    /** The prefix cache stops retaining `block`; if no request
     *  references it, it returns to the free list. */
    void dropCached(BlockId block);

    /** release() with a cache attached: drop one request reference
     *  from each of `alloc`'s blocks, folding in its deferred refresh
     *  (PrefixCache::takeDeferral) before it. */
    void releaseCached(const Allocation &alloc);

    /** The attached prefix cache is going away: every block it
     *  retains is dropped (freed when no request holds it), and the
     *  manager runs without a cache from here. */
    void detachPrefixCache();

    /** Positions a walk over a block table (release, a shared
     *  allocation, the prefix cache's insert) loads ahead, the block
     *  state and the cache's record at once, so the misses overlap
     *  instead of queueing. */
    static constexpr std::size_t kWalkAhead = 16;

    /** Start loading `block`'s state. */
    void
    prefetchState(BlockId block) const
    {
        __builtin_prefetch(&states_[static_cast<std::size_t>(block)]);
    }

    /** Start loading what the walk over `blocks` at position `at`
     *  reads later (defined in memory/prefix_cache.hh). */
    void prefetchWalk(std::span<const BlockId> blocks,
                      std::size_t at) const;

    /** The park mark of `block` (BlockState::cacheMark). */
    std::uint32_t &
    cacheMark(BlockId block)
    {
        return states_[static_cast<std::size_t>(block)].cacheMark;
    }

    /** Blocks needed to extend an allocation by `extra` tokens. */
    std::int64_t blocksForExtension(const Allocation &alloc,
                                    TokenCount extra) const;

    /** The allocation `slot` names; null when absent or stale. */
    Allocation *
    find(RequestSlot slot)
    {
        const std::uint32_t index = slotIndex(slot);
        if (index >= allocs_.size() || allocs_[index].owner != slot)
            return nullptr;
        return &allocs_[index];
    }

    const Allocation *
    find(RequestSlot slot) const
    {
        return const_cast<KvBlockManager *>(this)->find(slot);
    }

    /** growByOne when the last block is full: takes a fresh block
     *  (reclaiming if need be). */
    void growIntoNewBlock(Allocation &alloc);

    /** extend() after the table lookup (shared with the fused
     *  batch path). */
    bool extendAlloc(Allocation &alloc, TokenCount num_tokens);

    /** Grow the free list to `need` blocks, reclaiming LRU cached
     *  blocks if required. False when impossible. */
    bool ensureFreeBlocks(std::int64_t need);

    /** Blocks that have a BlockState: every id below is or was in
     *  use. */
    std::int64_t
    handedOut() const
    {
        return static_cast<std::int64_t>(states_.size());
    }

    /** Take a free block for a new reference holding `tokens` slots:
     *  the last released one, else the watermark block (growing
     *  states_, which invalidates BlockState references). */
    BlockId takeFreeBlock(TokenCount tokens);

    /** Add a request reference to an existing (shared) block; a
     *  parked block is pinned again. */
    void addRequestRef(BlockId block);

    /** Drop one request reference; frees or parks the block. */
    void dropRequestRef(BlockId block);

    TokenCount blockSize_;
    TokenCount capacityTokens_;
    std::int64_t numBlocks_;

    /** Released blocks only; never-used ids lie at the watermark. */
    std::vector<BlockId> freeList_;

    /** State of blocks [0, handedOut()), grown on first hand-out. */
    std::vector<BlockState> states_;

    /** Allocations by slot index. */
    std::vector<Allocation> allocs_;
    std::size_t liveAllocations_ = 0;
    TokenCount usedTokens_ = 0;

    /** Blocks the decode batch needs for its next token: joined
     *  allocations whose last block is full. */
    std::int64_t batchNeed_ = 0;

    /** Count of cached blocks with zero request references. */
    std::int64_t cacheOnly_ = 0;

    PrefixCache *cache_ = nullptr;
};

inline void
KvBlockManager::growByOne(RequestSlot slot)
{
    Allocation *alloc = find(slot);
    LIGHTLLM_ASSERT(alloc != nullptr && alloc->growing,
                    "slot ", slot, " is not in the decode batch");
    const TokenCount held =
        static_cast<TokenCount>(alloc->blocks.size()) * blockSize_;
    if (alloc->numTokens == held) {
        growIntoNewBlock(*alloc);
        return;
    }
    // Slack fill: the last block is always private (allocations end
    // past their shared prefix by construction), as extend() checks.
    BlockState &last = states_[static_cast<std::size_t>(alloc->last)];
    LIGHTLLM_ASSERT(last.requestRefs == 1,
                    "slack fill into a shared block");
    ++last.heldTokens;
    ++usedTokens_;
    if (++alloc->numTokens == held)
        ++batchNeed_;  // full again: the next step takes a block
}

inline void
KvBlockManager::growInSlack(RequestSlot slot, TokenCount tokens)
{
    Allocation *alloc = find(slot);
    LIGHTLLM_ASSERT(alloc != nullptr && alloc->growing,
                    "slot ", slot, " is not in the decode batch");
    const TokenCount held =
        static_cast<TokenCount>(alloc->blocks.size()) * blockSize_;
    LIGHTLLM_ASSERT(tokens >= 0 && alloc->numTokens + tokens <= held,
                    "growth of ", tokens, " overflows the last block");
    if (tokens == 0)
        return;
    BlockState &last = states_[static_cast<std::size_t>(alloc->last)];
    LIGHTLLM_ASSERT(last.requestRefs == 1,
                    "slack fill into a shared block");
    last.heldTokens += static_cast<std::int32_t>(tokens);
    usedTokens_ += tokens;
    alloc->numTokens += tokens;
    if (alloc->numTokens == held)
        ++batchNeed_;  // full: the next step takes a block
}

} // namespace memory
} // namespace lightllm

#endif // LIGHTLLM_MEMORY_KV_BLOCK_MANAGER_HH
