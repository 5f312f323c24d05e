#include "memory/kv_block_manager.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "memory/prefix_cache.hh"

namespace lightllm {
namespace memory {

namespace {

/** Ceiling division for non-negative token counts. */
std::int64_t
ceilDiv(TokenCount value, TokenCount divisor)
{
    return (value + divisor - 1) / divisor;
}

} // namespace

KvBlockManager::KvBlockManager(TokenCount capacity_tokens,
                               TokenCount block_size_tokens)
    : blockSize_(block_size_tokens)
{
    LIGHTLLM_ASSERT(block_size_tokens >= 1, "block size must be >= 1");
    LIGHTLLM_ASSERT(block_size_tokens <=
                        std::numeric_limits<std::int32_t>::max(),
                    "block size exceeds the 32-bit per-block fill");
    LIGHTLLM_ASSERT(capacity_tokens >= block_size_tokens,
                    "capacity smaller than one block");
    numBlocks_ = capacity_tokens / blockSize_;
    LIGHTLLM_ASSERT(numBlocks_ <= std::numeric_limits<BlockId>::max(),
                    "block count exceeds the 32-bit block id");
    capacityTokens_ = numBlocks_ * blockSize_;
}

bool
KvBlockManager::ensureFreeBlocks(std::int64_t need)
{
    if (need <= freeBlocks())
        return true;
    if (cache_ == nullptr)
        return false;
    if (need > freeBlocks() + cacheOnly_)
        return false;
    cache_->reclaim(need - freeBlocks());
    LIGHTLLM_ASSERT(need <= freeBlocks(),
                    "prefix cache reclaim under-delivered");
    return true;
}

BlockId
KvBlockManager::takeFreeBlock(TokenCount tokens)
{
    BlockId block;
    if (!freeList_.empty()) {
        block = freeList_.back();
        freeList_.pop_back();
    } else {
        // Past the watermark: the lowest id never handed out, which
        // is what the eager [N-1 ... 0] stack would pop here too.
        LIGHTLLM_ASSERT(handedOut() < numBlocks_, "free list exhausted");
        block = static_cast<BlockId>(states_.size());
        states_.emplace_back();
    }
    BlockState &state = states_[static_cast<std::size_t>(block)];
    LIGHTLLM_ASSERT(state.requestRefs == 0 &&
                        state.cacheMark == kNotCached,
                    "free-list block ", block, " still referenced");
    state.requestRefs = 1;
    state.heldTokens = static_cast<std::int32_t>(tokens);
    usedTokens_ += tokens;
    return block;
}

void
KvBlockManager::addRequestRef(BlockId block)
{
    BlockState &state = states_[static_cast<std::size_t>(block)];
    LIGHTLLM_ASSERT(state.requestRefs > 0 ||
                        state.cacheMark != kNotCached,
                    "sharing an unreferenced block ", block);
    if (state.requestRefs == 0) {
        // A reclaimable cache-only block rejoins the working set.
        LIGHTLLM_ASSERT(state.heldTokens == 0,
                        "cache-only block still charged");
        state.heldTokens = static_cast<std::int32_t>(blockSize_);
        usedTokens_ += blockSize_;
        --cacheOnly_;
        cache_->pin(block);
    }
    ++state.requestRefs;
}

void
KvBlockManager::dropRequestRef(BlockId block)
{
    BlockState &state = states_[static_cast<std::size_t>(block)];
    LIGHTLLM_ASSERT(state.requestRefs > 0,
                    "over-release of block ", block);
    --state.requestRefs;
    if (state.requestRefs > 0)
        return;
    usedTokens_ -= state.heldTokens;
    state.heldTokens = 0;
    if (state.cacheMark != kNotCached) {
        ++cacheOnly_;  // parked: reclaimable, not free
        cache_->park(block);
        return;
    }
    freeList_.push_back(block);
}

bool
KvBlockManager::allocate(RequestSlot slot, TokenCount num_tokens)
{
    LIGHTLLM_ASSERT(num_tokens >= 0, "negative allocation");
    return allocateShared(slot, num_tokens, {});
}

bool
KvBlockManager::allocateShared(RequestSlot slot, TokenCount num_tokens,
                               std::span<const BlockId> shared_prefix)
{
    LIGHTLLM_ASSERT(num_tokens >= 0, "negative allocation");
    const TokenCount shared_tokens =
        static_cast<TokenCount>(shared_prefix.size()) * blockSize_;
    // Zero-token (and, with a prefix, fully-shared) allocations are
    // rejected: every allocation must end in a private block it can
    // write its next token into.
    if (num_tokens <= shared_tokens || slot == kInvalidSlot)
        return false;
    const std::uint32_t index = slotIndex(slot);
    if (index < allocs_.size() &&
        allocs_[index].owner != kInvalidSlot) {
        return false;
    }
    const std::int64_t need =
        ceilDiv(num_tokens - shared_tokens, blockSize_);

    // Hold the shared blocks before covering the private suffix:
    // an LRU reclaim triggered below must not steal a matched
    // cache-only block out from under this allocation.
    for (std::size_t i = 0; i < shared_prefix.size(); ++i) {
        prefetchWalk(shared_prefix, i);
        addRequestRef(shared_prefix[i]);
    }
    if (!ensureFreeBlocks(need)) {
        for (const BlockId block : shared_prefix)
            dropRequestRef(block);
        return false;
    }

    if (index >= allocs_.size())
        allocs_.resize(static_cast<std::size_t>(index) + 1);
    Allocation &alloc = allocs_[index];
    alloc.owner = slot;
    alloc.growing = false;
    ++liveAllocations_;
    alloc.numTokens = num_tokens;
    alloc.sharedTokens = shared_tokens;
    alloc.blocks.reserve(shared_prefix.size() +
                         static_cast<std::size_t>(need));
    alloc.blocks.assign(shared_prefix.begin(), shared_prefix.end());
    TokenCount remaining = num_tokens - shared_tokens;
    for (std::int64_t i = 0; i < need; ++i) {
        const TokenCount fill = std::min(remaining, blockSize_);
        alloc.blocks.push_back(takeFreeBlock(fill));
        remaining -= fill;
    }
    alloc.last = alloc.blocks.back();
    return true;
}

std::int64_t
KvBlockManager::blocksForExtension(const Allocation &alloc,
                                   TokenCount extra) const
{
    const TokenCount slack =
        static_cast<TokenCount>(alloc.blocks.size()) * blockSize_ -
        alloc.numTokens;
    if (extra <= slack)
        return 0;
    return ceilDiv(extra - slack, blockSize_);
}

bool
KvBlockManager::extend(RequestSlot slot, TokenCount num_tokens)
{
    LIGHTLLM_ASSERT(num_tokens >= 0, "negative extension");
    Allocation *alloc = find(slot);
    LIGHTLLM_ASSERT(alloc != nullptr, "extend of unknown request slot ",
                    slot);
    const std::int64_t need_before = blocksForExtension(*alloc, 1);
    if (!extendAlloc(*alloc, num_tokens))
        return false;
    if (alloc->growing)
        batchNeed_ += blocksForExtension(*alloc, 1) - need_before;
    return true;
}

bool
KvBlockManager::extendAlloc(Allocation &alloc, TokenCount num_tokens)
{
    const std::int64_t need = blocksForExtension(alloc, num_tokens);
    if (!ensureFreeBlocks(need))
        return false;

    // Slack fill lands in the last block, which is always private
    // (allocations end past their shared prefix by construction):
    // charge it there before taking fresh blocks, since a take past
    // the watermark grows states_ and would leave `last` dangling.
    const TokenCount slack =
        static_cast<TokenCount>(alloc.blocks.size()) * blockSize_ -
        alloc.numTokens;
    const TokenCount fill = std::min(num_tokens, slack);
    if (fill > 0) {
        BlockState &last =
            states_[static_cast<std::size_t>(alloc.blocks.back())];
        LIGHTLLM_ASSERT(last.requestRefs == 1,
                        "slack fill into a shared block");
        last.heldTokens += static_cast<std::int32_t>(fill);
        usedTokens_ += fill;
    }
    TokenCount remaining = num_tokens - fill;
    for (std::int64_t i = 0; i < need; ++i) {
        const TokenCount take = std::min(remaining, blockSize_);
        alloc.blocks.push_back(takeFreeBlock(take));
        remaining -= take;
    }
    alloc.last = alloc.blocks.back();
    alloc.numTokens += num_tokens;
    return true;
}

void
KvBlockManager::release(RequestSlot slot)
{
    Allocation *alloc = find(slot);
    if (alloc == nullptr)
        return;
    if (alloc->growing)
        batchNeed_ -= blocksForExtension(*alloc, 1);
    if (cache_ == nullptr) {
        for (const BlockId block : alloc->blocks)
            dropRequestRef(block);
    } else {
        releaseCached(*alloc);
    }
    alloc->blocks.clear();
    alloc->owner = kInvalidSlot;
    alloc->growing = false;
    --liveAllocations_;
}

void
KvBlockManager::releaseCached(const Allocation &alloc)
{
    const PrefixCache::Deferral deferral =
        cache_->takeDeferral(alloc.owner);
    const std::span<const BlockId> blocks = alloc.blocks;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        prefetchWalk(blocks, i);
        // The deferred refresh lands before the reference drops, so
        // a block parked by this drop carries its eager stamp.
        if (i < deferral.count) {
            LIGHTLLM_ASSERT(states_[static_cast<std::size_t>(blocks[i])]
                                    .cacheMark != kNotCached,
                            "deferred refresh of uncached block ",
                            blocks[i]);
            cache_->foldStamp(blocks[i], deferral.base + i + 1);
        }
        dropRequestRef(blocks[i]);
    }
}

void
KvBlockManager::detachPrefixCache()
{
    for (std::size_t block = 0; block < states_.size(); ++block) {
        BlockState &state = states_[block];
        if (state.cacheMark == kNotCached)
            continue;
        state.cacheMark = kNotCached;
        if (state.requestRefs == 0) {
            --cacheOnly_;
            freeList_.push_back(static_cast<BlockId>(block));
        }
    }
    cache_ = nullptr;
}

void
KvBlockManager::joinBatch(RequestSlot slot)
{
    Allocation *alloc = find(slot);
    LIGHTLLM_ASSERT(alloc != nullptr && !alloc->growing,
                    "slot ", slot, " cannot join the decode batch");
    alloc->growing = true;
    batchNeed_ += blocksForExtension(*alloc, 1);
}

void
KvBlockManager::growIntoNewBlock(Allocation &alloc)
{
    // A full last block: the fresh block holds one token, so the
    // batch needs a block again next step only with one-token blocks.
    const bool ok = extendAlloc(alloc, 1);
    LIGHTLLM_ASSERT(ok, "batch growth failed after capacity check");
    batchNeed_ += blocksForExtension(alloc, 1) - 1;
}

TokenCount
KvBlockManager::requestTokens(RequestSlot slot) const
{
    const Allocation *alloc = find(slot);
    return alloc == nullptr ? 0 : alloc->numTokens;
}

TokenCount
KvBlockManager::requestSharedTokens(RequestSlot slot) const
{
    const Allocation *alloc = find(slot);
    return alloc == nullptr ? 0 : alloc->sharedTokens;
}

const std::vector<BlockId> &
KvBlockManager::blockTable(RequestSlot slot) const
{
    const Allocation *alloc = find(slot);
    LIGHTLLM_ASSERT(alloc != nullptr,
                    "block table of unknown slot ", slot);
    return alloc->blocks;
}

std::int32_t
KvBlockManager::requestRefs(BlockId block) const
{
    LIGHTLLM_ASSERT(block >= 0 && block < handedOut(),
                    "block ", block, " was never handed out");
    return states_[static_cast<std::size_t>(block)].requestRefs;
}

void
KvBlockManager::retainCached(BlockId block, std::uint32_t mark)
{
    BlockState &state = states_[static_cast<std::size_t>(block)];
    LIGHTLLM_ASSERT(state.cacheMark == kNotCached,
                    "block ", block, " retained twice");
    LIGHTLLM_ASSERT(state.requestRefs > 0,
                    "caching a free block ", block);
    LIGHTLLM_ASSERT(mark != kNotCached, "invalid park mark");
    state.cacheMark = mark;
}

void
KvBlockManager::dropCached(BlockId block)
{
    BlockState &state = states_[static_cast<std::size_t>(block)];
    LIGHTLLM_ASSERT(state.cacheMark != kNotCached,
                    "dropping uncached block ", block);
    state.cacheMark = kNotCached;
    if (state.requestRefs == 0) {
        --cacheOnly_;
        freeList_.push_back(block);
    }
}

} // namespace memory
} // namespace lightllm
