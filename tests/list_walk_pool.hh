/**
 * @file
 * The eager list-walk reference model of the KV block pool and its
 * prefix cache, shared by the memory and prefix-cache suites.
 */

#ifndef LIGHTLLM_TESTS_LIST_WALK_POOL_HH
#define LIGHTLLM_TESTS_LIST_WALK_POOL_HH

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/token_stream.hh"
#include "base/types.hh"
#include "memory/kv_block_manager.hh"

namespace lightllm {
namespace testfx {

/**
 * Reference model of the block pool and prefix cache as first built:
 * every block on a LIFO free list [N-1 ... 0] from construction
 * (released blocks pushed on top), per-block request refcounts and
 * fills, and a std::list in recency order (front = most recent)
 * whose reclaim walks from the tail past request-referenced blocks.
 * The prefix cache's heap-ordered reclaim and the manager's lazily
 * materialised block arena are both checked against it.
 */
class ListWalkPool
{
  public:
    using BlockId = memory::BlockId;

    ListWalkPool(TokenCount capacity, TokenCount block) : block_(block)
    {
        const auto blocks = static_cast<std::size_t>(capacity / block);
        for (std::size_t b = blocks; b-- > 0;)
            free_.push_back(static_cast<BlockId>(b));
        refs_.assign(blocks, 0);
        held_.assign(blocks, 0);
        cached_.assign(blocks, false);
    }

    bool
    allocateShared(RequestSlot id, TokenCount tokens,
                   const std::vector<BlockId> &shared)
    {
        const auto shared_tokens =
            static_cast<TokenCount>(shared.size()) * block_;
        if (tokens <= shared_tokens || tables_.count(id) > 0)
            return false;
        const std::int64_t need = blocksFor(tokens - shared_tokens);
        for (const BlockId b : shared)
            addRef(b);
        if (!ensureFree(need)) {
            for (const BlockId b : shared)
                dropRef(b);
            return false;
        }
        Table &table = tables_[id];
        table.tokens = tokens;
        table.blocks = shared;
        takeBlocks(table, tokens - shared_tokens, need);
        return true;
    }

    bool
    extend(RequestSlot id, TokenCount tokens)
    {
        Table &table = tables_.at(id);
        const TokenCount slack =
            static_cast<TokenCount>(table.blocks.size()) * block_ -
            table.tokens;
        const std::int64_t need =
            tokens <= slack ? 0 : blocksFor(tokens - slack);
        if (!ensureFree(need))
            return false;
        const TokenCount fill = std::min(tokens, slack);
        held_[idx(table.blocks.back())] += fill;
        used_ += fill;
        takeBlocks(table, tokens - fill, need);
        table.tokens += tokens;
        return true;
    }

    void
    release(RequestSlot id)
    {
        for (const BlockId b : tables_.at(id).blocks)
            dropRef(b);
        tables_.erase(id);
    }

    std::size_t
    match(const std::vector<PrefixHash> &hashes,
          std::vector<BlockId> &out)
    {
        std::size_t matched = 0;
        for (const PrefixHash hash : hashes) {
            const auto it = map_.find(hash);
            if (it == map_.end())
                break;
            lru_.splice(lru_.begin(), lru_, it->second);
            out.push_back(it->second->second);
            ++matched;
        }
        return matched;
    }

    void
    insert(std::span<const PrefixHash> hashes,
           std::span<const BlockId> blocks)
    {
        for (std::size_t i = 0; i < hashes.size(); ++i) {
            const auto it = map_.find(hashes[i]);
            if (it != map_.end()) {
                lru_.splice(lru_.begin(), lru_, it->second);
                continue;
            }
            cached_[idx(blocks[i])] = true;
            lru_.emplace_front(hashes[i], blocks[i]);
            map_.emplace(hashes[i], lru_.begin());
        }
    }

    /** The blocks reclaimed, in reclaim order. */
    std::vector<BlockId>
    reclaim(std::int64_t count)
    {
        std::vector<BlockId> out;
        auto it = lru_.end();
        while (static_cast<std::int64_t>(out.size()) < count &&
               it != lru_.begin()) {
            --it;
            if (refs_[idx(it->second)] > 0)
                continue;  // request-pinned: skip
            const BlockId b = it->second;
            map_.erase(it->first);
            it = lru_.erase(it);
            cached_[idx(b)] = false;
            --cacheOnly_;
            free_.push_back(b);
            out.push_back(b);
        }
        reclaimed_ += static_cast<std::int64_t>(out.size());
        return out;
    }

    /** Blocks reclaimed so far, explicitly or by allocations. */
    std::int64_t reclaimed() const { return reclaimed_; }

    std::int64_t freeBlocks() const
    {
        return static_cast<std::int64_t>(free_.size());
    }
    std::int64_t reclaimableBlocks() const { return cacheOnly_; }
    TokenCount usedTokens() const { return used_; }
    std::size_t size() const { return map_.size(); }
    const std::vector<BlockId> &table(RequestSlot id) const
    {
        return tables_.at(id).blocks;
    }

  private:
    struct Table
    {
        TokenCount tokens = 0;
        std::vector<BlockId> blocks;
    };

    static std::size_t idx(BlockId b)
    {
        return static_cast<std::size_t>(b);
    }

    std::int64_t blocksFor(TokenCount tokens) const
    {
        return (tokens + block_ - 1) / block_;
    }

    bool
    ensureFree(std::int64_t need)
    {
        if (need <= freeBlocks())
            return true;
        if (need > freeBlocks() + cacheOnly_)
            return false;
        reclaim(need - freeBlocks());
        return true;
    }

    void
    takeBlocks(Table &table, TokenCount tokens, std::int64_t count)
    {
        for (std::int64_t i = 0; i < count; ++i) {
            const TokenCount fill = std::min(tokens, block_);
            const BlockId b = free_.back();
            free_.pop_back();
            refs_[idx(b)] = 1;
            held_[idx(b)] = fill;
            used_ += fill;
            table.blocks.push_back(b);
            tokens -= fill;
        }
    }

    void
    addRef(BlockId b)
    {
        if (refs_[idx(b)] == 0) {
            held_[idx(b)] = block_;
            used_ += block_;
            --cacheOnly_;
        }
        ++refs_[idx(b)];
    }

    void
    dropRef(BlockId b)
    {
        if (--refs_[idx(b)] > 0)
            return;
        used_ -= held_[idx(b)];
        held_[idx(b)] = 0;
        if (cached_[idx(b)])
            ++cacheOnly_;
        else
            free_.push_back(b);
    }

    using Lru = std::list<std::pair<PrefixHash, BlockId>>;

    TokenCount block_;
    std::vector<BlockId> free_;
    std::vector<std::int32_t> refs_;
    std::vector<TokenCount> held_;
    std::vector<bool> cached_;
    std::map<RequestSlot, Table> tables_;
    Lru lru_;
    std::unordered_map<PrefixHash, Lru::iterator> map_;
    TokenCount used_ = 0;
    std::int64_t cacheOnly_ = 0;
    std::int64_t reclaimed_ = 0;
};

} // namespace testfx
} // namespace lightllm

#endif // LIGHTLLM_TESTS_LIST_WALK_POOL_HH
