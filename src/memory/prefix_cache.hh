/**
 * @file
 * Radix/hash prefix cache over refcounted KV blocks.
 *
 * Maps block-chain hashes (base/token_stream.hh) to physical blocks
 * whose KV holds exactly the hashed tokens. Because hash i commits
 * to every token of blocks 0..i, the map behaves like a radix tree
 * over token streams flattened to one node per full block: matching
 * a request's chain front-to-back yields its longest cached prefix,
 * and inserting extends exactly the missing suffix.
 *
 * Cached blocks are retained in the block manager, so they survive
 * the owning request's release as *parked* blocks (cached, no
 * request reference): still serving future matches, but handed
 * back to the free list — least recently used first — the moment an
 * allocation cannot be covered otherwise (KvBlockManager::
 * ensureFreeBlocks). The cache therefore never shrinks usable
 * capacity; it only recycles otherwise-idle blocks.
 *
 * Recency is a monotonically increasing stamp, assigned at every
 * match, new insert and incumbent refresh. The manager reports each
 * cached block's 0<->1 request-reference transitions (park / pin),
 * and only parked blocks sit in a min-heap keyed by stamp, so a
 * reclaim pops the oldest parked blocks in O(log parked) instead of
 * walking every cached block past the request-pinned ones. The
 * order equals that walk's: both visit unreferenced blocks by
 * ascending last touch. A touch only raises a stamp, so touching a
 * parked block leaves its heap key behind as a lower bound; reclaim
 * re-keys a stale root before trusting it, which pops in the same
 * order while a matched block that is pinned right after (the
 * admission path) never pays a sift.
 *
 * The hash -> entry index is one FlatIdTable (base/flat_id_table.hh:
 * power of two slots, linear probing from a Fibonacci-hashed home
 * slot, backward-shift erase, doubling at half load): a probe reads
 * one contiguous run instead of chasing a node per bucket, and erase
 * leaves no tombstones, so a warmed table never allocates.
 * Re-inserting a block that is already cached under the same hash
 * (a finishing turn republishing the prompt blocks it matched)
 * goes straight through the block's entry link in the manager and
 * skips the index.
 */

#ifndef LIGHTLLM_MEMORY_PREFIX_CACHE_HH
#define LIGHTLLM_MEMORY_PREFIX_CACHE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/flat_id_table.hh"
#include "base/token_stream.hh"
#include "base/types.hh"
#include "memory/kv_block_manager.hh"

namespace lightllm {
namespace memory {

/** Longest-prefix block cache with LRU reclamation. */
class PrefixCache
{
  public:
    /** @param kv Block pool the cached blocks belong to; the
     *        manager must outlive the cache. */
    explicit PrefixCache(KvBlockManager &kv);

    PrefixCache(const PrefixCache &) = delete;
    PrefixCache &operator=(const PrefixCache &) = delete;

    ~PrefixCache();

    /**
     * Longest cached prefix of `hashes`, front to back. Matched
     * blocks are appended to `blocks_out` (not cleared) and touched
     * in the LRU order.
     *
     * @return Number of blocks matched.
     */
    std::size_t match(std::span<const PrefixHash> hashes,
                      std::vector<BlockId> &blocks_out);

    /** Longest cached prefix length in blocks, with no LRU effect
     *  (load forecasting must not disturb reclamation order). */
    std::size_t peek(std::span<const PrefixHash> hashes) const;

    /**
     * Cache `blocks[i]` under `hashes[i]` for every position not
     * already present (first insertion wins: a duplicate stream
     * prefilled concurrently keeps the original blocks, whose
     * recency is refreshed). Newly cached blocks are retained in the
     * manager; they must be live request blocks whose KV holds the
     * hashed tokens. A block already cached under its hash is
     * refreshed through its entry link, without an index probe.
     */
    void insert(std::span<const PrefixHash> hashes,
                std::span<const BlockId> blocks);

    /**
     * Hand up to `count` least-recently-used parked blocks (no
     * request references them) back to the free list. Called by the
     * manager when the free list runs dry.
     *
     * @return Blocks actually reclaimed.
     */
    std::int64_t reclaim(std::int64_t count);

    /** Cached blocks (parked or pinned). */
    std::size_t size() const { return index_.size(); }

    /** Slots of the hash index: a power of two, at least twice
     *  size(). */
    std::size_t indexSlots() const { return index_.slots(); }

  private:
    friend class KvBlockManager;

    using EntryIndex = std::uint32_t;

    /** Entry::heapSlot of a block some request references. */
    static constexpr std::uint32_t kPinned = 0xffffffffu;

    /** lookup() of an unindexed hash. */
    static constexpr EntryIndex kEmptySlot = 0xffffffffu;

    /** Index slots of a new cache (doubles from there). */
    static constexpr std::size_t kInitialSlots = 64;

    /** Chain walks (match, peek, insert) start loading this many
     *  positions ahead: their lookups are independent, so the cache
     *  misses overlap instead of queueing. */
    static constexpr std::size_t kPrefetchAhead = 8;

    /** One cached block (a slot of the recycled entry slab). */
    struct Entry
    {
        PrefixHash hash;

        /** Last touch; larger is more recent. */
        std::uint64_t stamp;

        BlockId block;

        /** Position in parked_, or kPinned. */
        std::uint32_t heapSlot;
    };

    /** Heap node: the key rides along so sifts stay in the heap.
     *  It is the entry's stamp when parked or re-keyed, never above
     *  its current stamp. */
    struct Parked
    {
        std::uint64_t stamp;
        EntryIndex entry;
    };

    /** Manager callbacks: the entry's block lost its last request
     *  reference (park) or gained its first (pin). */
    void park(EntryIndex entry);
    void pin(EntryIndex entry);

    /** Make `entry` the most recently used (O(1): a parked entry's
     *  heap key goes stale until reclaim reaches it). */
    void
    touch(EntryIndex entry)
    {
        entries_[entry].stamp = ++clock_;
    }

    /** Start loading the home slot of hashes[at], if any. */
    void
    prefetchHome(std::span<const PrefixHash> hashes,
                 std::size_t at) const
    {
        if (at < hashes.size())
            index_.prefetch(hashes[at]);
    }

    /** Entry cached under `hash`; kEmptySlot when absent. */
    EntryIndex
    lookup(PrefixHash hash) const
    {
        const EntryIndex *entry = index_.find(hash);
        return entry != nullptr ? *entry : kEmptySlot;
    }

    void placeAt(std::size_t slot, Parked node);
    void siftUp(std::size_t slot);
    void siftDown(std::size_t slot);

    KvBlockManager &kv_;

    std::vector<Entry> entries_;
    std::vector<EntryIndex> freeEntries_;

    /** Parked entries, a min-heap on (possibly stale) keys; the
     *  root is the LRU block once its key is current. */
    std::vector<Parked> parked_;

    /** Hash -> entry index; one hash per cached block. */
    FlatIdTable<EntryIndex> index_;

    std::uint64_t clock_ = 0;
};

} // namespace memory
} // namespace lightllm

#endif // LIGHTLLM_MEMORY_PREFIX_CACHE_HH
