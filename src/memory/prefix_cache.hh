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
 * ascending last touch.
 */

#ifndef LIGHTLLM_MEMORY_PREFIX_CACHE_HH
#define LIGHTLLM_MEMORY_PREFIX_CACHE_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

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
     * hashed tokens.
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
    std::size_t size() const { return map_.size(); }

    /** Total match() calls and block-level hits (bench telemetry;
     *  request-level hit tokens live in the metrics collector). */
    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hitBlocks() const { return hitBlocks_; }

  private:
    friend class KvBlockManager;

    using EntryIndex = std::uint32_t;
    using HashMap = std::unordered_map<PrefixHash, EntryIndex>;

    /** Entry::heapSlot of a block some request references. */
    static constexpr std::uint32_t kPinned = 0xffffffffu;

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

    /** Heap node: the key rides along so sifts stay in the heap. */
    struct Parked
    {
        std::uint64_t stamp;
        EntryIndex entry;
    };

    /** Manager callbacks: the entry's block lost its last request
     *  reference (park) or gained its first (pin). */
    void park(EntryIndex entry);
    void pin(EntryIndex entry);

    /** Make `entry` the most recently used. */
    void touch(EntryIndex entry);

    void placeAt(std::size_t slot, Parked node);
    void siftUp(std::size_t slot);
    void siftDown(std::size_t slot);

    KvBlockManager &kv_;

    std::vector<Entry> entries_;
    std::vector<EntryIndex> freeEntries_;

    /** Parked entries, a min-heap on stamp (root = LRU). */
    std::vector<Parked> parked_;

    HashMap map_;

    /** Nodes of reclaimed hashes, reused by insert(). */
    std::vector<HashMap::node_type> spareNodes_;

    std::uint64_t clock_ = 0;

    std::uint64_t lookups_ = 0;
    std::uint64_t hitBlocks_ = 0;
};

} // namespace memory
} // namespace lightllm

#endif // LIGHTLLM_MEMORY_PREFIX_CACHE_HH
