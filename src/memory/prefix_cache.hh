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
 * match, new insert and incumbent refresh; a walk reserves one stamp
 * per position, so position i of a chain gets the reserved base +
 * i + 1. The manager reports each cached block's 0<->1
 * request-reference transitions (park / pin), and only parked blocks
 * sit in the parked set, so a reclaim takes the oldest parked blocks
 * without walking every cached block past the request-pinned ones.
 * The order equals that walk's: both visit unreferenced blocks by
 * ascending last touch.
 *
 * The parked set is a stamp-ordered FIFO with lazy deletion. A
 * released block parks with the newest stamp in nearly every case,
 * so park appends at the tail; a park older than the tail goes to a
 * small indexed min-heap instead. Pin overwrites the block's FIFO
 * node with a tombstone, which reclaim steps over at the front. A
 * touch only raises a stamp, so touching a parked block marks its
 * FIFO node stale; reclaim re-files a stale front under its current
 * stamp before trusting it, and takes the smaller of the FIFO front
 * and the heap root (whose stale key it re-keys the same way). The
 * FIFO lives in one array sized once, at twice the pool's blocks:
 * when the tail reaches its end the live nodes slide to the front,
 * which frees at least half of it, so a warmed cache never
 * allocates.
 *
 * Deferred refresh. The engine's walks over a live request's own
 * blocks (allocateMatched, insertHeld) skip the refresh of every
 * block the request holds linked (cached under its hash): the
 * blocks it matched, and those an earlier insert published. The
 * cache keeps the reserved stamps per allocation (a Deferral by
 * request slot), and KvBlockManager::release folds them in, stamp =
 * max(stamp, base + i + 1), in the walk it already makes, on finish
 * and eviction alike. A held block is pinned, and a pinned block's
 * stamp is read only once it parks, which is after every holder's
 * release (a failed allocateMatched holds nothing, and touches at
 * once): so every stamp is the eager one whenever it is read.
 *
 * Per-block cache state is indexed by block id: the hash and stamp
 * here, the park mark in the manager's block state (the word that
 * says whether the cache holds the block), so pin and park touch
 * the block state they already read. The hash -> block index is one
 * FlatIdTable (base/flat_id_table.hh: power of two slots, linear
 * probing from a Fibonacci-hashed home slot, backward-shift erase,
 * doubling at half load): a probe reads one contiguous run instead
 * of chasing a node per bucket, and erase leaves no tombstones, so a
 * warmed table never allocates. A fresh insert costs one probe; a
 * block already cached under its hash is recognised through its own
 * state, without a probe.
 */

#ifndef LIGHTLLM_MEMORY_PREFIX_CACHE_HH
#define LIGHTLLM_MEMORY_PREFIX_CACHE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/flat_id_table.hh"
#include "base/logging.hh"
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

    /** Drops every block it holds (KvBlockManager::
     *  detachPrefixCache). */
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
     * match() and KvBlockManager::allocateShared() in one: allocate
     * `tokens` slots to `slot`, sharing the longest cached prefix of
     * `hashes`. The allocation holds the matched blocks, so their
     * touch is deferred to its release (see the file comment); if
     * the allocation fails, nothing holds them and the touch lands
     * at once.
     *
     * @return Blocks shared, or -1 when the allocation failed.
     */
    std::int64_t allocateMatched(RequestSlot slot, TokenCount tokens,
                                 std::span<const PrefixHash> hashes);

    /**
     * Cache `blocks[i]` under `hashes[i]` for every position not
     * already present (first insertion wins: a duplicate stream
     * prefilled concurrently keeps the original blocks, whose
     * recency is refreshed). Newly cached blocks are retained in the
     * manager; they must be live request blocks whose KV holds the
     * hashed tokens. A block already cached under its hash is
     * refreshed without an index probe. Every position is refreshed
     * now.
     */
    void insert(std::span<const PrefixHash> hashes,
                std::span<const BlockId> blocks);

    /**
     * insert() over the first hashes.size() blocks of the live
     * allocation in `slot`. Its leading linked run (the blocks
     * allocateMatched shared, or the leading run an earlier
     * insertHeld left cached under the allocation's own blocks) is
     * skipped: its refresh is deferred to the allocation's release.
     */
    void insertHeld(RequestSlot slot,
                    std::span<const PrefixHash> hashes);

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

    /** Park mark (KvBlockManager's BlockState::cacheMark) of a
     *  cached block some request references. Every other mark of a
     *  cached block is kInHeap | its heap position, or its FIFO
     *  position with kStale once touched there. */
    static constexpr std::uint32_t kPinned = 0xfffffffeu;

    /** Park mark flag: parked in the heap. */
    static constexpr std::uint32_t kInHeap = 0x80000000u;

    /** Park mark flag: parked in the FIFO and touched since (its
     *  node's key is below its stamp). */
    static constexpr std::uint32_t kStale = 0x40000000u;

    /** lookup() of an unindexed hash; a FIFO node whose block was
     *  pinned since it parked. */
    static constexpr BlockId kNone = -1;

    /** Index slots of a new cache (doubling at half load). */
    static constexpr std::size_t kInitialSlots = 64;

    /** Chain walks (match, peek, insert) start loading this many
     *  positions ahead: their lookups are independent, so the cache
     *  misses overlap instead of queueing. */
    static constexpr std::size_t kPrefetchAhead = 8;

    /** A cached block's content hash and last touch (larger is more
     *  recent); indexed by block id, meaningful while cached. */
    struct Record
    {
        PrefixHash hash;
        std::uint64_t stamp;
    };

    /** Heap node: the key rides along so sifts stay in the heap.
     *  It is the block's stamp when parked or re-keyed, never above
     *  its current stamp. */
    struct Parked
    {
        std::uint64_t stamp;
        BlockId block;
    };

    /** Manager callbacks: the cached block lost its last request
     *  reference (park) or gained its first (pin). */
    void park(BlockId block);
    void pin(BlockId block);

    /** Give `block` the stamp `stamp` (above its current one): a
     *  FIFO-parked block's node goes stale until reclaim reaches
     *  it, a heap-parked one's key likewise. */
    void
    touch(BlockId block, std::uint64_t stamp)
    {
        records_[static_cast<std::size_t>(block)].stamp = stamp;
        std::uint32_t &mark = kv_.cacheMark(block);
        if (mark < kStale)
            mark |= kStale;
    }

    /** A live allocation's deferred refresh: its blocks[i], for i <
     *  count, get at least the stamp base + i + 1 at its release.
     *  Those blocks are its linked run: each is cached under hash i
     *  of the allocation's chain. */
    struct Deferral
    {
        std::uint64_t base = 0;
        std::size_t count = 0;
    };

    /** The deferral of the allocation in `slot` (none yet: count 0). */
    Deferral &
    deferral(RequestSlot slot)
    {
        const std::size_t index = slotIndex(slot);
        if (index >= deferred_.size())
            deferred_.resize(index + 1);
        return deferred_[index];
    }

    /** The allocation in `slot` is being released: its deferral,
     *  which the release folds in, and the slot's is cleared. */
    Deferral
    takeDeferral(RequestSlot slot)
    {
        const std::size_t index = slotIndex(slot);
        if (index >= deferred_.size())
            return Deferral{};
        return std::exchange(deferred_[index], Deferral{});
    }

    /** A deferred refresh lands (KvBlockManager::release): the block
     *  is held, so its stamp is only raised. */
    void
    foldStamp(BlockId block, std::uint64_t stamp)
    {
        std::uint64_t &current =
            records_[static_cast<std::size_t>(block)].stamp;
        if (current < stamp)
            current = stamp;
    }

    /** Start loading `block`'s record. */
    void
    prefetchRecord(BlockId block) const
    {
        __builtin_prefetch(&records_[static_cast<std::size_t>(block)]);
    }

    /** Start loading the home slot of hashes[at], if any. */
    void
    prefetchHome(std::span<const PrefixHash> hashes,
                 std::size_t at) const
    {
        if (at < hashes.size())
            index_.prefetch(hashes[at]);
    }

    /** Block cached under `hash`; kNone when absent. */
    BlockId
    lookup(PrefixHash hash) const
    {
        const BlockId *block = index_.find(hash);
        return block != nullptr ? *block : kNone;
    }

    /** The longest cached prefix of `hashes` into matched_, with no
     *  touch. */
    void collect(std::span<const PrefixHash> hashes);

    /** The insert walk from position `from`, position i stamped
     *  base + i + 1; returns the leading linked run from `from`. */
    std::size_t insertFrom(std::span<const PrefixHash> hashes,
                           std::span<const BlockId> blocks,
                           std::size_t from, std::uint64_t base);

    /** Start loading what the next reclaims read. */
    void prefetchFifo() const;

    /** Remove the least recently used parked block from the parked
     *  set; kNone when none is parked. */
    BlockId unparkOldest();

    /** Slide the FIFO's live nodes to the front of its array. */
    void compactFifo();

    void heapPush(Parked node);
    void heapRemove(std::size_t slot);
    void placeAt(std::size_t slot, Parked node);
    void siftUp(std::size_t slot);
    void siftDown(std::size_t slot);

    KvBlockManager &kv_;

    /** Records of the pool's blocks; a record's page is first
     *  touched when its block is first cached. */
    std::unique_ptr<Record[]> records_;

    /** The FIFO: blocks in [fifoHead_, fifoTail_) of an array of
     *  fifoCapacity_, parked in ascending key order, or kNone. */
    std::unique_ptr<BlockId[]> fifo_;
    std::uint32_t fifoCapacity_;
    std::uint32_t fifoHead_ = 0;
    std::uint32_t fifoTail_ = 0;

    /** Key of the newest FIFO node: a park may append only above. */
    std::uint64_t fifoNewest_ = 0;

    /** Parks older than the FIFO tail, a min-heap on (possibly
     *  stale) keys. */
    std::vector<Parked> heap_;

    /** Hash -> block; one hash per cached block. */
    FlatIdTable<BlockId> index_;

    /** The blocks match() and allocateMatched() found. */
    std::vector<BlockId> matched_;

    /** Deferrals by request slot index. */
    std::vector<Deferral> deferred_;

    std::uint64_t clock_ = 0;
};

inline void
PrefixCache::park(BlockId block)
{
    std::uint32_t &mark = kv_.cacheMark(block);
    LIGHTLLM_ASSERT(mark == kPinned, "parking a parked block ", block);
    const std::uint64_t stamp =
        records_[static_cast<std::size_t>(block)].stamp;
    if (fifoHead_ == fifoTail_) {
        fifoHead_ = fifoTail_ = 0;  // empty: restart at the front
    } else if (stamp < fifoNewest_) {
        heapPush(Parked{stamp, block});
        return;
    }
    if (fifoTail_ == fifoCapacity_)
        compactFifo();
    mark = fifoTail_;
    fifo_[fifoTail_++] = block;
    fifoNewest_ = stamp;
}

inline void
PrefixCache::pin(BlockId block)
{
    std::uint32_t &mark = kv_.cacheMark(block);
    const std::uint32_t at = mark;
    LIGHTLLM_ASSERT(at != kPinned, "pinning a pinned block ", block);
    mark = kPinned;
    if (at & kInHeap)
        heapRemove(at & ~kInHeap);
    else
        fifo_[at & ~kStale] = kNone;  // reclaim steps over it
}

inline void
KvBlockManager::prefetchWalk(std::span<const BlockId> blocks,
                             std::size_t at) const
{
    if (at + kWalkAhead >= blocks.size())
        return;
    const BlockId block = blocks[at + kWalkAhead];
    prefetchState(block);
    if (cache_ != nullptr)
        cache_->prefetchRecord(block);
}

} // namespace memory
} // namespace lightllm

#endif // LIGHTLLM_MEMORY_PREFIX_CACHE_HH
