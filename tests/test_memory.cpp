/**
 * @file
 * Tests for the paged KV block manager and the contiguous baseline.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "base/token_stream.hh"
#include "list_walk_pool.hh"
#include "memory/kv_block_manager.hh"
#include "memory/prefix_cache.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace memory {
namespace {

using testfx::bernoulli;

TEST(KvBlockManagerTest, CapacityRoundsDownToBlocks)
{
    KvBlockManager kv(1000, 16);
    EXPECT_EQ(kv.capacityTokens(), 992);  // 62 blocks
    EXPECT_EQ(kv.freeBlocks(), 62);
}

TEST(KvBlockManagerTest, AllocateTracksTokensAndBlocks)
{
    KvBlockManager kv(1024, 16);
    ASSERT_TRUE(kv.allocate(1, 100));
    EXPECT_EQ(kv.usedTokens(), 100);
    EXPECT_EQ(kv.requestTokens(1), 100);
    EXPECT_EQ(kv.blockTable(1).size(), 7u);  // ceil(100/16)
    EXPECT_EQ(kv.freeBlocks(), 64 - 7);
}

TEST(KvBlockManagerTest, ZeroTokenAllocateRejected)
{
    KvBlockManager kv(1024, 16);
    EXPECT_FALSE(kv.allocate(1, 0));
    EXPECT_EQ(kv.usedTokens(), 0);
    EXPECT_EQ(kv.numRequests(), 0u);
    // The id stays available for a real allocation.
    EXPECT_TRUE(kv.allocate(1, 10));
}

TEST(KvBlockManagerTest, PartialLastBlockGrowthAccounting)
{
    // Growth fills the last block's slack before taking new blocks:
    // a request growing one token per step takes one fresh block
    // every blockSize steps, never more.
    KvBlockManager kv(1024, 16);
    ASSERT_TRUE(kv.allocate(1, 33));  // 3 blocks, 15 slack
    EXPECT_EQ(kv.blockTable(1).size(), 3u);
    for (int step = 0; step < 15; ++step)
        ASSERT_TRUE(kv.extend(1, 1));
    EXPECT_EQ(kv.blockTable(1).size(), 3u);  // slack absorbed all
    ASSERT_TRUE(kv.extend(1, 1));
    EXPECT_EQ(kv.blockTable(1).size(), 4u);  // 49 tokens
    EXPECT_EQ(kv.requestTokens(1), 49);
    EXPECT_EQ(kv.usedTokens(), 49);
}

TEST(KvBlockManagerTest, DuplicateAllocateFails)
{
    KvBlockManager kv(1024, 16);
    ASSERT_TRUE(kv.allocate(1, 10));
    EXPECT_FALSE(kv.allocate(1, 10));
    EXPECT_EQ(kv.usedTokens(), 10);
}

TEST(KvBlockManagerTest, AllocateFailureChangesNothing)
{
    KvBlockManager kv(64, 16);  // 4 blocks
    ASSERT_TRUE(kv.allocate(1, 33));  // 3 blocks
    EXPECT_FALSE(kv.allocate(2, 32));  // needs 2, only 1 free
    EXPECT_EQ(kv.usedTokens(), 33);
    EXPECT_EQ(kv.numRequests(), 1u);
    EXPECT_TRUE(kv.allocate(3, 16));  // exactly the last block
}

TEST(KvBlockManagerTest, ExtendUsesLastBlockSlackFirst)
{
    KvBlockManager kv(1024, 16);
    ASSERT_TRUE(kv.allocate(1, 10));  // 1 block, 6 slack
    ASSERT_TRUE(kv.extend(1, 6));
    EXPECT_EQ(kv.blockTable(1).size(), 1u);
    ASSERT_TRUE(kv.extend(1, 1));  // now needs a second block
    EXPECT_EQ(kv.blockTable(1).size(), 2u);
    EXPECT_EQ(kv.requestTokens(1), 17);
}

TEST(KvBlockManagerTest, ExtendFailureIsAtomic)
{
    KvBlockManager kv(32, 16);  // 2 blocks
    ASSERT_TRUE(kv.allocate(1, 16));
    ASSERT_TRUE(kv.allocate(2, 16));
    EXPECT_FALSE(kv.extend(1, 1));
    EXPECT_EQ(kv.requestTokens(1), 16);
    EXPECT_EQ(kv.freeBlocks(), 0);
}

TEST(KvBlockManagerTest, ReleaseReturnsBlocks)
{
    KvBlockManager kv(1024, 16);
    ASSERT_TRUE(kv.allocate(1, 100));
    ASSERT_TRUE(kv.allocate(2, 200));
    kv.release(1);
    EXPECT_EQ(kv.usedTokens(), 200);
    EXPECT_EQ(kv.requestTokens(1), 0);
    EXPECT_EQ(kv.numRequests(), 1u);
    EXPECT_EQ(kv.freeBlocks(), 64 - 13);
}

TEST(KvBlockManagerTest, ReleaseUnknownIsNoop)
{
    KvBlockManager kv(1024, 16);
    kv.release(42);
    EXPECT_EQ(kv.usedTokens(), 0);
}

TEST(KvBlockManagerTest, BlocksAreNeverSharedBetweenRequests)
{
    KvBlockManager kv(4096, 16);
    Rng rng(5);
    std::vector<RequestId> live;
    for (RequestId id = 0; id < 40; ++id) {
        if (kv.allocate(id, rng.uniformInt(1, 120)))
            live.push_back(id);
    }
    std::unordered_map<BlockId, RequestId> owner;
    for (RequestId id : live) {
        for (BlockId block : kv.blockTable(id)) {
            const auto [it, inserted] = owner.emplace(block, id);
            EXPECT_TRUE(inserted)
                << "block " << block << " owned by both " << it->second
                << " and " << id;
        }
    }
}

TEST(KvBlockManagerTest, CanExtendBatchAccountsSlack)
{
    KvBlockManager kv(48, 16);  // 3 blocks
    ASSERT_TRUE(kv.allocate(1, 16));  // full block, no slack
    ASSERT_TRUE(kv.allocate(2, 15));  // 1 token slack
    ASSERT_TRUE(kv.allocate(3, 10));  // 6 tokens slack
    // Requests 2 and 3 can grow within slack; request 1 needs a new
    // block but none are free.
    EXPECT_FALSE(testfx::canExtendBatchByOne(kv, {1, 2, 3}));
    EXPECT_TRUE(testfx::canExtendBatchByOne(kv, {2, 3}));
}

TEST(KvBlockManagerTest, CanAllocateMatchesAllocate)
{
    KvBlockManager kv(64, 16);
    ASSERT_TRUE(kv.allocate(1, 40));  // 3 blocks
    EXPECT_TRUE(testfx::canAllocate(kv, 16));
    EXPECT_FALSE(testfx::canAllocate(kv, 17));
}

TEST(KvBlockManagerTest, UtilizationIsTokenLevel)
{
    KvBlockManager kv(100, 10);
    ASSERT_TRUE(kv.allocate(1, 25));
    // 25 tokens held, not the 30 slots of its three blocks.
    EXPECT_EQ(kv.usedTokens(), 25);
}

TEST(KvBlockManagerDeathTest, ExtendUnknownRequestPanics)
{
    KvBlockManager kv(64, 16);
    EXPECT_DEATH(kv.extend(9, 1), "unknown request");
}

/**
 * A slot handle outlives its request the way a sim::EventId outlives
 * its event: once the index is released and handed to the next
 * generation, the old handle names nothing.
 */
TEST(KvBlockManagerTest, StaleSlotIsRejected)
{
    KvBlockManager kv(1024, 16);
    const RequestSlot old_slot = makeSlot(3, 0);
    const RequestSlot new_slot = makeSlot(3, 1);
    ASSERT_TRUE(kv.allocate(old_slot, 40));
    kv.release(old_slot);
    ASSERT_TRUE(kv.allocate(new_slot, 100));

    EXPECT_EQ(kv.requestTokens(old_slot), 0);
    EXPECT_EQ(kv.requestSharedTokens(old_slot), 0);
    EXPECT_FALSE(kv.allocate(old_slot, 10));  // the index is held
    kv.release(old_slot);                     // no-op
    EXPECT_EQ(kv.usedTokens(), 100);
    EXPECT_EQ(kv.requestTokens(new_slot), 100);
    EXPECT_EQ(kv.numRequests(), 1u);
    EXPECT_DEATH(kv.extend(old_slot, 1), "unknown request");
    EXPECT_DEATH(kv.blockTable(old_slot), "unknown slot");

    kv.release(new_slot);
    EXPECT_EQ(kv.usedTokens(), 0);
    EXPECT_FALSE(kv.allocate(kInvalidSlot, 10));
}

/**
 * Property: the decode batch's O(1) feasibility test agrees with the
 * per-request scan (canExtendBatchByOne over the joined slots)
 * through random joins, batch growth, bulk extends and releases, and
 * growing the batch evolves state exactly as extend(slot, 1) on each
 * joined slot in order.
 */
TEST(KvBlockManagerTest, BatchDemandMatchesPerRequestScan)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        const TokenCount block = seed % 3 == 0 ? 1 : 16;
        KvBlockManager kv(200 * block, block);
        KvBlockManager mirror(200 * block, block);
        std::vector<RequestSlot> joined;
        std::vector<RequestSlot> idle;
        std::uint32_t next_index = 0;
        for (int op = 0; op < 3000; ++op) {
            const auto dice = rng.uniformInt(0, 99);
            if (dice < 25) {
                // Fails on both while the index is held.
                const RequestSlot slot = makeSlot(
                    next_index++ % 64, static_cast<std::uint32_t>(op));
                const TokenCount tokens = rng.uniformInt(1, 40);
                const bool ok = kv.allocate(slot, tokens);
                ASSERT_EQ(ok, mirror.allocate(slot, tokens));
                if (ok)
                    idle.push_back(slot);
            } else if (dice < 40 && !idle.empty()) {
                kv.joinBatch(idle.back());
                joined.push_back(idle.back());
                idle.pop_back();
            } else if (dice < 50 && !joined.empty()) {
                const auto index = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          joined.size()) - 1));
                const TokenCount tokens = rng.uniformInt(1, 20);
                ASSERT_EQ(kv.extend(joined[index], tokens),
                          mirror.extend(joined[index], tokens));
            } else if (dice < 65) {
                std::vector<RequestSlot> &pool =
                    bernoulli(rng, 0.5) ? joined : idle;
                if (pool.empty())
                    continue;
                const auto index = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          pool.size()) - 1));
                kv.release(pool[index]);
                mirror.release(pool[index]);
                pool.erase(pool.begin() +
                           static_cast<std::ptrdiff_t>(index));
            } else {
                const bool fits =
                    testfx::canExtendBatchByOne(kv, joined);
                ASSERT_EQ(kv.batchCanGrow(), fits)
                    << "seed " << seed << " op " << op;
                if (!fits)
                    continue;
                for (RequestSlot slot : joined) {
                    kv.growByOne(slot);
                    ASSERT_TRUE(mirror.extend(slot, 1));
                }
            }
            ASSERT_EQ(kv.usedTokens(), mirror.usedTokens());
            ASSERT_EQ(kv.freeBlocks(), mirror.freeBlocks());
        }
        for (RequestSlot slot : joined)
            ASSERT_EQ(kv.blockTable(slot), mirror.blockTable(slot));
    }
}

/**
 * growInSlack(slot, n) is n block-free growByOne calls at once: on
 * random joined allocations it leaves the same usage, block tables
 * and batch demand as extending a mirror token by token, and the
 * next growth (into a fresh block when the slack ran out) still
 * matches.
 */
TEST(KvBlockManagerTest, GrowInSlackEqualsRepeatedGrowth)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        const TokenCount block = seed % 2 == 0 ? 7 : 16;
        KvBlockManager kv(120 * block, block);
        KvBlockManager mirror(120 * block, block);
        std::vector<RequestSlot> joined;
        for (std::uint32_t i = 0; i < 8; ++i) {
            const RequestSlot slot = makeSlot(i, 1);
            const TokenCount tokens = rng.uniformInt(1, 60);
            ASSERT_TRUE(kv.allocate(slot, tokens));
            ASSERT_TRUE(mirror.allocate(slot, tokens));
            kv.joinBatch(slot);
            joined.push_back(slot);
        }
        for (int op = 0; op < 400; ++op) {
            const RequestSlot slot = joined[static_cast<std::size_t>(
                rng.uniformInt(0, 7))];
            const TokenCount slack =
                static_cast<TokenCount>(kv.blockTable(slot).size()) *
                    block -
                kv.requestTokens(slot);
            const TokenCount tokens = rng.uniformInt(0, slack);
            kv.growInSlack(slot, tokens);
            if (tokens > 0) {
                ASSERT_TRUE(mirror.extend(slot, tokens));
            }
            if (bernoulli(rng, 0.5) && kv.batchCanGrow()) {
                kv.growByOne(slot);
                ASSERT_TRUE(mirror.extend(slot, 1));
            }
            ASSERT_EQ(kv.usedTokens(), mirror.usedTokens());
            ASSERT_EQ(kv.freeBlocks(), mirror.freeBlocks());
            ASSERT_EQ(kv.requestTokens(slot),
                      mirror.requestTokens(slot));
            ASSERT_EQ(kv.blockTable(slot), mirror.blockTable(slot));
            ASSERT_EQ(kv.batchCanGrow(),
                      testfx::canExtendBatchByOne(kv, joined));
        }
    }
}

/**
 * Property: a random allocate/extend/release workload conserves
 * blocks exactly — used + free always equals total, and releasing
 * everything restores the initial state.
 */
class KvBlockManagerProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(KvBlockManagerProperty, RandomWorkloadConservesBlocks)
{
    KvBlockManager kv(8192, 16);
    const std::int64_t total_blocks = kv.freeBlocks();
    Rng rng(GetParam());
    std::vector<RequestId> live;
    RequestId next_id = 0;

    for (int step = 0; step < 2000; ++step) {
        const double action = rng.uniformDouble();
        if (action < 0.4) {
            const RequestId id = next_id++;
            if (kv.allocate(id, rng.uniformInt(1, 300)))
                live.push_back(id);
        } else if (action < 0.8 && !live.empty()) {
            const auto index = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) - 1));
            kv.extend(live[index], rng.uniformInt(1, 50));
        } else if (!live.empty()) {
            const auto index = static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(
                                   live.size()) - 1));
            kv.release(live[index]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(index));
        }

        // Block conservation.
        std::int64_t owned = 0;
        TokenCount tokens = 0;
        for (RequestId id : live) {
            owned += static_cast<std::int64_t>(
                kv.blockTable(id).size());
            tokens += kv.requestTokens(id);
        }
        ASSERT_EQ(owned + kv.freeBlocks(), total_blocks);
        ASSERT_EQ(tokens, kv.usedTokens());
        ASSERT_LE(kv.usedTokens(),
                  owned * kv.blockSize());
    }

    for (RequestId id : live)
        kv.release(id);
    EXPECT_EQ(kv.usedTokens(), 0);
    EXPECT_EQ(kv.freeBlocks(), total_blocks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvBlockManagerProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Lazy arena against the eager free list -------------------------

/**
 * Property: the lazily materialised arena hands out exactly the
 * blocks an eagerly filled free list would. Seeded random plain and
 * prefix-shared admissions, extends, decode-batch joins with
 * growByOne and growInSlack, releases, cache publishes and explicit
 * reclaims run on the real manager and cache and on the eager
 * list-walk reference (where growth is extend); tight pools keep
 * reclaim under pressure, roomy ones keep the watermark well below
 * capacity. After every operation every block table and every
 * free/used/reclaimable count agrees.
 */
TEST(KvBlockManagerTest, LazyArenaMatchesEagerFreeList)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed);
        const TokenCount block =
            seed % 3 == 0 ? 1 : (seed % 3 == 1 ? 4 : 16);
        const TokenCount capacity = (seed % 2 == 0 ? 48 : 400) * block;
        KvBlockManager kv(capacity, block);
        PrefixCache cache(kv);
        kv.attachPrefixCache(&cache);
        testfx::ListWalkPool ref(capacity, block);

        // Streams sharing a few system prompts, so prefixes overlap.
        std::vector<std::vector<PromptSegment>> streams;
        for (std::uint64_t s = 0; s < 10; ++s) {
            streams.push_back(
                {PromptSegment{1 + s % 3, rng.uniformInt(2, 6) * block},
                 PromptSegment{100 + s, rng.uniformInt(1, 10) * block}});
        }
        std::map<RequestSlot, std::size_t> stream_of;
        std::vector<RequestSlot> idle;
        std::vector<RequestSlot> joined;
        std::uint32_t next_index = 0;
        std::int64_t explicit_reclaims = 0;

        auto pick = [&](const std::vector<RequestSlot> &pool) {
            return static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(pool.size()) - 1));
        };
        auto admit = [&](bool shared) {
            const RequestSlot slot = makeSlot(next_index++, 1);
            const auto stream =
                static_cast<std::size_t>(rng.uniformInt(0, 9));
            const TokenCount tokens = rng.uniformInt(1, 20 * block);
            std::vector<BlockId> got;
            std::vector<BlockId> want;
            if (shared) {
                const auto hashes =
                    blockHashChain(streams[stream], block, tokens - 1);
                ASSERT_EQ(cache.match(hashes, got),
                          ref.match(hashes, want));
                ASSERT_EQ(got, want);
            }
            const bool ok = kv.allocateShared(slot, tokens, got);
            ASSERT_EQ(ok, ref.allocateShared(slot, tokens, want));
            if (ok) {
                idle.push_back(slot);
                stream_of[slot] = stream;
            }
        };

        for (int op = 0; op < 1500; ++op) {
            const auto dice = rng.uniformInt(0, 99);
            if (dice < 15 || (idle.empty() && joined.empty())) {
                admit(false);
            } else if (dice < 30) {
                admit(true);
            } else if (dice < 40) {
                std::vector<RequestSlot> &pool =
                    idle.empty() ? joined : idle;
                const RequestSlot slot = pool[pick(pool)];
                const TokenCount tokens = rng.uniformInt(1, 3 * block);
                ASSERT_EQ(kv.extend(slot, tokens),
                          ref.extend(slot, tokens));
            } else if (dice < 48 && !idle.empty()) {
                const std::size_t at = pick(idle);
                kv.joinBatch(idle[at]);
                joined.push_back(idle[at]);
                idle.erase(idle.begin() +
                           static_cast<std::ptrdiff_t>(at));
            } else if (dice < 58 && !joined.empty()) {
                const bool fits =
                    testfx::canExtendBatchByOne(kv, joined);
                ASSERT_EQ(kv.batchCanGrow(), fits);
                if (fits) {
                    for (const RequestSlot slot : joined) {
                        kv.growByOne(slot);
                        ASSERT_TRUE(ref.extend(slot, 1));
                    }
                }
            } else if (dice < 64 && !joined.empty()) {
                const RequestSlot slot = joined[pick(joined)];
                const TokenCount slack =
                    static_cast<TokenCount>(kv.blockTable(slot).size()) *
                        block -
                    kv.requestTokens(slot);
                const TokenCount tokens = rng.uniformInt(0, slack);
                kv.growInSlack(slot, tokens);
                if (tokens > 0) {
                    ASSERT_TRUE(ref.extend(slot, tokens));
                }
            } else if (dice < 78) {
                std::vector<RequestSlot> &pool =
                    (bernoulli(rng, 0.5) && !joined.empty()) ||
                        idle.empty()
                    ? joined
                    : idle;
                const std::size_t at = pick(pool);
                kv.release(pool[at]);
                ref.release(pool[at]);
                stream_of.erase(pool[at]);
                pool.erase(pool.begin() +
                           static_cast<std::ptrdiff_t>(at));
            } else if (dice < 92) {
                // Publish the full blocks the request's stream covers.
                std::vector<RequestSlot> &pool =
                    idle.empty() ? joined : idle;
                const RequestSlot slot = pool[pick(pool)];
                const auto &table = kv.blockTable(slot);
                const auto hashes = blockHashChain(
                    streams[stream_of.at(slot)], block,
                    kv.requestTokens(slot));
                const std::size_t count =
                    std::min(hashes.size(), table.size());
                const std::vector<BlockId> blocks(
                    table.begin(),
                    table.begin() + static_cast<std::ptrdiff_t>(count));
                cache.insert(std::span(hashes).first(count), blocks);
                ref.insert(std::span(hashes).first(count), blocks);
            } else {
                const std::int64_t count = rng.uniformInt(0, 4);
                const auto done =
                    static_cast<std::int64_t>(ref.reclaim(count).size());
                ASSERT_EQ(cache.reclaim(count), done);
                explicit_reclaims += done;
            }

            ASSERT_EQ(kv.freeBlocks(), ref.freeBlocks()) << "op " << op;
            ASSERT_EQ(testfx::freeTokens(kv),
                      ref.freeBlocks() * block)
                << "op " << op;
            ASSERT_EQ(kv.usedTokens(), ref.usedTokens()) << "op " << op;
            ASSERT_EQ(kv.reclaimableBlocks(), ref.reclaimableBlocks())
                << "op " << op;
            for (const auto &[slot, stream] : stream_of) {
                ASSERT_EQ(kv.blockTable(slot), ref.table(slot))
                    << "op " << op << " slot " << slot;
            }
        }
        // The run exercised explicit and pressure-driven reclaim.
        EXPECT_GT(explicit_reclaims, 0);
        if (seed % 2 == 0) {
            EXPECT_GT(ref.reclaimed() - explicit_reclaims, 0);
        }
    }
}

/** Resident set size of this process in bytes (/proc/self/statm). */
std::int64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::int64_t size_pages = 0;
    std::int64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

/**
 * A pool costs memory for the blocks it has handed out, not for its
 * capacity: 16 pools of 2^20 blocks each (about 256 MB of free list
 * and block state if filled at construction) serving a small decode
 * batch stay within a few MB of resident memory.
 */
TEST(KvBlockManagerTest, FootprintFollowsHandedOutBlocks)
{
#ifdef PFS_SANITIZED_BUILD
    GTEST_SKIP() << "sanitizer shadow memory skews resident size";
#endif
    constexpr TokenCount kBlock = 16;
    constexpr TokenCount kCapacity = (TokenCount{1} << 20) * kBlock;
    const std::int64_t before = residentBytes();
    ASSERT_GT(before, 0);

    std::vector<std::unique_ptr<KvBlockManager>> pools;
    for (int i = 0; i < 16; ++i) {
        auto kv = std::make_unique<KvBlockManager>(kCapacity, kBlock);
        for (std::uint32_t r = 0; r < 8; ++r) {
            const RequestSlot slot = makeSlot(r, 1);
            ASSERT_TRUE(kv->allocate(slot, 100 + 37 * r));
            kv->joinBatch(slot);
        }
        for (int step = 0; step < 64; ++step) {
            ASSERT_TRUE(kv->batchCanGrow());
            for (std::uint32_t r = 0; r < 8; ++r)
                kv->growByOne(makeSlot(r, 1));
        }
        std::int64_t held = 0;
        for (std::uint32_t r = 0; r < 8; ++r) {
            held += static_cast<std::int64_t>(
                kv->blockTable(makeSlot(r, 1)).size());
        }
        ASSERT_EQ(kv->freeBlocks(), (std::int64_t{1} << 20) - held);
        pools.push_back(std::move(kv));
    }
    const std::int64_t delta = residentBytes() - before;
    EXPECT_LT(delta, std::int64_t{8} << 20)
        << "resident delta " << delta << " bytes";
    for (const auto &kv : pools)
        EXPECT_EQ(kv->capacityTokens(), kCapacity);
}

/** Property: paging serves a request larger than any contiguous
 *  hole the same release pattern leaves. */
TEST(AllocatorComparisonTest, PagingDefeatsFragmentation)
{
    // Interleave allocations and free the even ones: 800 tokens are
    // free, but in five separate 160-token (10-block) holes, so a
    // contiguous arena could not place 600. The paged manager serves
    // it from the scattered free blocks.
    KvBlockManager kv(1600, 16);
    for (RequestId id = 0; id < 10; ++id)
        ASSERT_TRUE(kv.allocate(id, 160));
    for (RequestId id = 0; id < 10; id += 2)
        kv.release(id);
    EXPECT_EQ(testfx::freeTokens(kv), 800);
    ASSERT_TRUE(kv.allocate(100, 600));
    // 38 blocks from 10-block holes: at least four of them.
    std::vector<BlockId> holes;
    for (const BlockId block : kv.blockTable(100))
        holes.push_back(block / 10);
    std::sort(holes.begin(), holes.end());
    holes.erase(std::unique(holes.begin(), holes.end()), holes.end());
    EXPECT_GE(holes.size(), 4u);
}

} // namespace
} // namespace memory
} // namespace lightllm
