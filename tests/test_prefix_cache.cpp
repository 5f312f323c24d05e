/**
 * @file
 * Shared-prefix KV subsystem tests: block hash chains, refcounted
 * copy-on-write sharing, the radix prefix cache with LRU
 * reclamation, engine-level cache hits (including eviction of
 * requests whose blocks the cache retains), the multi-turn session
 * workload, and prefix-affinity routing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "base/token_stream.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "list_walk_pool.hh"
#include "memory/kv_block_manager.hh"
#include "memory/prefix_cache.hh"
#include "test_fixtures.hh"
#include "workload/session_gen.hh"

namespace lightllm {
namespace {

using core::SchedulerConfig;
using memory::BlockId;
using memory::KvBlockManager;
using memory::PrefixCache;
using testfx::ListWalkPool;
using testfx::tinyPerf;
using workload::RequestSpec;

// --- Token-stream hash chains ------------------------------------

TEST(BlockHashChainTest, EqualStreamsShareHashes)
{
    const std::vector<PromptSegment> a{{7, 40}, {9, 40}};
    const std::vector<PromptSegment> b{{7, 40}, {9, 8}};
    const auto ha = blockHashChain(a, 16, 80);
    const auto hb = blockHashChain(b, 16, 48);
    ASSERT_EQ(ha.size(), 5u);
    ASSERT_EQ(hb.size(), 3u);
    // b is a strict prefix of a: its full blocks hash identically.
    for (std::size_t i = 0; i < hb.size(); ++i)
        EXPECT_EQ(ha[i], hb[i]) << "block " << i;
}

TEST(BlockHashChainTest, DivergenceChangesEveryLaterHash)
{
    const std::vector<PromptSegment> a{{7, 32}, {9, 32}};
    const std::vector<PromptSegment> b{{7, 32}, {8, 32}};
    const auto ha = blockHashChain(a, 16, 64);
    const auto hb = blockHashChain(b, 16, 64);
    ASSERT_EQ(ha.size(), 4u);
    ASSERT_EQ(hb.size(), 4u);
    EXPECT_EQ(ha[0], hb[0]);
    EXPECT_EQ(ha[1], hb[1]);
    EXPECT_NE(ha[2], hb[2]);  // chained: divergence sticks
    EXPECT_NE(ha[3], hb[3]);
}

TEST(BlockHashChainTest, CapExcludesPartialBlocks)
{
    const std::vector<PromptSegment> a{{7, 100}};
    EXPECT_EQ(blockHashChain(a, 16, 100).size(), 6u);  // 96 tokens
    EXPECT_EQ(blockHashChain(a, 16, 95).size(), 5u);
    EXPECT_EQ(blockHashChain(a, 16, 15).size(), 0u);
    EXPECT_EQ(blockHashChain(a, 16, 0).size(), 0u);
}

/** A random segment stream: 1-5 segments of 1-40 tokens. */
std::vector<PromptSegment>
randomStream(Rng &rng)
{
    std::vector<PromptSegment> stream;
    const auto segments = rng.uniformInt(1, 5);
    for (std::int64_t i = 0; i < segments; ++i) {
        stream.push_back(PromptSegment{
            static_cast<std::uint64_t>(rng.uniformInt(1, 1000)),
            rng.uniformInt(1, 40)});
    }
    return stream;
}

TEST(BlockHashChainTest, ResumedChainEqualsChainFromScratch)
{
    for (const TokenCount block : {1, 7, 16}) {
        Rng rng(static_cast<std::uint64_t>(block) * 7919);
        for (int trial = 0; trial < 200; ++trial) {
            const auto stream = randomStream(rng);
            TokenCount total = 0;
            for (const PromptSegment &segment : stream)
                total += segment.len;
            // Growing caps in random steps, including steps that stay
            // below the next block boundary and caps past the end.
            std::vector<PrefixHash> resumed;
            TokenCount cap = 0;
            while (cap <= total + block) {
                extendBlockHashChain(stream, block, cap, resumed);
                ASSERT_EQ(resumed, blockHashChain(stream, block, cap))
                    << "block " << block << " cap " << cap;
                cap += rng.uniformInt(0, 2 * block);
            }
            extendBlockHashChain(stream, block, total, resumed);
            ASSERT_EQ(resumed, blockHashChain(stream, block, total));
            // A smaller cap leaves the complete chain alone; its
            // prefix is the smaller chain.
            const TokenCount lower = rng.uniformInt(0, total);
            const std::vector<PrefixHash> before = resumed;
            extendBlockHashChain(stream, block, lower, resumed);
            EXPECT_EQ(resumed, before);
            const auto expected = blockHashChain(stream, block, lower);
            EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                                   resumed.begin()));
        }
    }
}

TEST(BlockHashChainTest, ResumesAcrossSegmentBoundariesAndCapsBelowBlock)
{
    // Blocks of 7 ending exactly on, and straddling, segment edges.
    const std::vector<PromptSegment> stream{{3, 7}, {4, 14}, {5, 3}};
    std::vector<PrefixHash> resumed;
    for (const TokenCount cap : {0, 6, 7, 13, 14, 21, 23, 24, 30}) {
        extendBlockHashChain(stream, 7, cap, resumed);
        EXPECT_EQ(resumed, blockHashChain(stream, 7, cap))
            << "cap " << cap;
    }
    EXPECT_EQ(resumed.size(), 3u);  // 24 tokens: 3 full blocks
}

TEST(BlockHashChainTest, ResumesAsTheOutputSegmentGrows)
{
    // Recompute re-admission: a turn's identified reply grows between
    // calls, so the stream is the prompt plus a longer output run
    // each time, and the cap moves with it.
    for (const TokenCount block : {1, 7, 16}) {
        Rng rng(static_cast<std::uint64_t>(block) + 41);
        for (int trial = 0; trial < 100; ++trial) {
            const auto prompt = randomStream(rng);
            std::vector<PrefixHash> resumed;
            TokenCount generated = 0;
            TokenCount max_cap = 0;
            for (int call = 0; call < 12; ++call) {
                generated += rng.uniformInt(0, 2 * block);
                std::vector<PromptSegment> stream = prompt;
                if (generated > 0)
                    stream.push_back(PromptSegment{999, generated});
                TokenCount total = 0;
                for (const PromptSegment &segment : stream)
                    total += segment.len;
                // Admission caps one short; insertion caps at the end
                // (so the cap may step back by one token).
                const TokenCount cap = total - rng.uniformInt(0, 1);
                max_cap = std::max(max_cap, cap);
                extendBlockHashChain(stream, block, cap, resumed);
                ASSERT_EQ(resumed,
                          blockHashChain(stream, block, max_cap))
                    << "block " << block << " generated " << generated;
            }
        }
    }
}

// The chain folds each run (one segment's part of one block) once,
// keyed by (key, offset into the segment, length).

TEST(BlockHashChainTest, BlockSpanningManySegmentsCommitsToEach)
{
    // One 16-token block over four segments.
    const std::vector<PromptSegment> stream{
        {3, 5}, {4, 4}, {5, 2}, {6, 5}, {7, 16}};
    const auto base = blockHashChain(stream, 16, 32);
    ASSERT_EQ(base.size(), 2u);
    EXPECT_EQ(base, blockHashChain(stream, 16, 32));
    // Any one run of the block changing (key or boundary) changes
    // it and every later block.
    for (std::size_t s = 0; s < 4; ++s) {
        std::vector<PromptSegment> other = stream;
        other[s].key += 100;
        const auto changed = blockHashChain(other, 16, 32);
        EXPECT_NE(changed[0], base[0]) << "segment " << s;
        EXPECT_NE(changed[1], base[1]) << "segment " << s;
    }
    std::vector<PromptSegment> moved = stream;
    moved[1].len += 1;  // the boundary of runs 2 and 3 moves
    moved[2].len -= 1;
    EXPECT_NE(blockHashChain(moved, 16, 32)[0], base[0]);
    // Resuming inside the block folds the same runs.
    std::vector<PrefixHash> resumed;
    for (const TokenCount cap : {7, 15, 16, 20, 32}) {
        extendBlockHashChain(stream, 16, cap, resumed);
        EXPECT_EQ(resumed, blockHashChain(stream, 16, cap))
            << "cap " << cap;
    }
}

TEST(BlockHashChainTest, SameKeyAtAnotherOffsetHashesDifferently)
{
    // Block 2 is key 9's tokens 8..15 in `one`, and the first 8
    // tokens of a second key-9 segment in `two`: same key, same
    // length, another offset. Blocks 0 and 1 hold the same tokens.
    const std::vector<PromptSegment> one{{1, 8}, {9, 24}};
    const std::vector<PromptSegment> two{{1, 8}, {9, 8}, {9, 16}};
    const auto a = blockHashChain(one, 8, 32);
    const auto b = blockHashChain(two, 8, 32);
    ASSERT_EQ(a.size(), 4u);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(a[0], b[0]);
    EXPECT_EQ(a[1], b[1]);
    EXPECT_NE(a[2], b[2]);
    EXPECT_NE(a[3], b[3]);
}

TEST(BlockHashChainTest, BlockSizeOneHashesEveryToken)
{
    const std::vector<PromptSegment> stream{{3, 3}, {4, 2}, {3, 3}};
    const auto hashes = blockHashChain(stream, 1, 8);
    ASSERT_EQ(hashes.size(), 8u);
    const std::set<PrefixHash> distinct(hashes.begin(), hashes.end());
    EXPECT_EQ(distinct.size(), 8u);
    // A token-identical prefix shares exactly its hashes.
    const std::vector<PromptSegment> prefix{{3, 3}, {4, 1}};
    const auto shorter = blockHashChain(prefix, 1, 8);
    ASSERT_EQ(shorter.size(), 4u);
    EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(),
                           hashes.begin()));
    std::vector<PrefixHash> resumed;
    for (TokenCount cap = 0; cap <= 8; ++cap) {
        extendBlockHashChain(stream, 1, cap, resumed);
        ASSERT_EQ(resumed, blockHashChain(stream, 1, cap))
            << "cap " << cap;
    }
}

TEST(BlockHashChainTest, RunLongerThanABlockSplitsAtEveryBoundary)
{
    // A 40-token segment over 16-token blocks: runs of 16, 16 and
    // (under a cap of 48) 8 tokens of the same key.
    const std::vector<PromptSegment> stream{{5, 40}, {6, 8}};
    const auto hashes = blockHashChain(stream, 16, 48);
    ASSERT_EQ(hashes.size(), 3u);
    EXPECT_NE(hashes[0], hashes[1]);
    EXPECT_NE(hashes[1], hashes[2]);
    // The same key split into two segments at a block boundary
    // restarts its offsets: other tokens, other hashes from there.
    const std::vector<PromptSegment> split{{5, 16}, {5, 24}, {6, 8}};
    const auto other = blockHashChain(split, 16, 48);
    EXPECT_EQ(other[0], hashes[0]);
    EXPECT_NE(other[1], hashes[1]);
    // Resuming in the middle of the long run.
    std::vector<PrefixHash> resumed;
    for (const TokenCount cap : {16, 20, 32, 40, 47, 48}) {
        extendBlockHashChain(stream, 16, cap, resumed);
        EXPECT_EQ(resumed, blockHashChain(stream, 16, cap))
            << "cap " << cap;
    }
}

// --- Session chain hand-off --------------------------------------

/** A random conversation: a system prompt, then `turns` pairs of a
 *  user message and a reply, each 1-60 tokens. */
std::vector<PromptSegment>
randomConversation(Rng &rng, int turns)
{
    std::vector<PromptSegment> conversation{PromptSegment{
        1, static_cast<TokenCount>(rng.uniformInt(1, 80))}};
    for (int t = 0; t < 2 * turns; ++t) {
        conversation.push_back(PromptSegment{
            static_cast<std::uint64_t>(100 + t),
            static_cast<TokenCount>(rng.uniformInt(1, 60))});
    }
    return conversation;
}

/** Tokens of a segment stream. */
TokenCount
streamTokens(std::span<const PromptSegment> stream)
{
    TokenCount total = 0;
    for (const PromptSegment &segment : stream)
        total += segment.len;
    return total;
}

TEST(SessionChainTest, InheritedChainResumesToTheChainFromScratch)
{
    // One engine's view of a session whose turns it serves only
    // some of (the others run elsewhere): a turn inherits the chain
    // the last turn served here finished with, grows it at the
    // admission caps (one short of the prompt, plus any recomputed
    // reply) and completes it over its finished stream, as the
    // engine does. Every chain must equal the one from scratch.
    for (const TokenCount block : {1, 7, 16}) {
        Rng rng(static_cast<std::uint64_t>(block) * 131 + 5);
        int inherited = 0;
        for (int trial = 0; trial < 100; ++trial) {
            const int turns = static_cast<int>(rng.uniformInt(2, 8));
            const auto conversation = randomConversation(rng, turns);
            std::vector<PromptSegment> memo_stream;
            std::vector<PrefixHash> memo_chain;
            for (int t = 0; t < turns; ++t) {
                if (rng.uniformInt(0, 3) == 0)
                    continue;  // this turn ran on another engine
                const std::span<const PromptSegment> prompt =
                    std::span(conversation)
                        .first(static_cast<std::size_t>(2 * t + 2));
                const PromptSegment reply =
                    conversation[static_cast<std::size_t>(2 * t + 2)];
                std::vector<PrefixHash> chain;
                if (!memo_stream.empty() &&
                    isSegmentPrefix(memo_stream, prompt)) {
                    chain.swap(memo_chain);
                    ++inherited;
                }
                std::vector<PromptSegment> stream(prompt.begin(),
                                                  prompt.end());
                // The first admission, recompute re-admissions with
                // more of the reply, and prefill-time inserts.
                for (TokenCount generated = 0;;) {
                    const TokenCount cap =
                        streamTokens(stream) - rng.uniformInt(0, 1);
                    extendBlockHashChain(stream, block, cap, chain);
                    const auto scratch =
                        blockHashChain(stream, block, cap);
                    ASSERT_GE(chain.size(), scratch.size());
                    ASSERT_TRUE(std::equal(scratch.begin(),
                                           scratch.end(),
                                           chain.begin()))
                        << "block " << block << " turn " << t;
                    if (generated == reply.len)
                        break;
                    generated = std::min<TokenCount>(
                        reply.len,
                        generated + rng.uniformInt(1, reply.len));
                    if (stream.size() == prompt.size())
                        stream.push_back(
                            PromptSegment{reply.key, generated});
                    else
                        stream.back().len = generated;
                }
                // The finish completes the chain over the stream.
                extendBlockHashChain(stream, block,
                                     streamTokens(stream), chain);
                ASSERT_EQ(chain, blockHashChain(stream, block,
                                                streamTokens(stream)))
                    << "block " << block << " turn " << t;
                memo_stream = stream;
                memo_chain.swap(chain);
            }
        }
        EXPECT_GT(inherited, 100) << "block " << block;
    }
}

TEST(SessionChainTest, OnlySegmentWisePrefixesAreInherited)
{
    const std::vector<PromptSegment> next_turn{
        {1, 64}, {100, 20}, {101, 30}, {102, 10}};
    // The previous turn's stream: its prompt plus its 30-token reply.
    const std::vector<PromptSegment> stored{{1, 64}, {100, 20},
                                            {101, 30}};
    EXPECT_TRUE(isSegmentPrefix(stored, next_turn));
    EXPECT_TRUE(isSegmentPrefix(next_turn, next_turn));
    EXPECT_TRUE(isSegmentPrefix({}, next_turn));

    // A different reply length, even a token-wise prefix.
    EXPECT_FALSE(isSegmentPrefix(
        std::vector<PromptSegment>{{1, 64}, {100, 20}, {101, 29}},
        next_turn));
    EXPECT_FALSE(isSegmentPrefix(
        std::vector<PromptSegment>{{1, 64}, {100, 20}, {101, 31}},
        next_turn));
    // A different key.
    EXPECT_FALSE(isSegmentPrefix(
        std::vector<PromptSegment>{{1, 64}, {100, 20}, {199, 30}},
        next_turn));
    // An extra segment.
    std::vector<PromptSegment> longer = next_turn;
    longer.push_back(PromptSegment{103, 5});
    EXPECT_FALSE(isSegmentPrefix(longer, next_turn));
    EXPECT_FALSE(isSegmentPrefix(
        std::vector<PromptSegment>{{1, 64}, {100, 20}, {55, 4},
                                   {101, 30}},
        next_turn));
}

// --- Copy-on-write sharing in the block manager ------------------

TEST(KvSharingTest, SharedBlocksCountPhysicallyOnce)
{
    KvBlockManager kv(1024, 16);
    ASSERT_TRUE(kv.allocate(1, 64));  // 4 full blocks
    const std::vector<BlockId> prefix(kv.blockTable(1).begin(),
                                      kv.blockTable(1).begin() + 3);
    ASSERT_TRUE(kv.allocateShared(2, 64, prefix));
    EXPECT_EQ(kv.requestTokens(2), 64);
    EXPECT_EQ(kv.requestSharedTokens(2), 48);
    // 64 + only the 16 private tokens of request 2.
    EXPECT_EQ(kv.usedTokens(), 80);
    EXPECT_EQ(kv.requestRefs(prefix[0]), 2);
    // Request 2's table is [shared..., private].
    EXPECT_EQ(kv.blockTable(2).size(), 4u);
    EXPECT_EQ(kv.blockTable(2)[0], prefix[0]);

    kv.release(2);
    EXPECT_EQ(kv.requestRefs(prefix[0]), 1);
    EXPECT_EQ(kv.usedTokens(), 64);
    kv.release(1);
    EXPECT_EQ(kv.usedTokens(), 0);
    EXPECT_EQ(kv.freeBlocks(), 64);
}

TEST(KvSharingTest, FullySharedAllocationRejected)
{
    KvBlockManager kv(1024, 16);
    ASSERT_TRUE(kv.allocate(1, 32));
    const std::vector<BlockId> prefix = kv.blockTable(1);
    // 32 tokens over 2 shared blocks leaves no private block.
    EXPECT_FALSE(kv.allocateShared(2, 32, prefix));
    EXPECT_EQ(kv.numRequests(), 1u);
    EXPECT_EQ(kv.requestRefs(prefix[0]), 1);
}

TEST(PrefixCacheTest, ReleaseParksCachedBlocksUntilReclaim)
{
    KvBlockManager kv(128, 16);  // 8 blocks
    PrefixCache cache(kv);
    kv.attachPrefixCache(&cache);

    ASSERT_TRUE(kv.allocate(1, 64));  // 4 blocks
    const std::vector<PromptSegment> stream{{42, 64}};
    const auto hashes = blockHashChain(stream, 16, 64);
    cache.insert(hashes, kv.blockTable(1));
    EXPECT_EQ(cache.size(), 4u);

    kv.release(1);
    // Cached blocks are parked, not freed: reclaimable on demand.
    EXPECT_EQ(kv.freeBlocks(), 4);
    EXPECT_EQ(kv.reclaimableBlocks(), 4);
    EXPECT_EQ(kv.usedTokens(), 0);

    // A later identical stream still matches...
    std::vector<BlockId> matched;
    EXPECT_EQ(cache.match(hashes, matched), 4u);

    // ...and a big allocation reclaims the parked blocks: 8 blocks
    // are available even though only 4 are on the free list.
    EXPECT_TRUE(testfx::canAllocate(kv, 128));
    ASSERT_TRUE(kv.allocate(2, 128));
    EXPECT_EQ(cache.size(), 0u);  // all reclaimed
    kv.release(2);
    EXPECT_EQ(kv.freeBlocks(), 8);
}

TEST(PrefixCacheTest, ReclaimSkipsRequestReferencedBlocks)
{
    KvBlockManager kv(128, 16);  // 8 blocks
    PrefixCache cache(kv);
    kv.attachPrefixCache(&cache);

    ASSERT_TRUE(kv.allocate(1, 64));  // 4 blocks
    const std::vector<PromptSegment> stream{{42, 64}};
    const auto hashes = blockHashChain(stream, 16, 64);
    cache.insert(hashes, kv.blockTable(1));

    // Request 1 still references its blocks: nothing reclaimable.
    EXPECT_EQ(kv.reclaimableBlocks(), 0);
    EXPECT_EQ(cache.reclaim(4), 0);
    EXPECT_EQ(cache.size(), 4u);

    // 4 free blocks remain; a 5-block allocation must fail while
    // the cached blocks are pinned by request 1.
    EXPECT_FALSE(testfx::canAllocate(kv, 80));
    EXPECT_FALSE(kv.allocate(2, 80));

    kv.release(1);
    EXPECT_TRUE(kv.allocate(2, 80));  // now reclaims one block
    EXPECT_EQ(cache.size(), 3u);
}

TEST(PrefixCacheTest, LruOrderGovernsReclamation)
{
    KvBlockManager kv(128, 16);
    PrefixCache cache(kv);
    kv.attachPrefixCache(&cache);

    ASSERT_TRUE(kv.allocate(1, 32));  // blocks A
    ASSERT_TRUE(kv.allocate(2, 32));  // blocks B
    const auto hashes_a =
        blockHashChain(std::vector<PromptSegment>{{1, 32}}, 16, 32);
    const auto hashes_b =
        blockHashChain(std::vector<PromptSegment>{{2, 32}}, 16, 32);
    cache.insert(hashes_a, kv.blockTable(1));
    cache.insert(hashes_b, kv.blockTable(2));
    kv.release(1);
    kv.release(2);

    // Touch A: B becomes the LRU stream.
    std::vector<BlockId> matched;
    cache.match(hashes_a, matched);
    EXPECT_EQ(cache.reclaim(2), 2);
    matched.clear();
    EXPECT_EQ(cache.match(hashes_a, matched), 2u);  // A survives
    EXPECT_EQ(cache.peek(hashes_b), 0u);            // B is gone
}

TEST(PrefixCacheTest, FirstInsertionWinsOnDuplicateContent)
{
    KvBlockManager kv(128, 16);
    PrefixCache cache(kv);
    kv.attachPrefixCache(&cache);

    ASSERT_TRUE(kv.allocate(1, 32));
    ASSERT_TRUE(kv.allocate(2, 32));  // same content, other blocks
    const auto hashes =
        blockHashChain(std::vector<PromptSegment>{{5, 32}}, 16, 32);
    cache.insert(hashes, kv.blockTable(1));
    cache.insert(hashes, kv.blockTable(2));
    EXPECT_EQ(cache.size(), 2u);

    std::vector<BlockId> matched;
    ASSERT_EQ(cache.match(hashes, matched), 2u);
    EXPECT_EQ(matched[0], kv.blockTable(1)[0]);
    // Request 2's identical blocks were not retained: releasing it
    // frees them instead of parking them in the cache.
    const std::int64_t free_before = kv.freeBlocks();
    const std::int64_t parked_before = kv.reclaimableBlocks();
    kv.release(2);
    EXPECT_EQ(kv.freeBlocks(), free_before + 2);
    EXPECT_EQ(kv.reclaimableBlocks(), parked_before);
}

TEST(PrefixCacheTest, LinkedReinsertRefreshesLikeAProbe)
{
    KvBlockManager kv(128, 16);
    PrefixCache cache(kv);
    kv.attachPrefixCache(&cache);

    const auto hashes_a =
        blockHashChain(std::vector<PromptSegment>{{1, 32}}, 16, 32);
    const auto hashes_b =
        blockHashChain(std::vector<PromptSegment>{{2, 32}}, 16, 32);
    ASSERT_TRUE(kv.allocate(1, 32));
    ASSERT_TRUE(kv.allocate(2, 32));
    cache.insert(hashes_a, kv.blockTable(1));
    cache.insert(hashes_b, kv.blockTable(2));
    kv.release(2);

    // Request 1 republishes its own cached blocks (a finishing turn
    // re-inserting the prompt it published at prefill): nothing new
    // is cached, but A becomes the most recent, so B goes first.
    cache.insert(hashes_a, kv.blockTable(1));
    EXPECT_EQ(cache.size(), 4u);
    kv.release(1);
    EXPECT_EQ(cache.reclaim(2), 2);
    EXPECT_EQ(cache.peek(hashes_a), 2u);
    EXPECT_EQ(cache.peek(hashes_b), 0u);
}

/**
 * The flat hash index under adversarial keys: the hashes of group 0
 * all have the last slot as their home, in every table size, so
 * their probe run wraps past the table end into slot 0 — the shared
 * home of every group-1 hash. Inserts grow the table while that run
 * wraps; LRU reclaims erase from the front and the middle of runs
 * (matches reorder recency). After every step each live hash
 * matches and each reclaimed one misses.
 */
TEST(PrefixCacheTest, FlatIndexSurvivesCollidingWrappedRuns)
{
    constexpr std::size_t kBlocks = 400;
    constexpr std::size_t kLargest = 1024;  // beyond the last growth
    KvBlockManager kv(static_cast<TokenCount>(kBlocks), 1);
    PrefixCache cache(kv);
    kv.attachPrefixCache(&cache);

    // A hash's home in a smaller power-of-two table is its home in
    // the largest one, scaled down; both targets stay put.
    using Index = FlatIdTable<std::uint32_t>;  // the cache's index
    std::vector<std::vector<PrefixHash>> groups(2);
    const std::size_t targets[2] = {kLargest - 1, 0};
    for (PrefixHash candidate = 1;
         groups[0].size() < kBlocks || groups[1].size() < kBlocks;
         ++candidate) {
        for (std::size_t g = 0; g < 2; ++g) {
            if (groups[g].size() < kBlocks &&
                Index::home(candidate, kLargest) == targets[g]) {
                ASSERT_EQ(Index::home(candidate, 64),
                          g == 0 ? 63u : 0u);
                groups[g].push_back(candidate);
            }
        }
    }

    // Reference recency: the cache stamps every insert and match.
    std::map<PrefixHash, std::uint64_t> live;
    std::vector<PrefixHash> reclaimed;
    std::uint64_t clock = 0;
    std::uint32_t generation = 0;
    std::size_t next[2] = {0, 0};

    auto check = [&](const char *step) {
        ASSERT_EQ(cache.size(), live.size()) << step;
        for (const auto &[hash, stamp] : live) {
            ASSERT_EQ(cache.peek(std::span(&hash, 1)), 1u)
                << step << ": live hash " << hash << " missing";
        }
        for (const PrefixHash hash : reclaimed) {
            ASSERT_EQ(cache.peek(std::span(&hash, 1)), 0u)
                << step << ": reclaimed hash " << hash << " matched";
        }
    };
    // Cache `count` new hashes alternating between the groups, each
    // on its own one-token block, then park them.
    auto insert = [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t g = i % 2;
            const PrefixHash hash = groups[g][next[g]++];
            const RequestSlot slot = makeSlot(0, generation++);
            ASSERT_TRUE(kv.allocate(slot, 1));
            cache.insert(std::span(&hash, 1), kv.blockTable(slot));
            kv.release(slot);
            live[hash] = ++clock;
        }
    };
    // Reclaim the `count` least recently used hashes.
    auto reclaim = [&](std::int64_t count) {
        ASSERT_EQ(cache.reclaim(count), count);
        for (std::int64_t i = 0; i < count; ++i) {
            const auto oldest = std::min_element(
                live.begin(), live.end(),
                [](const auto &a, const auto &b) {
                    return a.second < b.second;
                });
            reclaimed.push_back(oldest->first);
            live.erase(oldest);
        }
    };
    auto touch = [&](std::size_t g, std::size_t from,
                     std::size_t count) {
        std::vector<BlockId> matched;
        for (std::size_t i = from; i < from + count; ++i) {
            const PrefixHash hash = groups[g][i];
            ASSERT_EQ(cache.match(std::span(&hash, 1), matched), 1u);
            live[hash] = ++clock;
        }
    };

    insert(30);  // one wrapped run of 30 in the 64-slot table
    check("wrapped run");
    EXPECT_EQ(cache.indexSlots(), 64u);
    insert(20);  // grows to 128 while the run wraps
    check("growth");
    EXPECT_EQ(cache.indexSlots(), 128u);

    // Make the first few of each group the newest: the LRU ones now
    // sit in the middle of the run.
    touch(0, 0, 4);
    touch(1, 0, 4);
    reclaim(6);
    check("erase mid-run");
    reclaim(10);
    check("erase more");

    insert(120);  // grows to 256 and 512 while runs wrap
    check("regrowth");
    EXPECT_EQ(cache.indexSlots(), 512u);
    touch(0, 40, 10);
    reclaim(50);
    check("reclaim after regrowth");
    insert(60);
    check("refill");
    reclaim(static_cast<std::int64_t>(live.size()));
    check("empty");
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(kv.freeBlocks(), static_cast<std::int64_t>(kBlocks));
}

// --- Differential reclaim against the list-walk reference ---------

/**
 * Random admissions (match, then allocateShared — failures still
 * touch the LRU), extensions, releases, inserts and explicit
 * reclaims on a small pool under constant pressure. After every
 * operation the real manager and cache must agree with the
 * list-walk reference on every counter and every block table; an
 * explicit reclaim is followed by a probe allocation of exactly the
 * reclaimed blocks, whose table is the reclaim sequence reversed
 * (the free list is LIFO), and implicit reclaims show up the same
 * way in the table of the allocation that triggered them.
 */
TEST(PrefixCacheTest, ReclaimMatchesListWalkReference)
{
    constexpr TokenCount kBlock = 4;
    constexpr TokenCount kCapacity = 64 * kBlock;
    constexpr RequestId kProbe = 1'000'000;

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed);
        KvBlockManager kv(kCapacity, kBlock);
        PrefixCache cache(kv);
        kv.attachPrefixCache(&cache);
        ListWalkPool ref(kCapacity, kBlock);

        // Streams sharing a few system prompts, so prefixes overlap.
        std::vector<std::vector<PromptSegment>> streams;
        for (std::uint64_t s = 0; s < 12; ++s) {
            streams.push_back(
                {PromptSegment{1 + s % 3, rng.uniformInt(4, 24)},
                 PromptSegment{100 + s, rng.uniformInt(1, 40)}});
        }
        struct Live
        {
            RequestId id;
            std::size_t stream;
        };
        std::vector<Live> live;
        RequestId next_id = 1;
        std::int64_t explicit_reclaims = 0;
        int failed_after_match = 0;

        auto check_tables = [&]() {
            for (const Live &request : live) {
                ASSERT_EQ(kv.blockTable(request.id),
                          ref.table(request.id))
                    << "request " << request.id;
            }
        };

        for (int op = 0; op < 2000; ++op) {
            const auto dice = rng.uniformInt(0, 99);
            if (dice < 35 || live.empty()) {
                // Admission: match (touching the LRU), then allocate
                // the prompt plus a slot, sharing the matched blocks.
                const auto stream = static_cast<std::size_t>(
                    rng.uniformInt(0, 11));
                const TokenCount tokens = rng.uniformInt(1, 72);
                const auto hashes = blockHashChain(
                    streams[stream], kBlock, tokens - 1);
                std::vector<BlockId> got;
                std::vector<BlockId> want;
                ASSERT_EQ(cache.match(hashes, got),
                          ref.match(hashes, want));
                ASSERT_EQ(got, want);
                const RequestId id = next_id++;
                const bool ok = kv.allocateShared(id, tokens, got);
                ASSERT_EQ(ok, ref.allocateShared(id, tokens, want));
                if (ok)
                    live.push_back(Live{id, stream});
                else if (!got.empty())
                    ++failed_after_match;
            } else if (dice < 60) {
                const Live &request = live[static_cast<std::size_t>(
                    rng.uniformInt(0, live.size() - 1))];
                const TokenCount tokens = rng.uniformInt(1, 3 * kBlock);
                ASSERT_EQ(kv.extend(request.id, tokens),
                          ref.extend(request.id, tokens));
            } else if (dice < 75) {
                const auto at = static_cast<std::size_t>(
                    rng.uniformInt(0, live.size() - 1));
                kv.release(live[at].id);
                ref.release(live[at].id);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(at));
            } else if (dice < 90) {
                // Publish the full blocks the request's stream covers.
                const Live &request = live[static_cast<std::size_t>(
                    rng.uniformInt(0, live.size() - 1))];
                const auto &table = kv.blockTable(request.id);
                const auto hashes = blockHashChain(
                    streams[request.stream], kBlock,
                    kv.requestTokens(request.id));
                const std::size_t count =
                    std::min(hashes.size(), table.size());
                const std::vector<BlockId> blocks(
                    table.begin(),
                    table.begin() +
                        static_cast<std::ptrdiff_t>(count));
                cache.insert(std::span(hashes).first(count), blocks);
                ref.insert(std::span(hashes).first(count), blocks);
            } else {
                const std::int64_t count = rng.uniformInt(0, 4);
                const std::vector<BlockId> want = ref.reclaim(count);
                ASSERT_EQ(cache.reclaim(count),
                          static_cast<std::int64_t>(want.size()));
                explicit_reclaims +=
                    static_cast<std::int64_t>(want.size());
                if (!want.empty()) {
                    const auto tokens =
                        static_cast<TokenCount>(want.size()) * kBlock;
                    ASSERT_TRUE(kv.allocate(kProbe, tokens));
                    ASSERT_TRUE(ref.allocateShared(kProbe, tokens, {}));
                    const std::vector<BlockId> reversed(want.rbegin(),
                                                        want.rend());
                    ASSERT_EQ(kv.blockTable(kProbe), reversed);
                    ASSERT_EQ(ref.table(kProbe), reversed);
                    kv.release(kProbe);
                    ref.release(kProbe);
                }
            }
            ASSERT_EQ(kv.freeBlocks(), ref.freeBlocks()) << "op " << op;
            ASSERT_EQ(kv.reclaimableBlocks(), ref.reclaimableBlocks())
                << "op " << op;
            ASSERT_EQ(kv.usedTokens(), ref.usedTokens()) << "op " << op;
            ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
            check_tables();
            if (HasFatalFailure())
                return;
        }
        // The run really exercised every reclaim path.
        EXPECT_GT(explicit_reclaims, 0);
        EXPECT_GT(ref.reclaimed() - explicit_reclaims, 0);
        EXPECT_GT(failed_after_match, 0);
    }
}

/**
 * The engine's deferred refresh against the eager reference: random
 * admissions through allocateMatched (whose touches wait for the
 * release, or land at once when the allocation fails), swap-in
 * admissions with no sharing, decode growth, publications through
 * insertHeld (prefill and finish inserts, which skip the linked run
 * the allocation holds), releases (finish, swap or recompute
 * eviction) and explicit reclaims, on a small pool under constant
 * pressure. The list-walk reference touches every matched block and
 * refreshes every inserted position at once, as insert() does; the
 * manager and cache must agree with it on every counter, every block
 * table and every reclaimed block id after every operation.
 */
TEST(PrefixCacheTest, DeferredRefreshMatchesEagerReference)
{
    constexpr TokenCount kBlock = 4;
    constexpr TokenCount kCapacity = 64 * kBlock;
    constexpr RequestId kProbe = 1'000'000;

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed + 100);
        KvBlockManager kv(kCapacity, kBlock);
        PrefixCache cache(kv);
        kv.attachPrefixCache(&cache);
        ListWalkPool ref(kCapacity, kBlock);

        std::vector<std::vector<PromptSegment>> streams;
        for (std::uint64_t s = 0; s < 12; ++s) {
            streams.push_back(
                {PromptSegment{1 + s % 3, rng.uniformInt(4, 24)},
                 PromptSegment{100 + s, rng.uniformInt(1, 40)},
                 PromptSegment{200 + s, rng.uniformInt(1, 40)}});
        }
        struct Live
        {
            RequestId id;
            std::size_t stream;
            /** Admitted sharing matched blocks. */
            bool matched;
        };
        std::vector<Live> live;
        RequestId next_id = 1;
        std::int64_t explicit_reclaims = 0;
        int failed_after_match = 0;
        int refused_after_match = 0;
        std::size_t deferred = 0;

        auto pick = [&]() -> Live & {
            return live[static_cast<std::size_t>(
                rng.uniformInt(0, live.size() - 1))];
        };

        for (int op = 0; op < 2000; ++op) {
            const auto dice = rng.uniformInt(0, 99);
            if (dice < 30 || live.empty()) {
                // Admission: match one token short of the prompt and
                // allocate it plus a slot, as the engine does. One in
                // ten asks for the matched blocks' tokens alone and
                // one in ten for a live slot: both are turned down
                // before any block is held.
                const auto stream = static_cast<std::size_t>(
                    rng.uniformInt(0, 11));
                const TokenCount prompt = rng.uniformInt(1, 72);
                const auto hashes = blockHashChain(
                    streams[stream], kBlock, prompt - 1);
                const auto shape = rng.uniformInt(0, 9);
                RequestId id = next_id++;
                TokenCount tokens = prompt + 1;
                if (shape == 0)
                    tokens = static_cast<TokenCount>(hashes.size()) * kBlock;
                else if (shape == 1 && !live.empty())
                    id = pick().id;
                const std::int64_t got =
                    cache.allocateMatched(id, tokens, hashes);
                std::vector<BlockId> want;
                ref.match(hashes, want);
                const bool ok = ref.allocateShared(id, tokens, want);
                ASSERT_EQ(got >= 0, ok);
                if (ok) {
                    ASSERT_EQ(static_cast<std::size_t>(got),
                              want.size());
                    live.push_back(Live{id, stream, !want.empty()});
                } else if (!want.empty()) {
                    ++failed_after_match;
                    refused_after_match += shape <= 1;
                }
            } else if (dice < 38) {
                // Swap-in: the KV comes back whole, nothing shared.
                const TokenCount tokens = rng.uniformInt(1, 72);
                const RequestId id = next_id++;
                const bool ok = kv.allocate(id, tokens);
                ASSERT_EQ(ok, ref.allocateShared(id, tokens, {}));
                if (ok) {
                    live.push_back(Live{
                        id,
                        static_cast<std::size_t>(rng.uniformInt(0, 11)),
                        false});
                }
            } else if (dice < 58) {
                const Live &request = pick();
                const TokenCount tokens = rng.uniformInt(1, 3 * kBlock);
                ASSERT_EQ(kv.extend(request.id, tokens),
                          ref.extend(request.id, tokens));
            } else if (dice < 80) {
                // A prefill or finish insert over the full blocks the
                // request's stream covers.
                const Live &request = pick();
                const std::vector<BlockId> table =
                    kv.blockTable(request.id);
                const auto hashes = blockHashChain(
                    streams[request.stream], kBlock,
                    kv.requestTokens(request.id));
                const std::size_t count =
                    std::min(hashes.size(), table.size());
                deferred += request.matched;
                cache.insertHeld(request.id, std::span(hashes).first(count));
                ref.insert(std::span(hashes).first(count),
                           std::span(table).first(count));
            } else if (dice < 92) {
                // Finish or eviction: the references drop.
                const auto at = static_cast<std::size_t>(
                    rng.uniformInt(0, live.size() - 1));
                kv.release(live[at].id);
                ref.release(live[at].id);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(at));
            } else {
                const std::int64_t count = rng.uniformInt(0, 4);
                const std::vector<BlockId> want = ref.reclaim(count);
                ASSERT_EQ(cache.reclaim(count),
                          static_cast<std::int64_t>(want.size()));
                explicit_reclaims +=
                    static_cast<std::int64_t>(want.size());
                if (!want.empty()) {
                    // The free list is LIFO: a probe allocation of
                    // exactly the reclaimed blocks takes them back in
                    // reverse reclaim order.
                    const auto tokens =
                        static_cast<TokenCount>(want.size()) * kBlock;
                    ASSERT_TRUE(kv.allocate(kProbe, tokens));
                    ASSERT_TRUE(ref.allocateShared(kProbe, tokens, {}));
                    const std::vector<BlockId> reversed(want.rbegin(),
                                                        want.rend());
                    ASSERT_EQ(kv.blockTable(kProbe), reversed);
                    kv.release(kProbe);
                    ref.release(kProbe);
                }
            }
            ASSERT_EQ(kv.freeBlocks(), ref.freeBlocks()) << "op " << op;
            ASSERT_EQ(kv.reclaimableBlocks(), ref.reclaimableBlocks())
                << "op " << op;
            ASSERT_EQ(kv.usedTokens(), ref.usedTokens()) << "op " << op;
            ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
            for (const Live &request : live) {
                ASSERT_EQ(kv.blockTable(request.id),
                          ref.table(request.id))
                    << "op " << op << " request " << request.id;
            }
        }
        // Every deferred path ran: held refreshes, failed matched
        // admissions and both kinds of reclaim.
        EXPECT_GT(deferred, 0u);
        EXPECT_GT(failed_after_match, 0);
        EXPECT_GT(refused_after_match, 0);
        EXPECT_GT(explicit_reclaims, 0);
        EXPECT_GT(ref.reclaimed() - explicit_reclaims, 0);
    }
}

/** A cache destroyed under live allocations takes its deferred
 *  refreshes with it: the manager releases their blocks without a
 *  cache, straight to the free list. */
TEST(PrefixCacheTest, ReleaseAfterTheCacheIsGoneFreesEveryBlock)
{
    constexpr TokenCount kBlock = 4;
    KvBlockManager kv(16 * kBlock, kBlock);
    const std::vector<PromptSegment> stream{PromptSegment{7, 40}};
    const auto hashes = blockHashChain(stream, kBlock, 39);
    ASSERT_EQ(hashes.size(), 9u);
    {
        PrefixCache cache(kv);
        kv.attachPrefixCache(&cache);
        // Publish the chain and park it; then a request matches it
        // and republishes it, holding a deferred refresh when the
        // cache goes.
        ASSERT_EQ(cache.allocateMatched(1, 41, hashes), 0);
        cache.insertHeld(1, hashes);
        kv.release(1);
        ASSERT_EQ(kv.reclaimableBlocks(), 9);
        ASSERT_EQ(cache.allocateMatched(2, 41, hashes), 9);
        cache.insertHeld(2, hashes);
    }
    EXPECT_EQ(kv.reclaimableBlocks(), 0);
    kv.release(2);
    EXPECT_EQ(kv.freeBlocks(), 16);
    EXPECT_EQ(kv.usedTokens(), 0);
}

// --- Engine integration ------------------------------------------

/** A request whose prompt content is one identified segment. */
RequestSpec
taggedRequest(RequestId id, std::uint64_t key, TokenCount input,
              TokenCount output, TokenCount max_new = 4096)
{
    RequestSpec spec =
        testfx::makeRequest(id, input, output, max_new);
    spec.segments = {PromptSegment{key, input}};
    return spec;
}

TEST(EnginePrefixTest, LaterSamePrefixAdmissionHitsCache)
{
    engine::EngineConfig config;
    config.prefixCache = true;
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()), config);

    engine.submitAt(taggedRequest(1, 77, 64, 8), 0);
    engine.submitAt(taggedRequest(2, 77, 64, 8),
                    secondsToTicks(2.0));
    const auto report = engine.run();

    EXPECT_EQ(report.numFinished, 2u);
    EXPECT_EQ(report.prefixLookups, 2);
    // Request 2 reuses request 1's prompt blocks: 3 of its 4 full
    // blocks (the last prompt token is always re-prefilled).
    EXPECT_EQ(report.prefixHitTokens, 48);
    EXPECT_EQ(report.prefixPromptTokens, 128);
    // Only the uncached suffix was prefilled.
    EXPECT_EQ(report.totalPrefillTokens, 64 + 16);
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
}

TEST(EnginePrefixTest, DifferentContentNeverMatches)
{
    engine::EngineConfig config;
    config.prefixCache = true;
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()), config);

    engine.submitAt(taggedRequest(1, 77, 64, 8), 0);
    engine.submitAt(taggedRequest(2, 78, 64, 8),
                    secondsToTicks(2.0));
    const auto report = engine.run();
    EXPECT_EQ(report.prefixHitTokens, 0);
    EXPECT_EQ(report.totalPrefillTokens, 128);
}

TEST(EnginePrefixTest, EvictedSharerDecrefsAndRematchesOnReadmit)
{
    // Tiny pool: request 1 and the same-content request 2 cannot
    // both finish resident, so request 2 is evicted while its
    // shared prefix blocks are cache-retained (and referenced by
    // request 1). Eviction must only drop references — request 1
    // keeps decoding over those blocks — and request 2's recompute
    // admission must hit the cache again.
    engine::EngineConfig config;
    config.prefixCache = true;
    engine::ServingEngine engine(
        tinyPerf(1.0),  // 672-token pool
        core::makeSchedulingPolicy(SchedulerConfig::aggressive(1.0)),
        config);

    engine.submitAt(taggedRequest(1, 77, 64, 500, 500), 0);
    engine.submitAt(taggedRequest(2, 77, 64, 500, 500),
                    secondsToTicks(0.5));
    const auto report = engine.run();

    EXPECT_EQ(report.numFinished, 2u);
    EXPECT_GE(report.evictionEvents, 1);
    // Eviction did not corrupt shared state: both requests
    // completed their full generations and all memory returned.
    EXPECT_EQ(report.totalOutputTokens, 1000);
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
    // First admission of request 2 hit 3 blocks (48 tokens); every
    // post-eviction recompute admission re-matched at least the
    // full 4-block prompt (64 tokens).
    EXPECT_GE(report.prefixLookups, 3);
    EXPECT_GE(report.prefixHitTokens, 48 + 64);

    // The cache survives the run with its entries intact: with
    // every request released, each cached block is parked.
    EXPECT_GT(engine.kvManager().reclaimableBlocks(), 0);
}

TEST(EnginePrefixTest, ReadmittedTurnSharesItsOwnCachedReply)
{
    // A session turn names its reply's content (outputKey), so the
    // blocks cached when its prefill completes cover generated
    // tokens too: with a 63-token prompt the fourth block holds the
    // first reply token. The recompute admission after an eviction
    // matches that block, so the shared prefix exceeds the prompt.
    // The Eq. 2 resident term (prompt + generated - shared) stays
    // non-negative and the run completes.
    engine::EngineConfig config;
    config.prefixCache = true;
    engine::ServingEngine engine(
        tinyPerf(1.0),  // 672-token pool
        core::makeSchedulingPolicy(SchedulerConfig::aggressive(1.0)),
        config);

    for (RequestId id = 1; id <= 2; ++id) {
        RequestSpec spec = taggedRequest(id, 70 + id, 63, 500, 500);
        spec.outputKey = 90 + id;
        engine.submitAt(spec, 0);
    }
    const auto report = engine.run();

    EXPECT_EQ(report.numFinished, 2u);
    EXPECT_GE(report.evictionEvents, 1);
    EXPECT_EQ(report.totalOutputTokens, 1000);
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
    // Nothing is cached at the first admissions; every recompute
    // admission re-matched at least the four blocks past the prompt.
    EXPECT_GE(report.prefixHitTokens, 64 * report.evictionEvents);
}

TEST(EnginePrefixTest, SplitFusePrefillsOnlyUncachedSuffix)
{
    engine::EngineConfig config;
    config.prefixCache = true;
    config.splitFuseChunk = 32;
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()), config);

    engine.submitAt(taggedRequest(1, 77, 128, 8), 0);
    engine.submitAt(taggedRequest(2, 77, 128, 8),
                    secondsToTicks(2.0));
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 2u);
    // Request 2 re-prefills only its uncached suffix: 128 + 16.
    EXPECT_EQ(report.prefixHitTokens, 112);
    EXPECT_EQ(report.totalPrefillTokens, 144);
}

/** A session turn: prompt `segments`, a named reply. */
RequestSpec
sessionTurn(RequestId id, std::vector<PromptSegment> segments,
            std::uint64_t output_key, TokenCount output,
            std::uint64_t session)
{
    RequestSpec spec = testfx::makeRequest(
        id, streamTokens(segments), output, 4096);
    spec.segments = std::move(segments);
    spec.outputKey = output_key;
    spec.sessionKey = session;
    return spec;
}

TEST(EnginePrefixTest, SessionTurnInheritsOnlyAPrefixChain)
{
    // Turn 1 finishes and hands its chain to the session memo; a
    // second turn takes it on arrival only when turn 1's stream
    // (prompt, then its 30-token reply) is a segment-wise prefix of
    // its prompt. Either way its final chain is the one from
    // scratch, which the memo then holds.
    const std::vector<PromptSegment> turn1{{1, 64}, {100, 20}};
    const std::vector<PromptSegment> stored{{1, 64}, {100, 20},
                                            {101, 30}};
    struct Case
    {
        const char *name;
        std::vector<PromptSegment> prompt;
        std::uint64_t session;
        bool inherits;
    };
    const std::vector<Case> cases{
        {"next turn", {{1, 64}, {100, 20}, {101, 30}, {102, 10}}, 9,
         true},
        {"reply length", {{1, 64}, {100, 20}, {101, 29}, {102, 10}},
         9, false},
        {"reply key", {{1, 64}, {100, 20}, {191, 30}, {102, 10}}, 9,
         false},
        {"extra segment", {{1, 64}, {100, 20}}, 9, false},
        {"other session", {{1, 64}, {100, 20}, {101, 30}, {102, 10}},
         8, false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        engine::EngineConfig config;
        config.prefixCache = true;
        engine::ServingEngine engine(
            tinyPerf(8.0),
            core::makeSchedulingPolicy(SchedulerConfig::oracle()),
            config);
        engine.submitAt(sessionTurn(1, turn1, 101, 30, 9), 0);
        while (engine.numFinished() < 1)
            ASSERT_TRUE(engine.stepOnce());
        const auto chain1 = blockHashChain(stored, 16, 114);
        ASSERT_EQ(chain1.size(), 7u);
        ASSERT_TRUE(
            std::ranges::equal(engine.sessionChain(9), chain1));

        engine.submitAt(sessionTurn(2, c.prompt, 103, 12, c.session),
                        engine.report().makespan);
        ASSERT_TRUE(engine.stepOnce());  // delivers the arrival
        EXPECT_EQ(engine.sessionChain(9).empty(), c.inherits);
        while (engine.stepOnce()) {
        }
        ASSERT_EQ(engine.numFinished(), 2u);

        std::vector<PromptSegment> stream2 = c.prompt;
        stream2.push_back(PromptSegment{103, 12});
        const auto chain2 =
            blockHashChain(stream2, 16, streamTokens(stream2));
        EXPECT_TRUE(std::ranges::equal(
            engine.sessionChain(c.session), chain2));
        if (c.session != 9) {
            EXPECT_TRUE(
                std::ranges::equal(engine.sessionChain(9), chain1));
        }
    }
}

TEST(EnginePrefixTest, SessionChainMemoHoldsOnePerFinishedSession)
{
    // Round-robin routing scatters every session's turns over the
    // fleet, so an engine's memo goes stale and misses. After the
    // run each engine holds exactly one chain per session that
    // finished a turn there: the chain of the last such turn.
    workload::SessionWorkloadConfig config;
    config.numSessions = 12;
    config.turnsPerSession = 5;
    config.systemPromptTokens = 64;
    config.seed = 3;

    engine::EngineConfig engine_config;
    engine_config.prefixCache = true;
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    std::vector<const engine::ServingEngine *> views;
    for (int i = 0; i < 3; ++i) {
        engines.push_back(std::make_unique<engine::ServingEngine>(
            tinyPerf(64.0),
            core::makeSchedulingPolicy(
                SchedulerConfig::pastFutureDefault(0.03)),
            engine_config));
        views.push_back(engines.back().get());
    }
    sim::SimContext context;
    cluster::ServingCluster fleet(std::move(engines),
                                  cluster::RoutingPolicy::RoundRobin,
                                  context);
    testfx::RoutedLog routed_log;
    fleet.recordSubmissions(&routed_log);
    workload::SessionGenerator sessions(config, fleet);
    fleet.setOnFinish([&](const RequestSpec &spec, Tick tick) {
        sessions.onRequestFinished(spec.id, tick);
    });
    sessions.start();
    ASSERT_EQ(fleet.run().numFinished, 60u);

    // The last turn of each session each instance served (a
    // session's turns are submitted in order).
    std::vector<std::map<std::uint64_t, RequestSpec>> last(3);
    std::set<std::uint64_t> session_keys;
    for (const auto &routed : routed_log) {
        last[routed.instance][routed.spec.sessionKey] = routed.spec;
        session_keys.insert(routed.spec.sessionKey);
    }
    std::size_t hopped = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(::testing::Message() << "instance " << i);
        // The sessions holding a chain here (one chain each).
        std::vector<std::uint64_t> held;
        for (const std::uint64_t session : session_keys) {
            if (!views[i]->sessionChain(session).empty())
                held.push_back(session);
        }
        for (const std::uint64_t session : held)
            EXPECT_EQ(last[i].count(session), 1u) << session;
        ASSERT_EQ(held.size(), last[i].size());
        for (const auto &[session, spec] : last[i]) {
            std::vector<PromptSegment> stream = spec.segments;
            stream.push_back(
                PromptSegment{spec.outputKey, spec.outputLen});
            EXPECT_TRUE(std::ranges::equal(
                views[i]->sessionChain(session),
                blockHashChain(stream, 16, streamTokens(stream))));
        }
        hopped += last[i].size();
    }
    // Sessions really were split across instances.
    EXPECT_GT(hopped, config.numSessions);
}

// --- Session workload --------------------------------------------

TEST(SessionGeneratorTest, TurnsExtendTheSameStream)
{
    workload::SessionWorkloadConfig config;
    config.numSessions = 2;
    config.turnsPerSession = 3;
    config.systemPromptTokens = 100;
    config.seed = 7;

    const std::vector<RequestSpec> turns =
        testfx::sessionTurns(config);
    const RequestSpec &t0 = turns[0];
    const RequestSpec &t1 = turns[1];
    const RequestSpec &other = turns[3];

    // Turn 0: system prompt + user message.
    ASSERT_EQ(t0.segments.size(), 2u);
    EXPECT_EQ(t0.segments[0].len, 100);
    EXPECT_EQ(t0.inputLen,
              t0.segments[0].len + t0.segments[1].len);

    // Turn 1 starts with turn 0's prompt stream, then the reply,
    // then the new user message.
    ASSERT_EQ(t1.segments.size(), 4u);
    EXPECT_EQ(t1.segments[0].key, t0.segments[0].key);
    EXPECT_EQ(t1.segments[1].key, t0.segments[1].key);
    EXPECT_EQ(t1.segments[2].key, t0.outputKey);
    EXPECT_EQ(t1.segments[2].len, t0.effectiveOutputLen());
    EXPECT_EQ(t1.inputLen,
              t0.inputLen + t0.effectiveOutputLen() +
                  t1.segments[3].len);

    // Sessions share the system prompt but nothing else.
    EXPECT_EQ(other.segments[0].key, t0.segments[0].key);
    EXPECT_NE(other.segments[1].key, t0.segments[1].key);
    EXPECT_NE(other.sessionKey, t0.sessionKey);
    EXPECT_EQ(turns.size(), 6u);
}

TEST(SessionGeneratorTest, PrefixCacheImprovesSessionTtft)
{
    // The PR's acceptance scenario: identical multi-turn workload,
    // cache off vs on — mean TTFT must drop and the hit rate must
    // be substantial (later turns re-prefill only their newest
    // user message).
    auto run = [](bool cache_on) {
        workload::SessionWorkloadConfig config;
        config.numSessions = 6;
        config.turnsPerSession = 4;
        config.systemPromptTokens = 256;
        config.seed = 21;

        engine::EngineConfig engine_config;
        engine_config.prefixCache = cache_on;
        engine::ServingEngine engine(
            tinyPerf(64.0),
            core::makeSchedulingPolicy(
                SchedulerConfig::pastFutureDefault(0.03)),
            engine_config);
        workload::SessionGenerator sessions(config, engine);
        engine.setOnFinish(
            [&](const RequestSpec &spec, Tick tick) {
                sessions.onRequestFinished(spec.id, tick);
            });
        sessions.start();
        return engine.run();
    };

    const auto off = run(false);
    const auto on = run(true);
    ASSERT_EQ(off.numFinished, 24u);
    ASSERT_EQ(on.numFinished, 24u);
    EXPECT_EQ(off.prefixHitTokens, 0);
    EXPECT_GT(on.prefixHitRate(), 0.5);
    EXPECT_LT(on.latencyDigest().meanTtft,
              off.latencyDigest().meanTtft);
    EXPECT_LT(on.totalPrefillTokens, off.totalPrefillTokens);
    // Same generations either way: sharing changes memory and
    // prefill work, never the decoded tokens.
    EXPECT_EQ(on.totalOutputTokens, off.totalOutputTokens);
}

// --- Prefix-affinity routing -------------------------------------

TEST(PrefixAffinityTest, SessionsStickToTheirHomeInstance)
{
    workload::SessionWorkloadConfig config;
    config.numSessions = 9;
    config.turnsPerSession = 3;
    config.systemPromptTokens = 128;
    config.seed = 5;

    engine::EngineConfig engine_config;
    engine_config.prefixCache = true;

    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    for (int i = 0; i < 3; ++i) {
        engines.push_back(std::make_unique<engine::ServingEngine>(
            tinyPerf(64.0),
            core::makeSchedulingPolicy(
                SchedulerConfig::pastFutureDefault(0.03)),
            engine_config));
    }
    sim::SimContext context;
    cluster::ServingCluster fleet(
        std::move(engines), cluster::RoutingPolicy::PrefixAffinity,
        context);
    testfx::RoutedLog routed_log;
    fleet.recordSubmissions(&routed_log);

    workload::SessionGenerator sessions(config, fleet);
    fleet.setOnFinish([&](const RequestSpec &spec, Tick tick) {
        sessions.onRequestFinished(spec.id, tick);
    });
    sessions.start();
    const auto report = fleet.run();
    EXPECT_EQ(report.numFinished, 27u);

    // Every turn of a session lands on the session's home.
    std::unordered_map<std::uint64_t, std::size_t> home;
    for (const auto &routed : routed_log) {
        ASSERT_NE(routed.spec.sessionKey, 0u);
        const auto [it, inserted] = home.emplace(
            routed.spec.sessionKey, routed.instance);
        EXPECT_EQ(it->second, routed.instance)
            << "session bounced between instances";
    }
    EXPECT_EQ(home.size(), 9u);

    // Stickiness is what makes the caches hot: later turns hit.
    EXPECT_GT(report.prefixHitRate(), 0.5);
}

} // namespace
} // namespace lightllm
