/**
 * @file
 * Unit tests for the mechanisms the serving engine delegates to, on
 * the classes directly: the decode-run planner and settler, the
 * carried prediction audit and the session chain memo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "base/token_stream.hh"
#include "core/future_memory.hh"
#include "engine/decode_run.hh"
#include "engine/prediction_audit.hh"
#include "engine/session_chain_memo.hh"
#include "memory/kv_block_manager.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace {

using engine::DecodeRun;
using engine::EngineRequest;
using engine::PredictionAudit;
using engine::SessionChainMemo;

/** A live request in slab entry `index` (generation 0). */
std::unique_ptr<EngineRequest>
member(std::uint32_t index, TokenCount prompt, TokenCount output)
{
    auto request = std::make_unique<EngineRequest>();
    request->slot = makeSlot(index, 0);
    request->spec = testfx::makeRequest(index, prompt, output);
    return request;
}

/**
 * A settled run against stepwise growth: each step, the crossing
 * bucket must list exactly the members whose allocation is full, in
 * member order, and placing the crossings' growth the way the engine
 * does must hand out the very blocks a stepwise engine (every member
 * grows by one token each step, in member order) hands out. Several
 * members share each phase, so the order inside a bucket decides
 * which member takes which fresh block.
 */
TEST(DecodeRunTest, CrossingBucketsKeepMemberOrderAndBlockIds)
{
    constexpr TokenCount kBlock = 4;
    const TokenCount prompts[] = {5, 7, 9, 4, 13, 6, 11, 8, 17, 3};
    memory::KvBlockManager kv(4096, kBlock);
    memory::KvBlockManager stepwise(4096, kBlock);
    std::vector<std::unique_ptr<EngineRequest>> owned;
    std::vector<EngineRequest *> members;
    for (std::uint32_t i = 0; i < std::size(prompts); ++i) {
        owned.push_back(member(i, prompts[i], 60 + i));
        EngineRequest &request = *owned.back();
        request.generated = 1;
        // Lapses spread over the run; member 3 predates the epoch.
        request.predictedEpoch = i == 3 ? 0 : 1;
        request.predictedUntil = request.generated + 2 + i % 5;
        for (memory::KvBlockManager *manager : {&kv, &stepwise}) {
            ASSERT_TRUE(manager->allocate(request.slot, prompts[i] + 1));
            manager->joinBatch(request.slot);
        }
        members.push_back(&request);
    }

    DecodeRun run;
    const Tick end = run.plan(members, kv, testfx::tinyPerf(4.0), 1.0,
                              100, 0, 1);
    ASSERT_GT(end, 100);
    // The first finish (member 0 at 60 tokens) bounds the run.
    std::size_t steps = 0;
    std::vector<TokenCount> lapse_at(members.size());
    for (std::size_t i = 0; i < members.size(); ++i)
        lapse_at[i] = i == 3 ? 1 : 2 + static_cast<TokenCount>(i % 5);
    while (run.pending()) {
        const DecodeRun::Step step = run.settle();
        ASSERT_EQ(step.index, ++steps);
        EXPECT_EQ(step.ahead, static_cast<TokenCount>(steps));
        std::vector<std::uint32_t> full;
        for (std::uint32_t i = 0; i < members.size(); ++i) {
            if (stepwise.requestTokens(members[i]->slot) % kBlock == 0)
                full.push_back(i);
        }
        ASSERT_EQ(std::vector<std::uint32_t>(step.crossings.begin(),
                                             step.crossings.end()),
                  full)
            << "step " << steps;
        for (const std::uint32_t i : step.crossings) {
            kv.growInSlack(members[i]->slot, run.catchUp(i) - 1);
            kv.growByOne(members[i]->slot);
        }
        for (EngineRequest *request : members)
            stepwise.growByOne(request->slot);
        ASSERT_EQ(kv.usedTokens() + run.kvLag(), stepwise.usedTokens());

        std::vector<std::uint32_t> lapsed(step.lapses.begin(),
                                          step.lapses.end());
        std::sort(lapsed.begin(), lapsed.end());
        std::vector<std::uint32_t> due;
        for (std::uint32_t i = 0; i < members.size(); ++i) {
            if (lapse_at[i] == static_cast<TokenCount>(steps))
                due.push_back(i);
        }
        ASSERT_EQ(lapsed, due) << "step " << steps;
        for (const std::uint32_t i : step.lapses) {
            lapse_at[i] = static_cast<TokenCount>(steps) + 3;
            run.fileLapse(i, lapse_at[i]);
        }
    }
    EXPECT_EQ(steps, 58u);  // member 0 finishes at step 59
    run.end(members, kv);
    for (const EngineRequest *request : members) {
        EXPECT_EQ(request->generated, 1 + static_cast<TokenCount>(steps));
        EXPECT_EQ(kv.blockTable(request->slot),
                  stepwise.blockTable(request->slot));
        EXPECT_EQ(kv.requestTokens(request->slot),
                  stepwise.requestTokens(request->slot));
    }
    EXPECT_EQ(kv.usedTokens(), stepwise.usedTokens());
}

/**
 * The carried audit against a from-scratch sortByRemaining +
 * sortedPeak, after random joins (running or prefill-pending),
 * departures (whose slab entries a later join takes over),
 * prefill completions and prediction moves, over steps that either
 * advance every decoding member (an ordinary step) or leave their
 * `generated` behind by `ahead` (a decode run, where moved
 * predictions slide in place).
 */
TEST(PredictionAuditTest, CarriedPeaksMatchFromScratch)
{
    Rng rng(41);
    std::vector<std::unique_ptr<EngineRequest>> slab;
    std::vector<EngineRequest *> free_list;
    std::vector<EngineRequest *> running;
    std::vector<EngineRequest *> pending;
    PredictionAudit audit;
    std::size_t slides = 0;
    std::size_t checked = 0;

    auto join = [&] {
        EngineRequest *request;
        if (free_list.empty()) {
            slab.push_back(member(static_cast<std::uint32_t>(slab.size()),
                                  1, 1));
            request = slab.back().get();
        } else {
            request = free_list.back();
            free_list.pop_back();
        }
        request->spec.inputLen = rng.uniformInt(16, 600);
        request->spec.outputLen = rng.uniformInt(8, 400);
        request->cachedPrefix = rng.uniformInt(0, 15);
        request->generated = rng.uniformInt(0, 4);
        request->predicted = request->generated + rng.uniformInt(0, 300);
        (rng.uniformInt(0, 3) == 0 ? pending : running).push_back(request);
        audit.membersChanged();
    };
    auto leave = [&](std::vector<EngineRequest *> &from, std::size_t at) {
        EngineRequest *request = from[at];
        from.erase(from.begin() + static_cast<std::ptrdiff_t>(at));
        request->slot = makeSlot(slotIndex(request->slot),
                                 static_cast<std::uint32_t>(
                                     request->slot >> 32) + 1);
        free_list.push_back(request);
        audit.membersChanged();
    };
    auto pick = [&](const std::vector<EngineRequest *> &list) {
        return static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(list.size()) - 1));
    };
    // A moved prediction: repaired in place unless a rescan is due.
    auto move = [&](EngineRequest &request, TokenCount generated) {
        request.predicted = generated + rng.uniformInt(0, 300);
        if (audit.rescanPending()) {
            audit.predictionChanged();
        } else {
            audit.slide(request);
            ++slides;
        }
    };
    auto check = [&](TokenCount ahead) {
        const auto [true_peak, predicted_peak] =
            audit.step(running, pending, ahead);
        std::vector<core::BatchEntry> truth;
        std::vector<core::BatchEntry> predicted;
        for (const auto *list : {&running, &pending}) {
            const TokenCount lag = list == &running ? ahead : 0;
            for (const EngineRequest *request : *list) {
                const TokenCount generated = request->generated + lag;
                const TokenCount prompt =
                    request->spec.inputLen - request->cachedPrefix;
                truth.push_back({prompt, generated,
                                 std::max(request->targetOutput(),
                                          generated)});
                predicted.push_back({prompt, generated,
                                     std::max(request->predicted,
                                              generated)});
            }
        }
        core::sortByRemaining(truth);
        core::sortByRemaining(predicted);
        ASSERT_EQ(true_peak, core::sortedPeak(truth)) << checked;
        ASSERT_EQ(predicted_peak, core::sortedPeak(predicted)) << checked;
        ++checked;
    };

    for (int round = 0; round < 400; ++round) {
        // Batch changes between iterations.
        const std::int64_t changes = rng.uniformInt(0, 3);
        for (std::int64_t c = 0; c < changes; ++c) {
            const std::int64_t op = rng.uniformInt(0, 9);
            if (op < 4 || running.size() + pending.size() < 3) {
                join();
            } else if (op < 7 && !running.empty()) {
                leave(running, pick(running));
            } else if (op < 8 && !pending.empty()) {
                leave(pending, pick(pending));
            } else if (!pending.empty()) {
                running.push_back(pending[pick(pending)]);
                std::erase(pending, running.back());
                audit.membersChanged();
            }
        }
        // An ordinary step: every decoding member emits a token.
        for (EngineRequest *request : running) {
            request->generated += 1;
            if (request->predicted < request->generated ||
                rng.uniformInt(0, 7) == 0) {
                request->predicted =
                    request->generated + rng.uniformInt(0, 300);
                audit.predictionChanged();
            }
        }
        check(0);
        // Members that reached their length leave after the step.
        for (std::size_t i = running.size(); i-- > 0;) {
            if (running[i]->generated >= running[i]->targetOutput())
                leave(running, i);
        }
        if (!pending.empty() || running.empty() ||
            rng.uniformInt(0, 1) == 0) {
            continue;
        }
        // A decode run stops short of its first finish. Members lag
        // `ahead` steps; lapsing predictions move and slide when no
        // rescan is due.
        TokenCount finish = std::numeric_limits<TokenCount>::max();
        for (const EngineRequest *request : running) {
            finish = std::min(finish,
                              request->targetOutput() - request->generated);
        }
        const TokenCount steps =
            std::min<TokenCount>(finish - 1, rng.uniformInt(1, 12));
        for (TokenCount ahead = 1; ahead <= steps; ++ahead) {
            for (EngineRequest *request : running) {
                const TokenCount generated = request->generated + ahead;
                if (request->predicted < generated ||
                    rng.uniformInt(0, 5) == 0) {
                    move(*request, generated);
                }
            }
            check(ahead);
        }
        for (EngineRequest *request : running)
            request->generated += std::max<TokenCount>(steps, 0);
    }
    EXPECT_GT(checked, 1000u);
    EXPECT_GT(slides, 500u);
}

/** A session request of the given segments. */
std::unique_ptr<EngineRequest>
turn(std::vector<PromptSegment> segments, std::uint64_t output_key)
{
    TokenCount prompt = 0;
    for (const PromptSegment &segment : segments)
        prompt += segment.len;
    auto request = member(0, prompt, 48);
    request->spec.segments = std::move(segments);
    request->spec.sessionKey = 9;
    request->spec.outputKey = output_key;
    return request;
}

/**
 * Hash chains extend in place to the from-scratch chain of the
 * stream (the prompt, then the identified reply), and a session's
 * next turn inherits the chain its last turn handed off only when
 * that turn's stream is a segment-wise prefix of its own.
 */
TEST(SessionChainMemoTest, InheritsOnlyAPrefixStream)
{
    constexpr TokenCount kBlock = 8;
    SessionChainMemo memo(kBlock);
    auto first = turn({{11, 40}}, 77);
    // One short of the prompt: 39 tokens, four full blocks.
    EXPECT_EQ(memo.promptHashes(*first).size(), 4u);
    first->generated = 30;
    const std::vector<PromptSegment> stream = {{11, 40}, {77, 30}};
    const std::vector<PrefixHash> full =
        blockHashChain(stream, kBlock, 70);
    ASSERT_TRUE(std::ranges::equal(memo.hashChain(*first, 70), full));
    memo.handOff(*first);
    EXPECT_TRUE(first->hashes.empty());
    EXPECT_TRUE(std::ranges::equal(memo.chain(9), full));

    // A diverged stream takes nothing; the memo keeps its chain.
    auto diverged = turn({{11, 40}, {78, 30}, {12, 10}}, 79);
    memo.inherit(*diverged);
    EXPECT_TRUE(diverged->hashes.empty());
    EXPECT_TRUE(std::ranges::equal(memo.chain(9), full));

    // The next turn extends the last turn's stream: it takes the
    // chain, and its prompt chain resumes past it.
    auto next = turn({{11, 40}, {77, 30}, {12, 25}}, 80);
    memo.inherit(*next);
    EXPECT_TRUE(std::ranges::equal(next->hashes, full));
    EXPECT_TRUE(memo.chain(9).empty());
    const std::vector<PrefixHash> prompt =
        blockHashChain(next->spec.segments, kBlock, 94);
    EXPECT_TRUE(std::ranges::equal(memo.promptHashes(*next), prompt));

    // Outside a session nothing is held or taken.
    auto lone = turn({{11, 40}}, 0);
    lone->spec.sessionKey = 0;
    memo.hashChain(*lone, 40);
    memo.handOff(*lone);
    EXPECT_EQ(lone->hashes.size(), 5u);
    EXPECT_TRUE(memo.chain(0).empty());
    EXPECT_TRUE(memo.chain(9).empty());
}

} // namespace
} // namespace lightllm
