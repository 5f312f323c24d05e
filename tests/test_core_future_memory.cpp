/**
 * @file
 * Tests for the future-required-memory computation (Eqs. 2-4),
 * including a brute-force token-by-token simulation oracle and the
 * scheduling scenarios of the paper's Figures 5 and 6.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "core/aggressive_scheduler.hh"
#include "core/conservative_scheduler.hh"
#include "core/future_memory.hh"
#include "core/length_distribution.hh"
#include "core/length_predictor.hh"
#include "core/oracle_scheduler.hh"
#include "core/past_future_scheduler.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace core {
namespace {

using testfx::bernoulli;

TEST(FutureMemoryTest, EmptyBatchIsZero)
{
    std::vector<BatchEntry> entries;
    EXPECT_EQ(futureRequiredMemory(entries), 0);
}

TEST(FutureMemoryTest, SingleRequestPeaksAtCompletion)
{
    // One request: peak = prompt + full predicted output.
    std::vector<BatchEntry> entries{{100, 10, 50}};
    EXPECT_EQ(futureRequiredMemory(entries), 150);
}

TEST(FutureMemoryTest, FinishedRequestContributesResidentOnly)
{
    std::vector<BatchEntry> entries{{100, 50, 50}};
    EXPECT_EQ(futureRequiredMemory(entries), 150);
}

TEST(FutureMemoryTest, TwoRequestHandComputation)
{
    // A: prompt 10, generated 0, predicted 4 (remaining 4).
    // B: prompt 20, generated 0, predicted 2 (remaining 2).
    // Sorted desc by remaining: [A(4), B(2)].
    // M_1 (A finishes, B gone):  (10+0) + 4*1           = 14
    // M_2 (B finishes first):    (10+0)+(20+0) + 2*2    = 34
    // Peak = 34.
    std::vector<BatchEntry> entries{{10, 0, 4}, {20, 0, 2}};
    EXPECT_EQ(futureRequiredMemory(entries), 34);
}

TEST(FutureMemoryTest, StaggeredCompletionsBeatSumOfPeaks)
{
    // Three requests with staggered remaining lengths: the batch
    // peak is far below the sum of individual peaks, which is the
    // whole point of Eq. 3 (conservative schedulers assume the sum).
    std::vector<BatchEntry> entries{
        {100, 0, 100}, {100, 0, 50}, {100, 0, 10}};
    const TokenCount sum_of_peaks = 200 + 150 + 110;
    const TokenCount peak = futureRequiredMemory(entries);
    EXPECT_LT(peak, sum_of_peaks);
    // Hand check: sorted remaining [100, 50, 10].
    // M_1 = 100 + 100*1 = 200
    // M_2 = 200 + 50*2  = 300
    // M_3 = 300 + 10*3  = 330
    EXPECT_EQ(peak, 330);
}

TEST(FutureMemoryTest, PeakAtLeastCurrentResident)
{
    std::vector<BatchEntry> entries{
        {50, 20, 30}, {60, 10, 15}, {70, 5, 5}};
    TokenCount resident = 0;
    for (const auto &entry : entries)
        resident += entry.promptLen + entry.generatedLen;
    EXPECT_GE(futureRequiredMemory(entries), resident);
}

TEST(FutureMemoryTest, MergedPeakDoesNotMutate)
{
    // A sorted batch of one ({10, 0, 4}) scored with a candidate
    // ({20, 0, 2}): the batch of TwoRequestHandComputation, with
    // neither input copied or reordered.
    const std::vector<BatchEntry> sorted{{10, 0, 4}};
    const BatchEntry candidate{20, 0, 2};
    EXPECT_EQ(mergedPeak(sorted, candidate), 34);
    ASSERT_EQ(sorted.size(), 1u);
    EXPECT_EQ(sorted[0].promptLen, 10);
    EXPECT_EQ(sorted[0].predictedOutputLen, 4);
    EXPECT_EQ(candidate.promptLen, 20);
}

TEST(FutureMemoryTest, InsertSortedPlacesFirstTieOrLast)
{
    std::vector<BatchEntry> sorted{{10, 0, 40}, {10, 0, 20}};
    insertSorted(sorted, BatchEntry{1, 0, 50});  // longest: first
    insertSorted(sorted, BatchEntry{2, 0, 0});   // shortest: last
    insertSorted(sorted, BatchEntry{3, 0, 20});  // first among ties
    std::vector<TokenCount> prompts;
    for (const BatchEntry &entry : sorted)
        prompts.push_back(entry.promptLen);
    EXPECT_EQ(prompts, (std::vector<TokenCount>{1, 10, 3, 10, 2}));

    std::vector<BatchEntry> empty;
    EXPECT_EQ(mergedPeak(empty, BatchEntry{5, 0, 20}), 25);
    insertSorted(empty, BatchEntry{5, 0, 20});
    EXPECT_EQ(sortedPeak(empty), 25);
}

TEST(FutureMemoryDeathTest, UnsortedBatchPanics)
{
    const std::vector<BatchEntry> unsorted{{10, 0, 2}, {20, 0, 4}};
    EXPECT_DEATH(sortedPeak(unsorted), "descending-remaining");
}

TEST(FutureMemoryDeathTest, PredictionBelowGeneratedPanics)
{
    std::vector<BatchEntry> entries{{10, 20, 5}};
    EXPECT_DEATH(futureRequiredMemory(entries), "below generated");
}

TEST(FutureMemoryTest, SharedPrefixMayCoverGeneratedTokens)
{
    // A 63-token prompt whose shared prefix (64 tokens) reaches into
    // its 10 generated tokens: resident footprint -1 + 10 = 9.
    std::vector<BatchEntry> entries{{-1, 10, 14}, {20, 0, 2}};
    // Sorted by remaining: A (4 left) peaks at 9 + 4 = 13, then
    // B at 9 + 20 + 2 * 2 = 33.
    EXPECT_EQ(futureRequiredMemory(entries), 33);
}

TEST(FutureMemoryDeathTest, NegativeResidentFootprintPanics)
{
    std::vector<BatchEntry> entries{{-11, 10, 14}};
    EXPECT_DEATH(futureRequiredMemory(entries),
                 "negative resident footprint");
}

/**
 * Figure 5 analogue: admitting the same queued request one step
 * later (after the running batch made progress) lowers the batch's
 * peak memory demand.
 */
TEST(FutureMemoryTest, LaterAdmissionLowersPeak)
{
    // Running requests at time t.
    const BatchEntry a_now{4, 1, 4};   // 3 remaining
    const BatchEntry b_now{3, 2, 3};   // 1 remaining
    const BatchEntry queued{3, 0, 3};  // 3 remaining

    std::vector<BatchEntry> at_t{a_now, b_now, queued};
    const TokenCount peak_t = futureRequiredMemory(at_t);

    // One decode step later: a and b each generated one token and b
    // finished (released); admit the queued request now.
    const BatchEntry a_next{4, 2, 4};  // 2 remaining
    std::vector<BatchEntry> at_t1{a_next, queued};
    const TokenCount peak_t1 = futureRequiredMemory(at_t1);

    EXPECT_LT(peak_t1, peak_t);
}

/**
 * Figure 6 analogue with token capacity 21: the aggressive choice
 * (admit immediately) needs more memory than the system has, while
 * waiting one step fits exactly — the Past-Future scheduler's
 * "admit at the optimal time point".
 */
TEST(FutureMemoryTest, Figure6AdmitAtRightTime)
{
    const TokenCount capacity = 21;

    // Two running requests and a newcomer at time t.
    std::vector<BatchEntry> at_t{
        {5, 1, 5},   // 4 remaining
        {4, 2, 4},   // 2 remaining
        {4, 0, 4},   // newcomer: 4 remaining
    };
    EXPECT_GT(futureRequiredMemory(at_t), capacity);

    // At t+1 the running requests progressed one token each.
    std::vector<BatchEntry> at_t1{
        {5, 2, 5},
        {4, 3, 4},
        {4, 0, 4},
    };
    EXPECT_LE(futureRequiredMemory(at_t1), capacity);
}

/**
 * Brute-force oracle: simulate the batch token by token. Every
 * step, each unfinished request grows by one token; occupancy is
 * sampled after growth; requests that reached their prediction
 * release their memory after that step. The exact peak must equal
 * Eq. 4's M*.
 */
TokenCount
bruteForcePeak(std::vector<BatchEntry> entries)
{
    TokenCount peak = 0;
    // Include the initial resident set (covers all-finished edge).
    TokenCount resident = 0;
    for (const auto &entry : entries)
        resident += entry.promptLen + entry.generatedLen;
    peak = resident;

    while (true) {
        // Finished requests release their memory before the next
        // decode step runs (the engine frees at finish time).
        std::erase_if(entries, [](const BatchEntry &entry) {
            return entry.generatedLen >= entry.predictedOutputLen;
        });
        if (entries.empty())
            break;
        // Grow every remaining request by one token and sample the
        // occupancy at the end of the step.
        TokenCount occupancy = 0;
        for (auto &entry : entries) {
            entry.generatedLen += 1;
            occupancy += entry.promptLen + entry.generatedLen;
        }
        peak = std::max(peak, occupancy);
    }
    return peak;
}

class FutureMemoryProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FutureMemoryProperty, MatchesBruteForceSimulation)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 50; ++trial) {
        const auto batch_size = rng.uniformInt(1, 24);
        std::vector<BatchEntry> entries;
        for (std::int64_t i = 0; i < batch_size; ++i) {
            BatchEntry entry;
            entry.promptLen = rng.uniformInt(1, 400);
            entry.generatedLen = rng.uniformInt(0, 200);
            entry.predictedOutputLen =
                entry.generatedLen + rng.uniformInt(0, 300);
            entries.push_back(entry);
        }
        const TokenCount brute = bruteForcePeak(entries);
        const TokenCount analytic = futureRequiredMemory(entries);
        ASSERT_EQ(analytic, brute)
            << "trial " << trial << " batch " << batch_size;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FutureMemoryProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u,
                                           66u, 77u, 88u));

/**
 * Randomized equivalence of the incremental Eq. 2-4 paths (the
 * admission trials' merged scan, the engine audit's carried order,
 * the sticky predictions' memoised tail start) against the
 * from-scratch computations they replace. Every failure names its
 * seed.
 */
class IncrementalPeakProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

/** Remaining lengths drawn from a handful of values (dense ties) in
 *  half the trials, from a wide range otherwise. */
std::vector<TokenCount>
remainingValues(Rng &rng, int trial)
{
    std::vector<TokenCount> values;
    if (trial % 2 == 0) {
        const auto count = rng.uniformInt(1, 4);
        for (std::int64_t i = 0; i < count; ++i)
            values.push_back(rng.uniformInt(0, 60));
    }
    return values;
}

TokenCount
drawRemaining(Rng &rng, const std::vector<TokenCount> &values)
{
    if (values.empty())
        return rng.uniformInt(0, 500);
    return values[rng.pickIndex(std::span<const TokenCount>(values))];
}

/** A running-batch entry; one in five has a negative promptLen (a
 *  shared prefix reaching into its generated tokens) with a
 *  non-negative resident term. */
BatchEntry
randomEntry(Rng &rng, const std::vector<TokenCount> &values)
{
    BatchEntry entry;
    entry.generatedLen = rng.uniformInt(0, 300);
    entry.promptLen = bernoulli(rng, 0.2)
        ? rng.uniformInt(-entry.generatedLen, 0)
        : rng.uniformInt(1, 400);
    entry.predictedOutputLen =
        entry.generatedLen + drawRemaining(rng, values);
    return entry;
}

TEST_P(IncrementalPeakProperty, MergedScanMatchesCopyAndSort)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
        const std::vector<TokenCount> values =
            remainingValues(rng, trial);
        std::vector<BatchEntry> batch;  // arbitrary order
        const auto batch_size = rng.uniformInt(0, 24);
        for (std::int64_t i = 0; i < batch_size; ++i)
            batch.push_back(randomEntry(rng, values));
        std::vector<BatchEntry> sorted = batch;
        sortByRemaining(sorted);

        // One admission round: each candidate is scored against the
        // batch plus the candidates admitted before it.
        for (int c = 0; c < 6; ++c) {
            TokenCount remaining = drawRemaining(rng, values);
            const auto where = rng.uniformInt(0, 2);
            if (where == 0 && !sorted.empty()) {
                remaining = sorted.front().remaining() +
                    rng.uniformInt(1, 50);  // lands first
            } else if (where == 1 && !sorted.empty()) {
                remaining = std::max<TokenCount>(
                    0, sorted.back().remaining() - 1);  // last
            }
            const BatchEntry candidate{rng.uniformInt(0, 400), 0,
                                       remaining};
            std::vector<BatchEntry> copy = batch;
            copy.push_back(candidate);
            const TokenCount expected = futureRequiredMemory(copy);
            ASSERT_EQ(mergedPeak(sorted, candidate), expected)
                << "seed " << seed << " trial " << trial
                << " candidate " << c;
            if (bernoulli(rng, 0.5)) {
                insertSorted(sorted, candidate);
                batch.push_back(candidate);
                ASSERT_EQ(sortedPeak(sorted), expected)
                    << "seed " << seed << " trial " << trial
                    << " candidate " << c;
            }
        }
    }
}

TEST_P(IncrementalPeakProperty, SortByRemainingMatchesStableSort)
{
    // sortByRemaining insertion-sorts small batches and radix-sorts
    // from 32 entries: either way it must order a batch exactly as a
    // stable comparison sort does, ties included, and so score the
    // same M* alone and with a candidate merged in.
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    const auto longer = [](const BatchEntry &a, const BatchEntry &b) {
        return a.remaining() > b.remaining();
    };
    for (int trial = 0; trial < 60; ++trial) {
        const std::vector<TokenCount> values =
            remainingValues(rng, trial);
        // Every fifth trial spreads some keys over 2^40 (more radix
        // passes); every seventh gives some entries a negative
        // remaining length, which sorts but fails the scan.
        const bool wide = trial % 5 == 4;
        const bool negative = trial % 7 == 6;
        std::vector<BatchEntry> batch;
        const auto batch_size = rng.uniformInt(0, 300);
        for (std::int64_t i = 0; i < batch_size; ++i) {
            BatchEntry entry = randomEntry(rng, values);
            if (bernoulli(rng, 0.1))
                entry.predictedOutputLen = entry.generatedLen;
            if (wide && bernoulli(rng, 0.2)) {
                entry.predictedOutputLen +=
                    rng.uniformInt(0, TokenCount{1} << 40);
            }
            if (negative && bernoulli(rng, 0.2)) {
                entry.predictedOutputLen =
                    entry.generatedLen - rng.uniformInt(1, 1000);
            }
            batch.push_back(entry);
        }
        std::vector<BatchEntry> expected = batch;
        std::stable_sort(expected.begin(), expected.end(), longer);
        std::vector<BatchEntry> sorted = batch;
        sortByRemaining(sorted);
        for (std::size_t i = 0; i < sorted.size(); ++i) {
            ASSERT_TRUE(sorted[i].promptLen == expected[i].promptLen &&
                        sorted[i].generatedLen ==
                            expected[i].generatedLen &&
                        sorted[i].predictedOutputLen ==
                            expected[i].predictedOutputLen)
                << "seed " << seed << " trial " << trial << " size "
                << sorted.size() << " index " << i;
        }
        if (negative)
            continue;
        ASSERT_EQ(sortedPeak(sorted), sortedPeak(expected))
            << "seed " << seed << " trial " << trial;
        const BatchEntry candidate{rng.uniformInt(0, 400), 0,
                                   drawRemaining(rng, values)};
        ASSERT_EQ(mergedPeak(sorted, candidate),
                  mergedPeak(expected, candidate))
            << "seed " << seed << " trial " << trial;
    }
}

TEST_P(IncrementalPeakProperty, CarriedOrderMatchesFreshSort)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);

    struct Member
    {
        int id;
        TokenCount prompt;
        TokenCount generated;
        TokenCount predicted;
        bool prefilling;  // admitted, generated frozen
    };
    std::vector<Member> batch;       // engine order
    std::vector<int> carried_ids;    // carried Eq. 2 order
    std::vector<BatchEntry> carried; // carried_ids[i]'s entry
    int next_id = 0;
    const std::vector<TokenCount> values =
        remainingValues(rng, static_cast<int>(seed % 2));

    for (int step = 0; step < 600; ++step) {
        // Joins, some still prefilling.
        const auto joins =
            batch.size() < 40 ? rng.uniformInt(0, 3) : 0;
        for (std::int64_t j = 0; j < joins; ++j) {
            const BatchEntry entry = randomEntry(rng, values);
            batch.push_back(Member{next_id++, entry.promptLen,
                                   entry.generatedLen,
                                   entry.predictedOutputLen,
                                   bernoulli(rng, 0.3)});
        }
        // Evictions.
        if (!batch.empty() && bernoulli(rng, 0.1)) {
            const auto victim =
                rng.uniformInt(0, std::ssize(batch) - 1);
            batch.erase(batch.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        }
        // Prediction jumps, up or down (never below generated).
        for (Member &member : batch) {
            if (bernoulli(rng, 0.05)) {
                member.predicted = member.generated +
                    drawRemaining(rng, values);
            }
        }

        // Carry: drop leavers, append joiners, refresh every entry
        // in the carried order, restore the order.
        auto member_of = [&](int id) {
            return std::find_if(batch.begin(), batch.end(),
                                [&](const Member &member) {
                                    return member.id == id;
                                });
        };
        std::erase_if(carried_ids, [&](int id) {
            return member_of(id) == batch.end();
        });
        std::vector<BatchEntry> fresh;
        for (const Member &member : batch) {
            fresh.push_back(BatchEntry{
                member.prompt, member.generated, member.predicted});
            if (std::find(carried_ids.begin(), carried_ids.end(),
                          member.id) == carried_ids.end()) {
                carried_ids.push_back(member.id);
            }
        }
        carried.clear();
        for (int id : carried_ids) {
            const Member &member = *member_of(id);
            carried.push_back(BatchEntry{
                member.prompt, member.generated, member.predicted});
        }
        restoreRemainingOrder(std::span<BatchEntry>(carried),
                              std::span<int>(carried_ids));
        ASSERT_EQ(carried.size(), fresh.size()) << "seed " << seed;
        for (std::size_t i = 0; i < carried.size(); ++i) {
            const Member &member = *member_of(carried_ids[i]);
            const BatchEntry &entry = carried[i];
            ASSERT_TRUE(entry.promptLen == member.prompt &&
                        entry.generatedLen == member.generated &&
                        entry.predictedOutputLen == member.predicted)
                << "seed " << seed << " step " << step
                << ": a tag did not move with its entry";
        }
        ASSERT_TRUE(std::is_sorted(carried.begin(), carried.end(),
                                   [](const BatchEntry &a,
                                      const BatchEntry &b) {
                                       return a.remaining() >
                                           b.remaining();
                                   }))
            << "seed " << seed << " step " << step;
        ASSERT_EQ(sortedPeak(carried), futureRequiredMemory(fresh))
            << "seed " << seed << " step " << step;

        // The decode step: decoders take a token, some prefills
        // complete; finished requests leave.
        for (Member &member : batch) {
            if (member.prefilling)
                member.prefilling = !bernoulli(rng, 0.3);
            else
                member.generated += 1;
            member.predicted =
                std::max(member.predicted, member.generated);
        }
        std::erase_if(batch, [](const Member &member) {
            return !member.prefilling &&
                member.generated >= member.predicted;
        });
    }
}

TEST_P(IncrementalPeakProperty, TailCursorMatchesUpperBound)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    // Even seeds start from a cold-start seed.
    const TokenCount seed_len = seed % 2 == 0 ? 2048 : 0;
    LengthPredictor predictor(64, seed_len);
    testfx::FifoWindow mirror(64, seed_len);  // the predictor's window
    std::vector<LengthPredictor::TailCursor> cursors(8);
    std::vector<TokenCount> generated(8, 0);

    for (int op = 0; op < 5000; ++op) {
        if (bernoulli(rng, 0.1)) {
            // Few distinct values: the window holds long tie runs.
            const TokenCount length = bernoulli(rng, 0.5)
                ? rng.uniformInt(1, 8) * 50
                : rng.uniformInt(1, 600);
            predictor.observe(length);
            mirror.push(length);
            continue;
        }
        const auto k = static_cast<std::size_t>(rng.uniformInt(0, 7));
        const auto move = rng.uniformInt(0, 9);
        if (move < 7)
            generated[k] += 1;
        else if (move < 9)
            generated[k] += rng.uniformInt(0, 400);  // long jump
        else
            generated[k] = rng.uniformInt(0, generated[k]);  // down
        std::vector<TokenCount> window = mirror.contents();
        std::sort(window.begin(), window.end());
        const auto expected = static_cast<std::size_t>(
            std::upper_bound(window.begin(), window.end(),
                             generated[k]) -
            window.begin());
        ASSERT_EQ(predictor.tailStart(cursors[k], generated[k]),
                  expected)
            << "seed " << seed << " op " << op;
    }
}

TEST_P(IncrementalPeakProperty, PredictionsMatchInEveryMode)
{
    const std::uint64_t seed = GetParam();
    constexpr TokenCount kCap = 3000;
    for (PredictionMode mode :
         {PredictionMode::StickySample, PredictionMode::PerStepSample,
          PredictionMode::TailMean, PredictionMode::TailQuantile}) {
        Rng rng(seed);
        PastFutureParams params;
        params.windowSize = 64;
        params.predictionMode = mode;
        params.seed = seed;
        PastFutureScheduler scheduler(params);
        // The scheduler's window, mirrored from what it observes.
        testfx::FifoWindow window(params.windowSize);
        // Replays the scheduler's sticky draws (its RNG feeds only
        // first-sight variates here: no admission round runs).
        Rng draws(params.seed);

        struct Tracked
        {
            RequestSlot slot = kInvalidSlot;
            RequestId id = 0;
            TokenCount generated = 0;
            bool hasU = false;
            double u = 0.0;
        };
        std::vector<Tracked> tracked(6);
        for (std::size_t i = 0; i < tracked.size(); ++i) {
            tracked[i].slot =
                makeSlot(static_cast<std::uint32_t>(i), 0);
            tracked[i].id = static_cast<RequestId>(i + 1);
        }

        // From-scratch reference of predict (peek = false) and
        // peekPrediction (peek = true).
        auto reference = [&](const Tracked &t, bool peek) {
            const LengthDistribution dist(window.contents());
            TokenCount predicted = kCap;
            if (!dist.empty()) {
                if (mode == PredictionMode::TailQuantile) {
                    predicted = dist.tailQuantileFrom(
                        dist.tailStart(t.generated), kTailQuantile,
                        kCap);
                } else if (mode == PredictionMode::StickySample &&
                           (t.hasU || !peek)) {
                    predicted = dist.sampleTailFrom(
                        t.u, dist.tailStart(t.generated), kCap);
                } else {
                    predicted = dist.tailMean(t.generated, kCap);
                }
            }
            return std::max(std::min(predicted, kCap), t.generated);
        };

        for (int op = 0; op < 3000; ++op) {
            const auto dice = rng.uniformInt(0, 99);
            Tracked &t = tracked[static_cast<std::size_t>(
                rng.uniformInt(0, 5))];
            if (dice < 15) {
                const TokenCount length = rng.uniformInt(1, 800);
                scheduler.onRequestFinished(1'000'000 + op, length);
                window.push(length);
            } else if (dice < 20) {
                // The request finishes; its id comes back fresh.
                scheduler.onRequestFinished(t.id, t.generated + 1);
                window.push(t.generated + 1);
                t.generated = 0;
                t.hasU = false;
            } else if (dice < 50) {
                const auto move = rng.uniformInt(0, 9);
                if (move < 7)
                    t.generated += 1;
                else if (move < 9)
                    t.generated += rng.uniformInt(0, 300);
                else  // evicted and re-admitted with less history
                    t.generated = rng.uniformInt(0, t.generated);
            } else if (dice < 75 &&
                       mode != PredictionMode::PerStepSample) {
                // predict() through the routing estimate: with an
                // empty batch and a zero-prompt queue of one, the
                // load is exactly the candidate's prediction. (An
                // empty window predicts the cap and draws nothing.)
                if (mode == PredictionMode::StickySample && !t.hasU &&
                    !window.contents().empty()) {
                    t.u = draws.uniformDouble();
                    t.hasU = true;
                }
                WaitingView view;
                view.id = t.id;
                view.slot = t.slot;
                view.generatedLen = t.generated;
                view.maxNewTokens = kCap;
                SchedulerContext ctx;
                ctx.waiting = std::span<const WaitingView>(&view, 1);
                ASSERT_EQ(scheduler.estimateLoad(ctx),
                          reference(t, false))
                    << "seed " << seed << " mode "
                    << static_cast<int>(mode) << " op " << op;
            } else {
                ASSERT_EQ(scheduler.peekPrediction(t.id, t.generated,
                                                   kCap),
                          reference(t, true))
                    << "seed " << seed << " mode "
                    << static_cast<int>(mode) << " op " << op;
            }
        }
    }
}

/**
 * The horizon contract (PredictionPeek), in every mode: a peek with
 * horizon H at generated length g equals a fresh peek at every length
 * in [g, H) — through slotted and id-only peeks alike, and across
 * everything that is not a mutation of this request's prediction:
 * other requests gaining sticky samples, predict() calls, and
 * per-step draws. A finish observed (or the request's own first
 * sample) starts a new horizon, which must hold again.
 */
TEST_P(IncrementalPeakProperty, HorizonHoldsInEveryMode)
{
    const std::uint64_t seed = GetParam();
    constexpr TokenCount kCap = 900;
    for (PredictionMode mode :
         {PredictionMode::StickySample, PredictionMode::PerStepSample,
          PredictionMode::TailMean, PredictionMode::TailQuantile}) {
        SCOPED_TRACE(static_cast<int>(mode));
        Rng rng(seed);
        PastFutureParams params;
        params.windowSize = 48;
        params.predictionMode = mode;
        params.seed = seed;
        PastFutureScheduler scheduler(params);

        struct Tracked
        {
            RequestSlot slot = kInvalidSlot;
            RequestId id = 0;
            TokenCount generated = 0;
            PredictionPeek peek;
            bool held = false;  // `peek` was taken and still holds
        };
        std::vector<Tracked> tracked(6);
        for (std::size_t i = 0; i < tracked.size(); ++i) {
            tracked[i].slot = makeSlot(static_cast<std::uint32_t>(i),
                                       static_cast<std::uint32_t>(i));
            tracked[i].id = static_cast<RequestId>(100 + i);
        }
        auto predict = [&](const Tracked &t) {
            // predict() through the routing estimate (see
            // PredictionsMatchInEveryMode).
            WaitingView view;
            view.id = t.id;
            view.slot = t.slot;
            view.generatedLen = t.generated;
            view.maxNewTokens = kCap;
            SchedulerContext ctx;
            ctx.waiting = std::span<const WaitingView>(&view, 1);
            scheduler.estimateLoad(ctx);
        };

        for (int op = 0; op < 1500; ++op) {
            const auto dice = rng.uniformInt(0, 99);
            Tracked &t = tracked[static_cast<std::size_t>(
                rng.uniformInt(0, 5))];
            if (dice < 8) {
                scheduler.onRequestFinished(1'000'000 + op,
                                            rng.uniformInt(1, 700));
                for (Tracked &other : tracked)
                    other.held = false;
            } else if (dice < 30) {
                // A sample for t (a new horizon if t had none).
                const bool had = scheduler.stickySampleCount();
                predict(t);
                if (scheduler.stickySampleCount() != had)
                    t.held = false;
            } else if (dice < 50) {
                t.generated +=
                    bernoulli(rng, 0.7) ? 1 : rng.uniformInt(0, 60);
            } else {
                const PredictionPeek fresh = scheduler.peekWithHorizon(
                    t.slot, t.id, t.generated, kCap);
                ASSERT_GT(fresh.horizon, t.generated);
                ASSERT_EQ(fresh.predicted,
                          scheduler.peekPrediction(t.id, t.generated,
                                                   kCap))
                    << "op " << op;
                if (t.held && t.generated < t.peek.horizon) {
                    ASSERT_EQ(fresh.predicted, t.peek.predicted)
                        << "op " << op << ": a peek inside [g, H) "
                        << "moved";
                }
                if (!t.held || t.generated >= t.peek.horizon) {
                    t.peek = fresh;
                    t.held = true;
                }
                // Every length up to the horizon, peeked ahead.
                const TokenCount until =
                    std::min(fresh.horizon, t.generated + 50);
                for (TokenCount g = t.generated; g < until; ++g) {
                    ASSERT_EQ(scheduler
                                  .peekWithHorizon(t.slot, t.id, g,
                                                   kCap)
                                  .predicted,
                              fresh.predicted)
                        << "op " << op << " g " << g;
                }
            }
        }
    }
}

/**
 * Sticky samples are keyed by generation-tagged slots: a released
 * slot's handle names no sample once the next generation holds the
 * index, a stale release leaves the holder's sample alone, and
 * finishing or releasing leaves no sample behind.
 */
TEST(PastFutureSlotTest, StaleSlotNamesNoSample)
{
    PastFutureParams params;
    params.windowSize = 16;
    params.seed = 5;
    PastFutureScheduler scheduler(params);
    std::vector<TokenCount> window;
    for (TokenCount length = 10; length <= 160; length += 10) {
        scheduler.onRequestFinished(900 + length, length);
        window.push_back(length);
    }
    const LengthDistribution dist(window);
    Rng draws(params.seed);  // the scheduler's RNG, replayed
    constexpr TokenCount kCap = 1000;
    // predict() through the routing estimate of a one-request queue.
    auto predict = [&](RequestSlot slot, RequestId id) {
        WaitingView view;
        view.id = id;
        view.slot = slot;
        view.maxNewTokens = kCap;
        SchedulerContext ctx;
        ctx.waiting = std::span<const WaitingView>(&view, 1);
        return scheduler.estimateLoad(ctx);
    };
    const TokenCount mean = dist.tailMean(0, kCap);
    const RequestSlot old_slot = makeSlot(2, 7);
    const RequestSlot new_slot = makeSlot(2, 8);

    const TokenCount old_sticky = dist.sampleTailFrom(
        draws.uniformDouble(), dist.tailStart(0), kCap);
    EXPECT_EQ(predict(old_slot, 1), old_sticky);
    EXPECT_EQ(scheduler.peekPrediction(1, 0, kCap), old_sticky);
    scheduler.onSlotReleased(old_slot, 1);
    EXPECT_EQ(scheduler.stickySampleCount(), 0u);
    const PredictionPeek gone =
        scheduler.peekWithHorizon(old_slot, 1, 0, kCap);
    EXPECT_EQ(gone.predicted, mean);
    EXPECT_EQ(gone.horizon, 1);  // its next predict draws afresh

    const TokenCount new_sticky = dist.sampleTailFrom(
        draws.uniformDouble(), dist.tailStart(0), kCap);
    EXPECT_EQ(predict(new_slot, 2), new_sticky);
    EXPECT_EQ(scheduler.peekWithHorizon(old_slot, 2, 0, kCap).predicted,
              mean);
    scheduler.onSlotReleased(old_slot, 2);  // stale: no effect
    EXPECT_EQ(scheduler.stickySampleCount(), 1u);
    EXPECT_EQ(scheduler.peekWithHorizon(new_slot, 2, 0, kCap).predicted,
              new_sticky);
    scheduler.onRequestFinished(2, 50);  // by id: the slotted sample
    EXPECT_EQ(scheduler.stickySampleCount(), 0u);
}

/**
 * Sticky samples have one key, the engine's slot: a StickySample
 * round that must draw a sample for a slot-less view, running member
 * or candidate, panics instead of keeping it under the request id.
 */
TEST(PastFutureSlotDeathTest, StickySampleNeedsASlot)
{
    PastFutureParams params;
    params.windowSize = 16;
    PastFutureScheduler scheduler(params);
    for (TokenCount length = 10; length <= 160; length += 10)
        scheduler.onRequestFinished(900 + length, length);

    RunningView member;
    member.id = 1;
    member.promptLen = 10;
    member.generatedLen = 5;
    member.maxNewTokens = 1000;
    WaitingView candidate;
    candidate.id = 2;
    candidate.promptLen = 10;
    candidate.maxNewTokens = 1000;
    SchedulerContext ctx;
    ctx.capacityTokens = 100'000;
    ctx.running = std::span<const RunningView>(&member, 1);
    ctx.waiting = std::span<const WaitingView>(&candidate, 1);
    EXPECT_DEATH(scheduler.beginAdmissionRound(ctx),
                 "request 1 needs a slot");

    member.slot = makeSlot(0, 0);
    scheduler.beginAdmissionRound(ctx);
    EXPECT_DEATH(scheduler.tryAdmit(candidate),
                 "request 2 needs a slot");
}

/**
 * The predictor-free schedulers peek the cap, max(l_t, cap), which
 * no finish or admission moves: the horizon reaches the cap, so a
 * decoding request re-peeks at most once, and every length the
 * request grows to before it returns the peeked value.
 */
TEST(CapPeekTest, HorizonHoldsToTheCap)
{
    constexpr TokenCount kCap = 300;
    AggressiveScheduler aggressive;
    ConservativeScheduler conservative;
    OracleScheduler oracle;
    for (Scheduler *scheduler : std::initializer_list<Scheduler *>{
             &aggressive, &conservative, &oracle}) {
        SCOPED_TRACE(scheduler->name());
        for (const TokenCount g :
             std::initializer_list<TokenCount>{0, 1, 17, 150, kCap - 1}) {
            const PredictionPeek peek = scheduler->peekWithHorizon(
                makeSlot(3, 1), 7, g, kCap);
            EXPECT_EQ(peek.predicted, kCap);
            EXPECT_EQ(peek.horizon, kCap);
            for (TokenCount later = g; later < peek.horizon; ++later) {
                ASSERT_EQ(scheduler->peekPrediction(7, later, kCap),
                          peek.predicted)
                    << "g " << g << " later " << later;
            }
            scheduler->onRequestFinished(8, 40);
            EXPECT_EQ(scheduler->peekWithHorizon(makeSlot(3, 1), 7, g,
                                                 kCap)
                          .predicted,
                      peek.predicted);
        }
        // Past the cap (a request can not get there, but the peek
        // stays total): the length itself, holding for one token.
        const PredictionPeek past =
            scheduler->peekWithHorizon(kInvalidSlot, 7, kCap + 5, kCap);
        EXPECT_EQ(past.predicted, kCap + 5);
        EXPECT_EQ(past.horizon, kCap + 6);
    }
}

/**
 * Whole admission rounds against the copy-and-sort algorithm they
 * replaced: a reference replays the scheduler's RNG (sticky variates
 * and perturbation draws, in the same order), scores every trial by
 * copying the batch, appending the candidate and sorting, and must
 * reach the same decision for every candidate. Candidates include
 * re-queued ones (generated > 0), whose tails start past the front.
 */
TEST_P(IncrementalPeakProperty, AdmissionMatchesCopyAndSortReference)
{
    const std::uint64_t seed = GetParam();
    constexpr TokenCount kCap = 400;
    Rng rng(seed);
    PastFutureParams params;
    params.windowSize = 64;
    params.seed = seed;
    PastFutureScheduler scheduler(params);
    // The scheduler's window, mirrored from what it observes.
    testfx::FifoWindow window(params.windowSize);
    RequestId observed = 1'000'000;  // ids of requests seen finishing
    for (int i = 0; i < 64; ++i) {
        const TokenCount length = rng.uniformInt(1, 300);
        scheduler.onRequestFinished(observed++, length);
        window.push(length);
    }

    Rng draws(params.seed);  // the scheduler's RNG, replayed
    std::unordered_map<RequestId, double> sticky;
    int decisions[2] = {0, 0};  // rejected, admitted
    auto clamp_prediction = [&](TokenCount predicted, TokenCount g) {
        return std::max(std::min(predicted, kCap), g);
    };

    for (int round = 0; round < 40; ++round) {
        std::vector<RunningView> running(
            static_cast<std::size_t>(rng.uniformInt(0, 12)));
        for (std::size_t i = 0; i < running.size(); ++i) {
            RunningView &view = running[i];
            view.id = round * 100 + static_cast<RequestId>(i);
            view.slot =
                makeSlot(static_cast<std::uint32_t>(view.id), 0);
            view.promptLen = rng.uniformInt(1, 200);
            view.cachedPrefixLen = rng.uniformInt(0, view.promptLen);
            view.generatedLen = rng.uniformInt(0, 250);
            view.maxNewTokens = kCap;
        }
        std::vector<WaitingView> waiting(6);
        for (std::size_t j = 0; j < waiting.size(); ++j) {
            WaitingView &view = waiting[j];
            view.id = round * 100 + 50 + static_cast<RequestId>(j);
            view.slot =
                makeSlot(static_cast<std::uint32_t>(view.id), 0);
            view.promptLen = rng.uniformInt(1, 200);
            view.generatedLen =
                bernoulli(rng, 0.5) ? rng.uniformInt(1, 250) : 0;
            view.maxNewTokens = kCap;
        }
        SchedulerContext ctx;
        ctx.capacityTokens = rng.uniformInt(500, 6000);
        ctx.perRequestOverhead = 16;
        ctx.running = running;
        ctx.waiting = waiting;

        const LengthDistribution dist(window.contents());
        auto predict = [&](RequestId id, TokenCount g) {
            auto [it, inserted] = sticky.try_emplace(id, 0.0);
            if (inserted)
                it->second = draws.uniformDouble();
            return clamp_prediction(
                dist.sampleTailFrom(it->second, dist.tailStart(g),
                                    kCap),
                g);
        };
        auto perturbed = [&](TokenCount g) {
            return clamp_prediction(
                dist.sampleTailFrom(draws, dist.tailStart(g), kCap),
                g);
        };

        scheduler.beginAdmissionRound(ctx);
        const auto trials =
            static_cast<std::size_t>(params.admissionTrials);
        std::vector<std::vector<BatchEntry>> batches(trials);
        for (std::size_t t = 0; t < trials; ++t) {
            for (const RunningView &view : running) {
                batches[t].push_back(BatchEntry{
                    view.promptLen - view.cachedPrefixLen,
                    view.generatedLen,
                    t == 0 ? predict(view.id, view.generatedLen)
                           : perturbed(view.generatedLen)});
            }
        }
        const auto limit = static_cast<TokenCount>(
            static_cast<double>(ctx.capacityTokens) *
            (1.0 - params.reservedRatio));
        std::size_t admitted = 0;
        for (const WaitingView &candidate : waiting) {
            std::vector<BatchEntry> entries(trials);
            std::vector<double> peaks(trials);
            for (std::size_t t = 0; t < trials; ++t) {
                const TokenCount g = candidate.generatedLen;
                const TokenCount predicted =
                    t == 0 ? predict(candidate.id, g) : perturbed(g);
                entries[t] = BatchEntry{candidate.promptLen + g, 0,
                                        predicted - g};
                std::vector<BatchEntry> copy = batches[t];
                copy.push_back(entries[t]);
                peaks[t] =
                    static_cast<double>(futureRequiredMemory(copy));
            }
            double mean = 0.0;
            for (double peak : peaks)
                mean += peak;
            mean /= static_cast<double>(peaks.size());
            double variance = 0.0;
            for (double peak : peaks)
                variance += (peak - mean) * (peak - mean);
            variance /= static_cast<double>(peaks.size());
            const double estimate =
                mean + params.riskFactor * std::sqrt(variance);
            const auto batch_size = static_cast<TokenCount>(
                running.size() + admitted + 1);
            const TokenCount overhead =
                ctx.perRequestOverhead * batch_size;
            const bool fits =
                static_cast<TokenCount>(estimate) + overhead <= limit;
            ASSERT_EQ(scheduler.tryAdmit(candidate), fits)
                << "seed " << seed << " round " << round
                << " candidate " << candidate.id;
            ++decisions[fits ? 1 : 0];
            if (fits) {
                for (std::size_t t = 0; t < trials; ++t)
                    batches[t].push_back(entries[t]);
                ++admitted;
            }
        }
        // The window moves between rounds.
        const auto finished = rng.uniformInt(0, 3);
        for (std::int64_t k = 0; k < finished; ++k) {
            const TokenCount length = rng.uniformInt(1, 300);
            scheduler.onRequestFinished(observed++, length);
            window.push(length);
        }
    }
    EXPECT_GT(decisions[0], 0) << "seed " << seed;
    EXPECT_GT(decisions[1], 0) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPeakProperty,
                         ::testing::Values(3u, 14u, 159u, 2653u,
                                           58979u, 323846u));

} // namespace
} // namespace core
} // namespace lightllm
