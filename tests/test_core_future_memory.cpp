/**
 * @file
 * Tests for the future-required-memory computation (Eqs. 2-4),
 * including a brute-force token-by-token simulation oracle and the
 * scheduling scenarios of the paper's Figures 5 and 6.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/rng.hh"
#include "core/future_memory.hh"

namespace lightllm {
namespace core {
namespace {

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

TEST(FutureMemoryTest, SpanOverloadDoesNotMutate)
{
    const std::vector<BatchEntry> entries{{10, 0, 4}, {20, 0, 2}};
    const auto copy = entries;
    EXPECT_EQ(futureRequiredMemory(std::span<const BatchEntry>(
                  entries)),
              34);
    EXPECT_EQ(entries[0].promptLen, copy[0].promptLen);
    EXPECT_EQ(entries[1].promptLen, copy[1].promptLen);
}

TEST(FutureMemoryTest, ProfileIsInCompletionOrder)
{
    std::vector<BatchEntry> entries{{10, 0, 4}, {20, 0, 2}};
    const auto profile = futureMemoryProfile(entries);
    ASSERT_EQ(profile.size(), 2u);
    // Earliest completion first: B at 34, then A at 14.
    EXPECT_EQ(profile[0], 34);
    EXPECT_EQ(profile[1], 14);
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

} // namespace
} // namespace core
} // namespace lightllm
