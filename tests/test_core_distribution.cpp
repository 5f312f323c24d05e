/**
 * @file
 * Tests for the "past" half of the scheduler: the history window
 * and the empirical output-length distribution (Eq. 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/rng.hh"
#include "core/history_window.hh"
#include "core/length_distribution.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace core {
namespace {

using testfx::bernoulli;

TEST(HistoryWindowTest, GrowsUntilCapacity)
{
    HistoryWindow window(3);
    EXPECT_TRUE(window.snapshot().empty());
    window.push(1);
    window.push(2);
    EXPECT_EQ(window.snapshot().size(), 2u);
    window.push(3);
    window.push(4);
    EXPECT_EQ(window.snapshot().size(), 3u);
}

TEST(HistoryWindowTest, EvictsOldestFirst)
{
    HistoryWindow window(3);
    for (TokenCount value : {1, 2, 3, 4})
        window.push(value);
    auto snapshot = window.snapshot();
    std::sort(snapshot.begin(), snapshot.end());
    EXPECT_EQ(snapshot, (std::vector<TokenCount>{2, 3, 4}));
}

TEST(HistoryWindowTest, VersionBumpsOnEveryPush)
{
    HistoryWindow window(4);
    const auto v0 = window.version();
    window.push(5);
    EXPECT_GT(window.version(), v0);
}

TEST(HistoryWindowTest, SnapshotBeforeWrapOnlyValidEntries)
{
    HistoryWindow window(10);
    window.push(7);
    window.push(8);
    const auto snapshot = window.snapshot();
    ASSERT_EQ(snapshot.size(), 2u);
    EXPECT_EQ(snapshot[0], 7);
    EXPECT_EQ(snapshot[1], 8);
}

TEST(HistoryWindowTest, SeedFillsRequestedCount)
{
    HistoryWindow window(100);
    window.seed(4096, 32);
    EXPECT_EQ(window.snapshot().size(), 32u);
    for (TokenCount value : window.snapshot())
        EXPECT_EQ(value, 4096);
}

TEST(HistoryWindowTest, SeedClampsToCapacity)
{
    HistoryWindow window(8);
    window.seed(100, 32);
    EXPECT_EQ(window.snapshot().size(), 8u);
}

TEST(HistoryWindowTest, RealPushesReplaceSeedsFirst)
{
    HistoryWindow window(100);
    window.seed(4096, 4);
    window.push(10);
    window.push(20);
    // Window still holds 4 entries: 2 real, 2 remaining seeds.
    EXPECT_EQ(window.snapshot().size(), 4u);
    auto snapshot = window.snapshot();
    std::sort(snapshot.begin(), snapshot.end());
    EXPECT_EQ(snapshot,
              (std::vector<TokenCount>{10, 20, 4096, 4096}));
    window.push(30);
    window.push(40);
    // All seeds gone after `seedCount` real completions.
    snapshot = window.snapshot();
    std::sort(snapshot.begin(), snapshot.end());
    EXPECT_EQ(snapshot, (std::vector<TokenCount>{10, 20, 30, 40}));
    // Further pushes append normally.
    window.push(50);
    EXPECT_EQ(window.snapshot().size(), 5u);
}

TEST(HistoryWindowDeathTest, SeedOnNonEmptyPanics)
{
    HistoryWindow window(4);
    window.push(1);
    EXPECT_DEATH(window.seed(10, 2), "non-empty");
}

TEST(LengthDistributionTest, EmptyBehaviour)
{
    const LengthDistribution dist;
    EXPECT_TRUE(dist.empty());
    EXPECT_EQ(dist.maxLength(), 0);
    // Every tail of an empty window is empty: each query falls back.
    EXPECT_EQ(dist.tailStart(0), 0u);
    Rng rng(1);
    EXPECT_EQ(dist.sampleTailFrom(rng, dist.tailStart(0), 777), 777);
    EXPECT_EQ(dist.tailQuantileFrom(dist.tailStart(0), 0.5, 0), 0);
    EXPECT_EQ(dist.tailMeanFrom(dist.tailStart(0), 0), 0);
}

TEST(LengthDistributionTest, SampleOnlyRecordedValues)
{
    // The tail above 0 is the whole of P(l).
    Rng rng(1);
    const LengthDistribution dist({5, 10, 15});
    for (int i = 0; i < 100; ++i) {
        const auto value =
            dist.sampleTailFrom(rng, dist.tailStart(0), 999);
        EXPECT_TRUE(value == 5 || value == 10 || value == 15);
    }
}

TEST(LengthDistributionTest, SampleIsUniformOverWindow)
{
    Rng rng(2);
    const LengthDistribution dist({1, 2, 3, 4});
    int counts[5] = {};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        counts[dist.sampleTailFrom(rng, dist.tailStart(0), 0)] += 1;
    for (int v = 1; v <= 4; ++v)
        EXPECT_NEAR(static_cast<double>(counts[v]) / n, 0.25, 0.01);
}

TEST(LengthDistributionTest, TailSampleExceedsThreshold)
{
    Rng rng(3);
    const LengthDistribution dist({10, 20, 30, 40, 50});
    for (int i = 0; i < 200; ++i) {
        const auto value =
            dist.sampleTailFrom(rng, dist.tailStart(25), 999);
        EXPECT_GT(value, 25);
        EXPECT_NE(value, 999);
    }
}

TEST(LengthDistributionTest, TailSampleFallsBackWhenEmpty)
{
    Rng rng(4);
    const LengthDistribution dist({10, 20});
    EXPECT_EQ(dist.sampleTailFrom(rng, dist.tailStart(20), 777), 777);
    EXPECT_EQ(dist.sampleTailFrom(rng, dist.tailStart(100), 777),
              777);
}

TEST(LengthDistributionTest, TailSampleThresholdIsStrict)
{
    Rng rng(5);
    const LengthDistribution dist({10, 20});
    // Elements strictly greater than 10: only 20.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(dist.sampleTailFrom(rng, dist.tailStart(10), 777),
                  20);
}

TEST(LengthDistributionTest, InverseCdfIsQuantileOfTail)
{
    const LengthDistribution dist({10, 20, 30, 40});
    const auto at = [&](double u, TokenCount threshold) {
        return dist.sampleTailFrom(u, dist.tailStart(threshold), 999);
    };
    EXPECT_EQ(at(0.0, 0), 10);
    EXPECT_EQ(at(0.99, 0), 40);
    EXPECT_EQ(at(0.5, 0), 30);
    // Tail above 20 is {30, 40}.
    EXPECT_EQ(at(0.0, 20), 30);
    EXPECT_EQ(at(0.6, 20), 40);
    EXPECT_EQ(at(0.0, 40), 999);
}

TEST(LengthDistributionTest, InverseCdfMonotoneInThreshold)
{
    // Quantile coupling requires: for fixed u, the prediction never
    // decreases as the request generates more tokens.
    const LengthDistribution dist({5, 9, 13, 20, 21, 34, 55, 80});
    for (double u : {0.0, 0.3, 0.7, 0.99}) {
        TokenCount previous = 0;
        for (TokenCount threshold = 0; threshold <= 80; ++threshold) {
            const auto value = dist.sampleTailFrom(
                u, dist.tailStart(threshold), 1000);
            EXPECT_GE(value, previous)
                << "u=" << u << " threshold=" << threshold;
            previous = value;
        }
    }
}

TEST(LengthDistributionTest, InverseCdfMonotoneInU)
{
    const LengthDistribution dist({5, 9, 13, 20, 21, 34, 55, 80});
    TokenCount previous = 0;
    for (double u = 0.0; u < 1.0; u += 0.05) {
        const auto value =
            dist.sampleTailFrom(u, dist.tailStart(10), 1000);
        EXPECT_GE(value, previous);
        previous = value;
    }
}

TEST(LengthDistributionTest, TailStartCountsStrictly)
{
    // The tail above x holds the lengths strictly greater than x.
    const LengthDistribution dist({10, 20, 20, 30});
    EXPECT_EQ(dist.tailStart(9), 0u);
    EXPECT_EQ(dist.tailStart(10), 1u);
    EXPECT_EQ(dist.tailStart(20), 3u);
    EXPECT_EQ(dist.tailStart(30), 4u);
}

TEST(LengthDistributionTest, TailMeanMatchesHandComputation)
{
    const LengthDistribution dist({10, 20, 30, 40});
    EXPECT_EQ(dist.tailMean(0, 999), 25);
    EXPECT_EQ(dist.tailMean(20, 999), 35);
    EXPECT_EQ(dist.tailMean(30, 999), 40);
    EXPECT_EQ(dist.tailMean(40, 999), 999);
}

TEST(LengthDistributionTest, TailQuantileMatchesHandComputation)
{
    const LengthDistribution dist({10, 20, 30, 40});
    const auto at = [&](TokenCount threshold, double q) {
        return dist.tailQuantileFrom(dist.tailStart(threshold), q,
                                     999);
    };
    EXPECT_EQ(at(0, 0.5), 20);
    EXPECT_EQ(at(0, 1.0), 40);
    EXPECT_EQ(at(20, 0.5), 30);
    EXPECT_EQ(at(40, 0.5), 999);
}

TEST(LengthDistributionTest, QuantileNearestRank)
{
    // Quantiles of the whole window: the tail above 0.
    const LengthDistribution dist({10, 20, 30, 40, 50});
    EXPECT_EQ(dist.tailQuantileFrom(dist.tailStart(0), 0.0, 0), 10);
    EXPECT_EQ(dist.tailQuantileFrom(dist.tailStart(0), 0.5, 0), 30);
    EXPECT_EQ(dist.tailQuantileFrom(dist.tailStart(0), 1.0, 0), 50);
}

TEST(LengthDistributionTest, MeanAndMax)
{
    const LengthDistribution dist({1, 2, 4, 5});
    EXPECT_EQ(dist.tailMeanFrom(dist.tailStart(0), 0), 3);
    EXPECT_EQ(dist.maxLength(), 5);
}

/**
 * Property: the tail mean kept from an exact integer total (plus
 * integer prefix sums for proper tails) equals the formula it
 * replaced — double prefix sums built left to right over the sorted
 * values, mean = (sum_n - sum_lo) / (n - lo), llround — through long
 * runs of incremental inserts and erases, including window-sized
 * samples of large lengths and thresholds below, inside and past
 * the recorded range.
 */
TEST(LengthDistributionTest, TailMeanMatchesDoublePrefixSumFormula)
{
    auto reference = [](std::vector<TokenCount> sorted,
                        TokenCount greater_than, TokenCount fallback) {
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> sums{0.0};
        for (TokenCount value : sorted)
            sums.push_back(sums.back() + static_cast<double>(value));
        const auto lo = static_cast<std::size_t>(
            std::upper_bound(sorted.begin(), sorted.end(),
                             greater_than) -
            sorted.begin());
        if (lo == sorted.size())
            return fallback;
        const double sum = sums.back() - sums[lo];
        return static_cast<TokenCount>(std::llround(
            sum / static_cast<double>(sorted.size() - lo)));
    };
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        const TokenCount max_len = seed % 2 == 0 ? 600 : 4'000'000;
        LengthDistribution dist;
        std::vector<TokenCount> values;
        for (int op = 0; op < 2500; ++op) {
            if (values.size() > 1000 ||
                (!values.empty() && bernoulli(rng, 0.3))) {
                const auto index = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          values.size()) - 1));
                dist.eraseValue(values[index]);
                values.erase(values.begin() +
                             static_cast<std::ptrdiff_t>(index));
            } else {
                const TokenCount value = rng.uniformInt(0, max_len);
                dist.insertValue(value);
                values.push_back(value);
            }
            for (int probe = 0; probe < 3; ++probe) {
                const TokenCount greater_than = probe == 0
                    ? 0
                    : rng.uniformInt(-1, max_len + 1);
                ASSERT_EQ(dist.tailMean(greater_than, 777),
                          reference(values, greater_than, 777))
                    << "seed " << seed << " op " << op;
            }
        }
        EXPECT_EQ(LengthDistribution(values).tailMean(0, 777),
                  reference(values, 0, 777));
    }
}

/**
 * Property: with u ~ Uniform, the inverse-CDF sampleTailFrom
 * reproduces the same law as the Rng draw over the same tail (the
 * coupling is distribution-exact).
 */
class CouplingLawProperty
    : public ::testing::TestWithParam<TokenCount>
{};

TEST_P(CouplingLawProperty, MatchesDirectTailSampling)
{
    const TokenCount threshold = GetParam();
    std::vector<TokenCount> values;
    for (TokenCount v = 1; v <= 100; ++v)
        values.push_back(v);
    const LengthDistribution dist(values);
    const std::size_t start = dist.tailStart(threshold);

    Rng rng(123);
    double coupled_sum = 0.0;
    double direct_sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        coupled_sum += static_cast<double>(
            dist.sampleTailFrom(rng.uniformDouble(), start, 0));
        direct_sum += static_cast<double>(
            dist.sampleTailFrom(rng, start, 0));
    }
    EXPECT_NEAR(coupled_sum / n, direct_sum / n,
                1.0 + 0.01 * static_cast<double>(threshold));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CouplingLawProperty,
                         ::testing::Values(0, 10, 50, 90));

} // namespace
} // namespace core
} // namespace lightllm
