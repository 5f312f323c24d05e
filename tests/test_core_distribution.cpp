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

namespace lightllm {
namespace core {
namespace {

TEST(HistoryWindowTest, GrowsUntilCapacity)
{
    HistoryWindow window(3);
    EXPECT_TRUE(window.empty());
    window.push(1);
    window.push(2);
    EXPECT_EQ(window.size(), 2u);
    window.push(3);
    window.push(4);
    EXPECT_EQ(window.size(), 3u);
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
    EXPECT_EQ(window.size(), 32u);
    for (TokenCount value : window.snapshot())
        EXPECT_EQ(value, 4096);
}

TEST(HistoryWindowTest, SeedClampsToCapacity)
{
    HistoryWindow window(8);
    window.seed(100, 32);
    EXPECT_EQ(window.size(), 8u);
}

TEST(HistoryWindowTest, RealPushesReplaceSeedsFirst)
{
    HistoryWindow window(100);
    window.seed(4096, 4);
    window.push(10);
    window.push(20);
    // Window still holds 4 entries: 2 real, 2 remaining seeds.
    EXPECT_EQ(window.size(), 4u);
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
    EXPECT_EQ(window.size(), 5u);
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
    EXPECT_EQ(dist.quantile(0.5), 0);
    EXPECT_DOUBLE_EQ(dist.probGreater(0), 0.0);
    EXPECT_DOUBLE_EQ(dist.meanLength(), 0.0);
}

TEST(LengthDistributionTest, SampleOnlyRecordedValues)
{
    Rng rng(1);
    const LengthDistribution dist({5, 10, 15});
    for (int i = 0; i < 100; ++i) {
        const auto value = dist.sample(rng);
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
        counts[dist.sample(rng)] += 1;
    for (int v = 1; v <= 4; ++v)
        EXPECT_NEAR(static_cast<double>(counts[v]) / n, 0.25, 0.01);
}

TEST(LengthDistributionTest, TailSampleExceedsThreshold)
{
    Rng rng(3);
    const LengthDistribution dist({10, 20, 30, 40, 50});
    for (int i = 0; i < 200; ++i) {
        const auto value = dist.sampleTail(rng, 25, 999);
        EXPECT_GT(value, 25);
        EXPECT_NE(value, 999);
    }
}

TEST(LengthDistributionTest, TailSampleFallsBackWhenEmpty)
{
    Rng rng(4);
    const LengthDistribution dist({10, 20});
    EXPECT_EQ(dist.sampleTail(rng, 20, 777), 777);
    EXPECT_EQ(dist.sampleTail(rng, 100, 777), 777);
}

TEST(LengthDistributionTest, TailSampleThresholdIsStrict)
{
    Rng rng(5);
    const LengthDistribution dist({10, 20});
    // Elements strictly greater than 10: only 20.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(dist.sampleTail(rng, 10, 777), 20);
}

TEST(LengthDistributionTest, SampleTailAtIsQuantileOfTail)
{
    const LengthDistribution dist({10, 20, 30, 40});
    EXPECT_EQ(dist.sampleTailAt(0.0, 0, 999), 10);
    EXPECT_EQ(dist.sampleTailAt(0.99, 0, 999), 40);
    EXPECT_EQ(dist.sampleTailAt(0.5, 0, 999), 30);
    // Tail above 20 is {30, 40}.
    EXPECT_EQ(dist.sampleTailAt(0.0, 20, 999), 30);
    EXPECT_EQ(dist.sampleTailAt(0.6, 20, 999), 40);
    EXPECT_EQ(dist.sampleTailAt(0.0, 40, 999), 999);
}

TEST(LengthDistributionTest, SampleTailAtMonotoneInThreshold)
{
    // Quantile coupling requires: for fixed u, the prediction never
    // decreases as the request generates more tokens.
    const LengthDistribution dist({5, 9, 13, 20, 21, 34, 55, 80});
    for (double u : {0.0, 0.3, 0.7, 0.99}) {
        TokenCount previous = 0;
        for (TokenCount threshold = 0; threshold <= 80; ++threshold) {
            const auto value =
                dist.sampleTailAt(u, threshold, 1000);
            EXPECT_GE(value, previous)
                << "u=" << u << " threshold=" << threshold;
            previous = value;
        }
    }
}

TEST(LengthDistributionTest, SampleTailAtMonotoneInU)
{
    const LengthDistribution dist({5, 9, 13, 20, 21, 34, 55, 80});
    TokenCount previous = 0;
    for (double u = 0.0; u < 1.0; u += 0.05) {
        const auto value = dist.sampleTailAt(u, 10, 1000);
        EXPECT_GE(value, previous);
        previous = value;
    }
}

TEST(LengthDistributionTest, ProbGreaterCountsStrictly)
{
    const LengthDistribution dist({10, 20, 20, 30});
    EXPECT_DOUBLE_EQ(dist.probGreater(9), 1.0);
    EXPECT_DOUBLE_EQ(dist.probGreater(10), 0.75);
    EXPECT_DOUBLE_EQ(dist.probGreater(20), 0.25);
    EXPECT_DOUBLE_EQ(dist.probGreater(30), 0.0);
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
    EXPECT_EQ(dist.tailQuantile(0, 0.5, 999), 20);
    EXPECT_EQ(dist.tailQuantile(0, 1.0, 999), 40);
    EXPECT_EQ(dist.tailQuantile(20, 0.5, 999), 30);
    EXPECT_EQ(dist.tailQuantile(40, 0.5, 999), 999);
}

TEST(LengthDistributionTest, QuantileNearestRank)
{
    const LengthDistribution dist({10, 20, 30, 40, 50});
    EXPECT_EQ(dist.quantile(0.0), 10);
    EXPECT_EQ(dist.quantile(0.5), 30);
    EXPECT_EQ(dist.quantile(1.0), 50);
}

TEST(LengthDistributionTest, MeanAndMax)
{
    const LengthDistribution dist({1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(dist.meanLength(), 2.5);
    EXPECT_EQ(dist.maxLength(), 4);
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
                (!values.empty() && rng.bernoulli(0.3))) {
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
 * Property: with u ~ Uniform, sampleTailAt reproduces the same law
 * as uniform tail sampling (the coupling is distribution-exact).
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

    Rng rng(123);
    double coupled_sum = 0.0;
    double direct_sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        coupled_sum += static_cast<double>(dist.sampleTailAt(
            rng.uniformDouble(), threshold, 0));
        direct_sum += static_cast<double>(
            dist.sampleTail(rng, threshold, 0));
    }
    EXPECT_NEAR(coupled_sum / n, direct_sum / n,
                1.0 + 0.01 * static_cast<double>(threshold));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CouplingLawProperty,
                         ::testing::Values(0, 10, 50, 90));

} // namespace
} // namespace core
} // namespace lightllm
