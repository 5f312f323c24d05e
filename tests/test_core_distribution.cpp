/**
 * @file
 * Tests for the "past" half of the scheduler: the length
 * predictor's window and the empirical output-length distribution
 * (Eq. 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/rng.hh"
#include "core/length_distribution.hh"
#include "core/length_predictor.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace core {
namespace {

using testfx::bernoulli;

/** The predictor's window contents, read from its distribution
 *  (sorted). */
std::vector<TokenCount>
windowContents(const LengthPredictor &predictor)
{
    const LengthDistribution &dist = predictor.distribution();
    std::vector<TokenCount> values;
    for (std::size_t i = 0; i < dist.size(); ++i)
        values.push_back(dist.tailMin(i, -1));
    return values;
}

TEST(LengthPredictorTest, GrowsUntilCapacity)
{
    LengthPredictor predictor(3);
    EXPECT_TRUE(predictor.distribution().empty());
    predictor.observe(1);
    predictor.observe(2);
    EXPECT_EQ(predictor.distribution().size(), 2u);
    predictor.observe(3);
    predictor.observe(4);
    EXPECT_EQ(predictor.distribution().size(), 3u);
}

TEST(LengthPredictorTest, EvictsOldestFirst)
{
    LengthPredictor predictor(3);
    for (TokenCount value : {1, 2, 3, 4})
        predictor.observe(value);
    EXPECT_EQ(windowContents(predictor),
              (std::vector<TokenCount>{2, 3, 4}));
    predictor.observe(1);
    EXPECT_EQ(windowContents(predictor),
              (std::vector<TokenCount>{1, 3, 4}));
}

TEST(LengthPredictorTest, VersionBumpsOnEveryObservation)
{
    LengthPredictor predictor(4);
    const auto v0 = predictor.version();
    predictor.observe(5);
    const auto v1 = predictor.version();
    EXPECT_GT(v1, v0);
    predictor.observe(5);
    EXPECT_GT(predictor.version(), v1);
}

TEST(LengthPredictorTest, ContentsBeforeWrapAreOnlyObservations)
{
    LengthPredictor predictor(10);
    predictor.observe(8);
    predictor.observe(7);
    EXPECT_EQ(windowContents(predictor),
              (std::vector<TokenCount>{7, 8}));
}

TEST(LengthPredictorTest, SeedFillsColdStartCount)
{
    const LengthPredictor predictor(100, 4096);
    EXPECT_EQ(windowContents(predictor),
              std::vector<TokenCount>(kColdStartSeedCount, 4096));
    EXPECT_TRUE(LengthPredictor(100).distribution().empty());
}

TEST(LengthPredictorTest, SeedClampsToCapacity)
{
    const LengthPredictor predictor(8, 100);
    EXPECT_EQ(windowContents(predictor),
              std::vector<TokenCount>(8, 100));
}

TEST(LengthPredictorTest, ObservationsReplaceSeedsFirst)
{
    constexpr std::size_t kHalf = kColdStartSeedCount / 2;
    LengthPredictor predictor(100, 4096);
    std::vector<TokenCount> observed;
    for (std::size_t i = 0; i < kHalf; ++i) {
        observed.push_back(static_cast<TokenCount>(10 * (i + 1)));
        predictor.observe(observed.back());
    }
    // The window still holds kColdStartSeedCount entries: half
    // observed, half remaining seeds.
    std::vector<TokenCount> expected = observed;
    expected.insert(expected.end(), kColdStartSeedCount - kHalf, 4096);
    EXPECT_EQ(windowContents(predictor), expected);
    for (std::size_t i = kHalf; i < kColdStartSeedCount; ++i) {
        observed.push_back(static_cast<TokenCount>(10 * (i + 1)));
        predictor.observe(observed.back());
    }
    // Every seed is gone after kColdStartSeedCount observations.
    EXPECT_EQ(windowContents(predictor), observed);
    // Further observations grow the window normally.
    predictor.observe(5000);
    EXPECT_EQ(predictor.distribution().size(), kColdStartSeedCount + 1);
}

TEST(LengthPredictorTest, SeedsWashOutBeforeAnyEviction)
{
    // A seeded window of 40: the 32 seeds go first, then the ring
    // evicts its oldest observation, never a later one.
    LengthPredictor predictor(40, 4096);
    testfx::FifoWindow reference(40, 4096);
    for (TokenCount value = 1; value <= 100; ++value) {
        predictor.observe(value);
        reference.push(value);
        std::vector<TokenCount> expected = reference.contents();
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(windowContents(predictor), expected) << value;
    }
    EXPECT_EQ(windowContents(predictor).front(), 61);
}

TEST(LengthPredictorTest, EmptyWindowFallsBackToCap)
{
    LengthPredictor predictor(100);
    EXPECT_EQ(predictor.expectedOutput(0, 4096), 4096);
    EXPECT_EQ(predictor.predictFootprint(500, 4096), 4596);
}

TEST(LengthPredictorTest, ExpectedOutputIsCappedTailMean)
{
    LengthPredictor predictor(100);
    for (int i = 0; i < 50; ++i)
        predictor.observe(100);
    EXPECT_EQ(predictor.expectedOutput(0, 4096), 100);
    // The cap binds when the tail mean exceeds it.
    EXPECT_EQ(predictor.expectedOutput(0, 60), 60);
    // A request that outlived all history gets the cap.
    EXPECT_EQ(predictor.expectedOutput(200, 4096), 4096);
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
