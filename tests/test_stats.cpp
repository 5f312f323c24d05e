/**
 * @file
 * Unit and property tests for the statistics module.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/rng.hh"
#include "stats/histogram.hh"
#include "stats/percentile.hh"
#include "stats/similarity.hh"
#include "stats/window_analysis.hh"

namespace lightllm {
namespace stats {
namespace {

TEST(HistogramTest, BinsValuesByWidth)
{
    Histogram hist(10, 4);
    hist.add(0);
    hist.add(9);
    hist.add(10);
    hist.add(35);
    // Quarters: two samples in bin 0, one each in bins 1 and 3.
    EXPECT_EQ(hist.normalized(),
              (std::vector<double>{0.5, 0.25, 0.0, 0.25}));
}

TEST(HistogramTest, OverflowClampsToLastBin)
{
    Histogram hist(10, 4);
    hist.add(1000);
    EXPECT_EQ(hist.normalized()[3], 1.0);
}

TEST(HistogramTest, NegativeClampsToFirstBin)
{
    Histogram hist(10, 4);
    hist.add(-5);
    EXPECT_EQ(hist.normalized()[0], 1.0);
}

TEST(HistogramTest, WeightedAdd)
{
    Histogram hist(10, 4);
    hist.add(5, 7);
    hist.add(15);
    // Weight 7 in bin 0 against one sample in bin 1.
    EXPECT_EQ(hist.normalized(),
              (std::vector<double>{7.0 / 8, 1.0 / 8, 0.0, 0.0}));
}

TEST(HistogramTest, NormalizedSumsToOne)
{
    Histogram hist(10, 8);
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        hist.add(rng.uniformInt(0, 79));
    const auto probs = hist.normalized();
    double sum = 0.0;
    for (double p : probs)
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, NormalizedEmptyIsAllZero)
{
    Histogram hist(10, 4);
    for (double p : hist.normalized())
        EXPECT_EQ(p, 0.0);
}

TEST(PercentileTest, NearestRankSemantics)
{
    std::vector<double> values{10, 20, 30, 40, 50};
    EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(values, 0.2), 10.0);
    EXPECT_DOUBLE_EQ(percentile(values, 0.21), 20.0);
    EXPECT_DOUBLE_EQ(percentile(values, 0.5), 30.0);
    EXPECT_DOUBLE_EQ(percentile(values, 1.0), 50.0);
}

TEST(PercentileTest, EmptyReturnsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.99), 0.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(PercentileTest, P99WithHundredSamples)
{
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(percentile(values, 0.99), 99.0);
}

TEST(SimilarityTest, IdenticalVectorsAreOne)
{
    const std::vector<double> v{1.0, 2.0, 3.0};
    EXPECT_NEAR(cosineSimilarity(v, v), 1.0, 1e-12);
}

TEST(SimilarityTest, OrthogonalVectorsAreZero)
{
    const std::vector<double> a{1.0, 0.0};
    const std::vector<double> b{0.0, 5.0};
    EXPECT_DOUBLE_EQ(cosineSimilarity(a, b), 0.0);
}

TEST(SimilarityTest, ScaleInvariant)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{10.0, 20.0, 30.0};
    EXPECT_NEAR(cosineSimilarity(a, b), 1.0, 1e-12);
}

TEST(SimilarityTest, ZeroVectorYieldsZero)
{
    const std::vector<double> a{0.0, 0.0};
    const std::vector<double> b{1.0, 1.0};
    EXPECT_DOUBLE_EQ(cosineSimilarity(a, b), 0.0);
}

TEST(SimilarityDeathTest, SizeMismatchPanics)
{
    const std::vector<double> a{1.0};
    const std::vector<double> b{1.0, 2.0};
    EXPECT_DEATH(cosineSimilarity(a, b), "mismatch");
}

/** Stationary trace: every window drawn from the same law. */
std::vector<std::int64_t>
stationaryTrace(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int64_t> outputs;
    outputs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        outputs.push_back(static_cast<std::int64_t>(
            rng.logNormal(std::log(300.0), 0.6)));
    }
    return outputs;
}

/** Trace whose law switches abruptly every `regime` requests. */
std::vector<std::int64_t>
regimeTrace(std::size_t n, std::size_t regime, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int64_t> outputs;
    outputs.reserve(n);
    double mu = std::log(100.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0 && i % regime == 0)
            mu = std::log(100.0) + rng.uniformDouble() * 3.0;
        outputs.push_back(
            static_cast<std::int64_t>(rng.logNormal(mu, 0.4)));
    }
    return outputs;
}

TEST(WindowAnalysisTest, MatrixShapeAndDiagonal)
{
    const auto trace = stationaryTrace(5000, 17);
    const auto matrix = windowSimilarityMatrix(trace, 1000);
    EXPECT_EQ(matrix.numWindows, 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_DOUBLE_EQ(matrix.at(i, i), 1.0);
    // Symmetry.
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_DOUBLE_EQ(matrix.at(i, j), matrix.at(j, i));
    }
}

TEST(WindowAnalysisTest, StationaryTraceIsGloballySimilar)
{
    const auto trace = stationaryTrace(10000, 21);
    const auto matrix = windowSimilarityMatrix(trace, 1000);
    EXPECT_GT(matrix.globalMean(), 0.9);
    EXPECT_GT(matrix.adjacentMean(), 0.9);
}

TEST(WindowAnalysisTest, RegimeTraceAdjacentBeatsGlobal)
{
    // Long regimes (5 windows wide): adjacent windows usually share
    // a regime while distant windows usually do not — the paper's
    // core observation for API-style traces.
    const auto trace = regimeTrace(20000, 5000, 23);
    const auto matrix = windowSimilarityMatrix(trace, 1000);
    EXPECT_GT(matrix.adjacentMean(), matrix.globalMean() + 0.05);
}

TEST(WindowAnalysisTest, AdjacentWindowStatsOnRegimeTrace)
{
    const auto trace = regimeTrace(20000, 5000, 29);
    const auto result = adjacentWindowSimilarity(trace, 1000, 1000);
    EXPECT_GT(result.numPairs, 10u);
    EXPECT_GT(result.diagonalMean, result.globalMean);
    EXPECT_GT(result.diagonalMean, 0.7);
}

TEST(WindowAnalysisTest, AsymmetricWindowSizes)
{
    const auto trace = stationaryTrace(20000, 31);
    const auto result = adjacentWindowSimilarity(trace, 2000, 500);
    EXPECT_GT(result.numPairs, 0u);
    EXPECT_GT(result.diagonalMean, 0.85);
}

TEST(WindowAnalysisTest, TooShortTraceYieldsNoPairs)
{
    const auto trace = stationaryTrace(100, 37);
    const auto result = adjacentWindowSimilarity(trace, 1000, 1000);
    EXPECT_EQ(result.numPairs, 0u);
    EXPECT_DOUBLE_EQ(result.diagonalMean, 0.0);
}

/** Property sweep: diagonal-over-global holds across seeds. */
class RegimeTraceProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RegimeTraceProperty, DiagonalDominatesGlobal)
{
    const auto trace = regimeTrace(16000, 4000, GetParam());
    const auto result = adjacentWindowSimilarity(trace, 1000, 1000);
    EXPECT_GE(result.diagonalMean, result.globalMean - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegimeTraceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u,
                                           7u, 8u));

} // namespace
} // namespace stats
} // namespace lightllm
