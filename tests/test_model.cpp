/**
 * @file
 * Tests for model/hardware specs and the roofline performance model.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "model/hardware_spec.hh"
#include "model/model_spec.hh"
#include "model/perf_model.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace model {
namespace {

TEST(ModelSpecTest, KvBytesPerTokenMatchPublishedShapes)
{
    // 2 (K,V) * layers * kv_heads * head_dim * 2 bytes.
    EXPECT_EQ(ModelSpec::llama2_7b().kvBytesPerToken(), 524288);
    EXPECT_EQ(ModelSpec::llama2_13b().kvBytesPerToken(), 819200);
    // 70B uses grouped-query attention (8 KV heads): smaller
    // per-token KV than 7B despite 10x parameters.
    EXPECT_EQ(ModelSpec::llama2_70b().kvBytesPerToken(), 327680);
}

TEST(ModelSpecTest, WeightBytesScaleWithParams)
{
    EXPECT_EQ(ModelSpec::llama2_7b().weightBytes(),
              2 * 6'738'000'000ll);
    EXPECT_GT(ModelSpec::llama2_70b().weightBytes(),
              5 * ModelSpec::llama2_7b().weightBytes());
}

TEST(ModelSpecTest, MultimodalSpecsCarryImageTokens)
{
    EXPECT_EQ(ModelSpec::qwenVlChat().imageTokens, 256);
    EXPECT_EQ(ModelSpec::llava15_7b().imageTokens, 576);
    EXPECT_EQ(ModelSpec::llava15_13b().imageTokens, 576);
    EXPECT_EQ(ModelSpec::llama2_7b().imageTokens, 0);
}

TEST(HardwareSpecTest, TensorParallelAggregatesMemory)
{
    const auto single = HardwareSpec::a100_80g();
    const auto quad = single.withTensorParallel(4);
    EXPECT_EQ(quad.numDevices, 4);
    EXPECT_EQ(quad.totalMemBytes(), 4 * single.totalMemBytes());
    EXPECT_GT(quad.effectiveBandwidth(),
              3.0 * single.effectiveBandwidth());
    EXPECT_LT(quad.effectiveBandwidth(),
              4.0 * single.effectiveBandwidth());
}

TEST(HardwareSpecTest, SingleDevicePaysNoTpPenalty)
{
    const auto spec = HardwareSpec::a100_80g();
    EXPECT_DOUBLE_EQ(spec.effectiveBandwidth(),
                     spec.memBandwidthPerDevice);
}

TEST(HardwareSpecTest, PlatformOrdering)
{
    // H800 is faster than A100 on both axes; A30 is the slowest.
    EXPECT_GT(HardwareSpec::h800().memBandwidthPerDevice,
              HardwareSpec::a100_80g().memBandwidthPerDevice);
    EXPECT_LT(HardwareSpec::a30().memBandwidthPerDevice,
              HardwareSpec::rtx4090().memBandwidthPerDevice);
}

TEST(PerfModelTest, TokenCapacityIsPlausibleFor7bOnA100)
{
    const PerfModel perf(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    // ~(80 GB * 0.92 - 13.5 GB - reserve) / 0.5 MB per token.
    EXPECT_GT(perf.tokenCapacity(), 90'000);
    EXPECT_LT(perf.tokenCapacity(), 130'000);
}

TEST(PerfModelTest, BiggerModelHasSmallerCapacity)
{
    const PerfModel small(ModelSpec::llama2_7b(),
                          HardwareSpec::a100_80g());
    const PerfModel big(ModelSpec::llama2_13b(),
                        HardwareSpec::a100_80g());
    EXPECT_LT(big.tokenCapacity(), small.tokenCapacity());
}

TEST(PerfModelTest, SeventyBillionFitsOnlyWithTensorParallel)
{
    EXPECT_TRUE(testfx::throwsWith<std::invalid_argument>(
        [] {
            PerfModel(ModelSpec::llama2_70b(),
                      HardwareSpec::a100_80g());
        },
        "does not fit"));
    const PerfModel tp4(ModelSpec::llama2_70b(),
                        HardwareSpec::a100_80g()
                            .withTensorParallel(4));
    EXPECT_GT(tp4.tokenCapacity(), 100'000);
}

TEST(PerfModelTest, PrefillLatencyGrowsWithPromptLength)
{
    const PerfModel perf(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    const Tick short_prompt = perf.prefillLatency(128);
    const Tick long_prompt = perf.prefillLatency(4096);
    EXPECT_LT(short_prompt, long_prompt);
}

TEST(PerfModelTest, PrefillMagnitudeIsRealistic)
{
    const PerfModel perf(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    // A 2k-token 7B prefill on A100 is commonly reported in the
    // 150-600 ms range.
    const double seconds = ticksToSeconds(perf.prefillLatency(2048));
    EXPECT_GT(seconds, 0.05);
    EXPECT_LT(seconds, 1.0);
}

TEST(PerfModelTest, DecodeLatencyGrowsWithKvFootprint)
{
    const PerfModel perf(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    EXPECT_LT(perf.decodeLatency(8, 10'000),
              perf.decodeLatency(8, 100'000));
}

TEST(PerfModelTest, DecodeMagnitudeIsRealistic)
{
    const PerfModel perf(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    // Decode with a substantial batch: tens of milliseconds.
    const double seconds =
        ticksToSeconds(perf.decodeLatency(64, 100'000));
    EXPECT_GT(seconds, 0.005);
    EXPECT_LT(seconds, 0.2);
}

TEST(PerfModelTest, WeightStreamingFloorDominatesTinyBatch)
{
    const PerfModel perf(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    // Batch 1 with negligible KV is bounded below by streaming the
    // weights once (~6-8 ms at 2 TB/s).
    const double seconds = ticksToSeconds(perf.decodeLatency(1, 64));
    EXPECT_GT(seconds, 0.005);
}

TEST(PerfModelTest, FasterHardwareIsFaster)
{
    const PerfModel a100(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    const PerfModel h800(ModelSpec::llama2_7b(),
                         HardwareSpec::h800());
    EXPECT_LT(h800.decodeLatency(32, 50'000),
              a100.decodeLatency(32, 50'000));
    EXPECT_LT(h800.prefillLatency(2048), a100.prefillLatency(2048));
}

TEST(PerfModelTest, FusedStepCostsAtLeastDecode)
{
    const PerfModel perf(ModelSpec::llama2_7b(),
                         HardwareSpec::a100_80g());
    EXPECT_GE(perf.fusedStepLatency(32, 50'000, 512),
              perf.decodeLatency(32, 50'000) -
                  secondsToTicks(0.001));
}

/** Capacity must be positive and monotone in TP degree. */
class TpCapacityProperty : public ::testing::TestWithParam<int>
{};

TEST_P(TpCapacityProperty, CapacityGrowsWithDevices)
{
    const int n = GetParam();
    const PerfModel perf(
        ModelSpec::llama2_13b(),
        HardwareSpec::a100_80g().withTensorParallel(n));
    const PerfModel bigger(
        ModelSpec::llama2_13b(),
        HardwareSpec::a100_80g().withTensorParallel(n + 1));
    EXPECT_GT(perf.tokenCapacity(), 0);
    EXPECT_GT(bigger.tokenCapacity(), perf.tokenCapacity());
}

INSTANTIATE_TEST_SUITE_P(Degrees, TpCapacityProperty,
                         ::testing::Values(1, 2, 3, 4, 6));

} // namespace
} // namespace model
} // namespace lightllm
