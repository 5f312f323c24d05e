/**
 * @file
 * Property sweep over the engine's configuration space: for every
 * combination of scheduler kind, prefill strategy, and eviction
 * handling, a serving run must satisfy the same conservation and
 * timing invariants.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "workload/arrivals.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace {

using core::SchedulerKind;
using core::VictimOrder;
using engine::EvictionMode;

model::PerfModel
smallPerf()
{
    model::ModelSpec spec;
    spec.name = "small";
    spec.numParams = 100'000;
    spec.numLayers = 2;
    spec.hiddenSize = 128;
    spec.numHeads = 2;
    spec.numKvHeads = 2;
    spec.headDim = 64;
    model::HardwareSpec hw;
    hw.name = "small-gpu";
    hw.memBytesPerDevice = 3'000'000;  // ~2.4k token capacity
    hw.memBandwidthPerDevice = 1e12;
    hw.flopsPerDevice = 1e14;
    return model::PerfModel(spec, hw);
}

core::SchedulerConfig
configFor(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Conservative:
        return core::SchedulerConfig::conservative(1.0);
      case SchedulerKind::Aggressive:
        return core::SchedulerConfig::aggressive(0.99);
      case SchedulerKind::PastFuture:
        return core::SchedulerConfig::pastFutureDefault(0.05);
      case SchedulerKind::Oracle:
        return core::SchedulerConfig::oracle();
    }
    return {};
}

using Combo = std::tuple<SchedulerKind, bool, EvictionMode,
                         VictimOrder>;

class EngineInvariantProperty
    : public ::testing::TestWithParam<Combo>
{};

TEST_P(EngineInvariantProperty, RunSatisfiesInvariants)
{
    const auto [kind, split_fuse, evict_mode, evict_policy] =
        GetParam();

    engine::EngineConfig engine_config;
    engine_config.splitFuseChunk = split_fuse ? 96 : 0;
    engine_config.evictionMode = evict_mode;
    engine_config.evictionPolicy = evict_policy;

    // A workload that oversubscribes the ~2.4k-token capacity so
    // queueing (and for permissive schedulers, eviction) happens.
    const auto dataset = workload::makeUniformDataset(
        "prop", 60, 32, 256, 16, 320, 512,
        static_cast<std::uint64_t>(std::get<0>(GetParam())) * 7 + 1);

    engine::ServingEngine engine(
        smallPerf(), core::makeSchedulingPolicy(configFor(kind)),
        engine_config);
    workload::ClosedLoopClientPool clients(24, dataset, engine);
    engine.setOnFinish(
        [&](const workload::RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    const auto report = engine.run();

    // Conservation: every request finishes exactly once with its
    // full output; all KV memory is returned.
    EXPECT_EQ(report.numFinished, dataset.requests.size());
    EXPECT_EQ(report.totalOutputTokens,
              testfx::totalOutputTokens(dataset));
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
    EXPECT_EQ(engine.kvManager().numRequests(), 0u);

    std::set<RequestId> seen;
    for (const auto &record : report.requests) {
        EXPECT_TRUE(seen.insert(record.id).second);
        // Timing sanity per request.
        EXPECT_GE(record.firstToken, record.arrival);
        EXPECT_GE(record.finish, record.firstToken);
        EXPECT_GE(record.maxGap, 0);
        EXPECT_LE(record.maxGap, record.finish - record.arrival);
        EXPECT_GT(record.outputTokens, 0);
        EXPECT_GE(record.evictions, 0);
    }

    // Aggregate sanity.
    EXPECT_GT(report.decodeSteps, 0);
    EXPECT_GT(report.makespan, 0);
    EXPECT_GE(report.avgConsumedMemory, 0.0);
    EXPECT_LE(report.avgConsumedMemory, 1.0);
    EXPECT_GE(report.avgFutureRequired, report.avgConsumedMemory);
    // Swap transfers only appear in swap mode.
    if (evict_mode == EvictionMode::Recompute) {
        EXPECT_EQ(report.swapEvents, 0);
    }
    // Conservative and oracle never evict.
    if (kind == SchedulerKind::Conservative ||
        kind == SchedulerKind::Oracle) {
        EXPECT_EQ(report.evictionEvents, 0) << "kind breaks no-evict";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, EngineInvariantProperty,
    ::testing::Combine(
        ::testing::Values(SchedulerKind::Conservative,
                          SchedulerKind::Aggressive,
                          SchedulerKind::PastFuture,
                          SchedulerKind::Oracle),
        ::testing::Bool(),
        ::testing::Values(EvictionMode::Recompute,
                          EvictionMode::Swap),
        ::testing::Values(VictimOrder::NewestFirst,
                          VictimOrder::OldestFirst)));

TEST(OpenLoopIntegrationTest, PoissonArrivalsAreServed)
{
    model::PerfModel perf(model::ModelSpec::llama2_7b(),
                          model::HardwareSpec::a100_80g());
    engine::ServingEngine engine(
        perf,
        core::makeSchedulingPolicy(
            core::SchedulerConfig::pastFutureDefault(0.05)));
    const auto dataset = workload::makeShareGpt(150, 71);
    workload::submitPoissonArrivals(dataset, engine, 2.0, 99);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 150u);
    // At 2 req/s the system is underloaded: TTFT stays tiny and
    // everything meets the SLA.
    const auto sla = metrics::SlaSpec::small7b13b();
    EXPECT_GT(report.slaCompliantFraction(sla), 0.98);
    // Makespan is at least the arrival span (~75 s).
    EXPECT_GT(report.makespan, secondsToTicks(60.0));
}

TEST(OpenLoopIntegrationTest, BurstArrivalsQueueAndDrain)
{
    model::PerfModel perf(model::ModelSpec::llama2_7b(),
                          model::HardwareSpec::a100_80g());
    engine::ServingEngine engine(
        perf,
        core::makeSchedulingPolicy(
            core::SchedulerConfig::pastFutureDefault(0.05)));
    const auto dataset = workload::makeShareGpt(120, 73);
    // Everything arrives at once: a burst far above service rate.
    for (const auto &spec : dataset.requests)
        engine.submitAt(spec, secondsToTicks(1.0));
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 120u);
    // TTFT spread must reflect queueing order (non-trivial p99).
    const auto digest = report.latencyDigest();
    EXPECT_GT(digest.ttftPercentile(0.99), digest.meanTtft);
}

} // namespace
} // namespace lightllm
