/**
 * @file
 * Cross-module integration tests: full serving runs over synthetic
 * workloads, asserting the qualitative behaviours the paper reports
 * (scheduler orderings, eviction patterns, conservation laws).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "engine/static_engine.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "trace/trace_recorder.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace {

using core::SchedulerConfig;

model::PerfModel
a100_7b()
{
    return model::PerfModel(model::ModelSpec::llama2_7b(),
                            model::HardwareSpec::a100_80g());
}

/** Closed-loop run of `dataset` under `config`. */
metrics::RunReport
serve(const workload::Dataset &dataset, SchedulerConfig config,
      std::size_t num_clients)
{
    config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    engine::ServingEngine engine(a100_7b(),
                                 core::makeSchedulingPolicy(config));
    workload::ClosedLoopClientPool clients(num_clients, dataset,
                                           engine);
    engine.setOnFinish(
        [&](const workload::RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    return engine.run();
}

/** Warmed Past-Future config for a dataset (previous window). */
SchedulerConfig
warmedPastFuture(double reserved, const workload::Dataset &history)
{
    auto config = SchedulerConfig::pastFutureDefault(reserved);
    for (const auto &request : history.requests) {
        config.pastFuture.initialHistory.push_back(
            request.effectiveOutputLen());
    }
    return config;
}

TEST(IntegrationTest, EveryRequestFinishesExactlyOnce)
{
    const auto dataset = workload::makeShareGpt(200, 11);
    const auto report =
        serve(dataset, SchedulerConfig::aggressive(0.99), 32);
    EXPECT_EQ(report.numFinished, dataset.requests.size());
    std::set<RequestId> seen;
    for (const auto &record : report.requests)
        EXPECT_TRUE(seen.insert(record.id).second);
}

TEST(IntegrationTest, OutputTokensAreConserved)
{
    const auto dataset = workload::makeShareGpt(150, 12);
    for (const auto &config :
         {SchedulerConfig::conservative(),
          SchedulerConfig::aggressive(0.99),
          SchedulerConfig::pastFutureDefault(0.05),
          SchedulerConfig::oracle()}) {
        const auto report = serve(dataset, config, 24);
        EXPECT_EQ(report.totalOutputTokens,
                  testfx::totalOutputTokens(dataset))
            << report.schedulerName;
    }
}

TEST(IntegrationTest, ConservativeNeverEvicts)
{
    const auto dataset = workload::makeDistribution1(120, 13);
    const auto report =
        serve(dataset, SchedulerConfig::conservative(), 48);
    EXPECT_EQ(report.evictionEvents, 0);
    EXPECT_EQ(report.requestsEvicted, 0u);
}

/** Property: the oracle never evicts, on any workload shape. */
class OracleNoEvictionProperty
    : public ::testing::TestWithParam<int>
{};

TEST_P(OracleNoEvictionProperty, ZeroEvictions)
{
    workload::Dataset dataset;
    const auto seed = static_cast<std::uint64_t>(GetParam());
    switch (GetParam() % 4) {
      case 0:
        dataset = workload::makeDistribution1(150, seed);
        break;
      case 1:
        dataset = workload::makeDistribution2(150, seed);
        break;
      case 2:
        dataset = workload::makeDistribution3(150, seed);
        break;
      default:
        dataset = workload::makeShareGptO1(150, seed);
        break;
    }
    const auto report =
        serve(dataset, SchedulerConfig::oracle(), 64);
    EXPECT_EQ(report.evictionEvents, 0)
        << "dataset " << dataset.name;
    EXPECT_EQ(report.numFinished, dataset.requests.size());
}

INSTANTIATE_TEST_SUITE_P(Workloads, OracleNoEvictionProperty,
                         ::testing::Range(0, 8));

TEST(IntegrationTest, AggressiveEvictsOnDecodeHeavy)
{
    // Decode-heavy + high watermark is the paper's worst case for
    // the aggressive policy (Table 1: 93.7% evicted).
    const auto dataset = workload::makeDistribution1(200, 14);
    const auto report =
        serve(dataset, SchedulerConfig::aggressive(0.99), 48);
    EXPECT_GT(report.evictedReqRatio(), 0.3);
}

TEST(IntegrationTest, PastFutureEvictsFarLessThanAggressive)
{
    const auto dataset = workload::makeDistribution1(200, 15);
    const auto history = workload::makeDistribution1(800, 99);
    const auto aggressive =
        serve(dataset, SchedulerConfig::aggressive(0.99), 48);
    const auto past_future =
        serve(dataset, warmedPastFuture(0.05, history), 48);
    EXPECT_LT(past_future.evictedReqRatio(),
              0.25 * aggressive.evictedReqRatio());
}

TEST(IntegrationTest, PastFutureUtilizationBeatsConservative)
{
    const auto dataset = workload::makeDistribution1(200, 16);
    const auto history = workload::makeDistribution1(800, 98);
    const auto conservative =
        serve(dataset, SchedulerConfig::conservative(), 48);
    const auto past_future =
        serve(dataset, warmedPastFuture(0.05, history), 48);
    EXPECT_GT(past_future.avgConsumedMemory,
              conservative.avgConsumedMemory + 0.2);
}

TEST(IntegrationTest, ConservativeFutureRequiredStaysUnderCapacity)
{
    const auto dataset = workload::makeDistribution1(150, 17);
    const auto report =
        serve(dataset, SchedulerConfig::conservative(), 48);
    EXPECT_LT(report.avgFutureRequired, 1.0);
}

TEST(IntegrationTest, AggressiveFutureRequiredOvershoots)
{
    // The signature failure of the aggressive policy (Fig 1): the
    // true future requirement of its running batch exceeds capacity.
    const auto dataset = workload::makeDistribution1(200, 18);
    const auto aggressive =
        serve(dataset, SchedulerConfig::aggressive(0.99), 48);
    const auto history = workload::makeDistribution1(800, 97);
    const auto past_future =
        serve(dataset, warmedPastFuture(0.05, history), 48);
    EXPECT_GT(aggressive.avgFutureRequired,
              past_future.avgFutureRequired);
    EXPECT_LT(past_future.avgFutureRequired, 1.0);
}

TEST(IntegrationTest, GoodputOrderingUnderHeavyDecodeLoad)
{
    // The headline claim: under heavy decode-heavy load the
    // Past-Future scheduler beats the aggressive policy (eviction
    // storms) and the conservative policy (queueing).
    const auto dataset = workload::makeShareGptO1(350, 19);
    const auto history = workload::makeShareGptO1(800, 96);
    const auto sla = metrics::SlaSpec::small7b13b();

    auto pf_config = warmedPastFuture(0.05, history);
    const auto past_future = serve(dataset, pf_config, 56);
    const auto aggressive =
        serve(dataset, SchedulerConfig::aggressive(0.99), 56);
    const auto conservative =
        serve(dataset, SchedulerConfig::conservative(), 56);

    const double pf_good = past_future.goodputTokensPerSec(sla);
    const double ag_good = aggressive.goodputTokensPerSec(sla);
    const double co_good = conservative.goodputTokensPerSec(sla);

    EXPECT_GT(pf_good, 0.95 * ag_good);
    EXPECT_GT(pf_good, 3.0 * co_good);
}

TEST(IntegrationTest, SchedulersAgreeAtLightLoad)
{
    // At low concurrency memory never binds and every scheduler
    // admits immediately: identical goodput (Fig 7 left edge).
    const auto dataset = workload::makeShareGptO1(120, 20);
    const auto history = workload::makeShareGptO1(500, 95);
    const auto sla = metrics::SlaSpec::small7b13b();

    const auto past_future =
        serve(dataset, warmedPastFuture(0.05, history), 8);
    const auto aggressive =
        serve(dataset, SchedulerConfig::aggressive(0.99), 8);
    EXPECT_NEAR(past_future.goodputTokensPerSec(sla),
                aggressive.goodputTokensPerSec(sla),
                0.02 * aggressive.goodputTokensPerSec(sla) + 1.0);
}

TEST(IntegrationTest, PrefillHeavyFavoursAggressiveAndPastFuture)
{
    // Distribution-3: outputs are short, so ignoring output memory
    // is nearly free and both beat conservative (Fig 7 rightmost
    // column).
    const auto dataset = workload::makeDistribution3(200, 21);
    const auto history = workload::makeDistribution3(800, 94);
    const auto sla = metrics::SlaSpec::small7b13b();

    const auto past_future =
        serve(dataset, warmedPastFuture(0.05, history), 24);
    const auto aggressive =
        serve(dataset, SchedulerConfig::aggressive(0.95), 24);
    const auto conservative =
        serve(dataset, SchedulerConfig::conservative(), 24);

    EXPECT_GT(past_future.goodputTokensPerSec(sla),
              1.5 * conservative.goodputTokensPerSec(sla));
    EXPECT_GT(aggressive.goodputTokensPerSec(sla),
              1.5 * conservative.goodputTokensPerSec(sla));
}

TEST(IntegrationTest, ContinuousBatchingBeatsStaticOnMultimodal)
{
    // Table 2's effect: continuous batching with the Past-Future
    // scheduler clearly out-throughputs the static-batch origin
    // implementation on a TextVQA-like workload.
    model::PerfModel perf(model::ModelSpec::llava15_7b(),
                          model::HardwareSpec::a100_80g());
    const auto dataset = workload::makeTextVqaLike(400, 576, 22);

    const auto origin = engine::runStaticBatch(perf, dataset);

    auto config = SchedulerConfig::pastFutureDefault(0.05);
    config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    engine::ServingEngine engine(perf,
                                 core::makeSchedulingPolicy(config));
    for (const auto &spec : dataset.requests)
        engine.submitAt(spec, 0);
    const auto lightllm = engine.run();

    EXPECT_GT(lightllm.throughputTokensPerSec(),
              1.3 * origin.throughputTokensPerSec());
}

TEST(IntegrationTest, FullPipelineIsDeterministic)
{
    auto run_once = [&]() {
        const auto dataset = workload::makeShareGptO1(150, 23);
        return serve(dataset,
                     SchedulerConfig::pastFutureDefault(0.05), 32);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.decodeSteps, b.decodeSteps);
    EXPECT_EQ(a.evictionEvents, b.evictionEvents);
    EXPECT_DOUBLE_EQ(a.avgConsumedMemory, b.avgConsumedMemory);
}

/**
 * The recorder's per-step counters are the memory time series
 * (Fig. 1): sampled every 10th decode step, ticks rise, consumed
 * memory stays within capacity and the true M* never falls below
 * it.
 */
TEST(IntegrationTest, TimeseriesSamplesAreOrderedAndBounded)
{
    auto sched_config = SchedulerConfig::aggressive(0.99);
    engine::ServingEngine engine(
        a100_7b(), core::makeSchedulingPolicy(sched_config));
    trace::EngineTrace trace(1, "engine", trace::TraceDetail::Steps,
                             1 << 18);
    engine.attachTrace(&trace);
    const auto dataset = workload::makeDistribution1(80, 24);
    for (const auto &spec : dataset.requests)
        engine.submitAt(spec, 0);
    const auto report = engine.run();
    ASSERT_EQ(trace.ring().dropped(), 0u);

    struct Point
    {
        Tick tick = 0;
        std::int64_t batchSize = 0;
        TokenCount used = 0;
        TokenCount futureTrue = 0;
    };
    std::vector<Point> steps;
    for (std::size_t i = 0; i < trace.ring().size(); ++i) {
        const trace::TraceEvent &event = trace.ring().at(i);
        if (event.phase != trace::TracePhase::Counter)
            continue;
        if (event.name == trace::TraceName::BatchSize)
            steps.push_back(Point{event.tick, event.arg0});
        else if (event.name == trace::TraceName::KvUsed)
            steps.back().used = event.arg0;
        else if (event.name == trace::TraceName::KvFutureTrue)
            steps.back().futureTrue = event.arg0;
    }
    ASSERT_EQ(steps.size(), static_cast<std::size_t>(report.decodeSteps));

    const double capacity =
        static_cast<double>(engine.capacityTokens());
    std::size_t samples = 0;
    Tick prev = -1;
    for (std::size_t step = 10; step <= steps.size(); step += 10) {
        const Point &point = steps[step - 1];
        ++samples;
        EXPECT_GT(point.tick, prev);
        prev = point.tick;
        const double consumed =
            static_cast<double>(point.used) / capacity;
        const double future =
            static_cast<double>(point.futureTrue) / capacity;
        EXPECT_GE(consumed, 0.0);
        EXPECT_LE(consumed, 1.0);
        EXPECT_GE(future, consumed);
        EXPECT_GT(point.batchSize, 0);
    }
    EXPECT_GT(samples, 5u);
}

} // namespace
} // namespace lightllm
