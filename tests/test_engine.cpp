/**
 * @file
 * Tests for the continuous-batching serving engine: request
 * lifecycle, timing, eviction/recompute, split-fuse, and the
 * static-batch baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "core/future_memory.hh"
#include "core/scheduler_factory.hh"
#include "engine/framework_profile.hh"
#include "engine/serving_engine.hh"
#include "engine/static_engine.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "test_fixtures.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace engine {
namespace {

using core::SchedulerConfig;
using testfx::makeRequest;
using testfx::tinyPerf;
using workload::RequestSpec;

TEST(ServingEngineTest, SingleRequestLifecycle)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 100, 5), 0);
    const auto report = engine.run();

    EXPECT_EQ(report.numFinished, 1u);
    ASSERT_EQ(report.requests.size(), 1u);
    const auto &record = report.requests[0];
    EXPECT_EQ(record.outputTokens, 5);
    EXPECT_GT(record.firstToken, 0);
    EXPECT_GT(record.finish, record.firstToken);
    EXPECT_EQ(record.evictions, 0);
    // Prefill emits token 1; four decode steps follow.
    EXPECT_EQ(report.decodeSteps, 4);
    EXPECT_EQ(report.prefillIterations, 1);
    EXPECT_EQ(report.totalOutputTokens, 5);
    // All KV memory returned.
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
}

TEST(ServingEngineTest, MaxNewTokensCapsGeneration)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 50, 1000, 10), 0);
    const auto report = engine.run();
    ASSERT_EQ(report.requests.size(), 1u);
    EXPECT_EQ(report.requests[0].outputTokens, 10);
}

TEST(ServingEngineTest, ArrivalTimeIsHonoured)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    const Tick arrival = secondsToTicks(5.0);
    engine.submitAt(makeRequest(1, 10, 3), arrival);
    const auto report = engine.run();
    ASSERT_EQ(report.requests.size(), 1u);
    EXPECT_EQ(report.requests[0].arrival, arrival);
    EXPECT_GT(report.requests[0].firstToken, arrival);
    EXPECT_GE(report.makespan, arrival);
}

TEST(ServingEngineTest, TtftIncludesQueueingDelay)
{
    // Capacity ~1000 tokens: the second large request must wait for
    // the first to finish under the conservative policy.
    ServingEngine engine(tinyPerf(1.2),
                         core::makeScheduler(
                             SchedulerConfig::conservative()));
    engine.submitAt(makeRequest(1, 300, 100, 400), 0);
    engine.submitAt(makeRequest(2, 300, 100, 400), 0);
    const auto report = engine.run();
    ASSERT_EQ(report.requests.size(), 2u);
    const auto &first = report.requests[0];
    const auto &second = report.requests[1];
    EXPECT_EQ(first.id, 1);
    EXPECT_EQ(second.id, 2);
    // FCFS: request 2 is admitted only after request 1 finished.
    EXPECT_GE(second.firstToken, first.finish);
    EXPECT_GT(second.ttft(), first.ttft());
}

TEST(ServingEngineTest, ConcurrentRequestsBatchTogether)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    for (RequestId id = 0; id < 4; ++id)
        engine.submitAt(makeRequest(id, 50, 20), 0);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 4u);
    // Batched decoding: ~19 shared steps, not 4 x 19.
    EXPECT_LT(report.decodeSteps, 30);
    EXPECT_GT(report.avgBatchSize, 3.0);
}

TEST(ServingEngineTest, EvictionRecomputeCompletesRequests)
{
    // Two requests whose combined peak exceeds capacity: the
    // aggressive policy admits both, so one must be evicted and
    // recomputed, and both must still finish with full outputs.
    ServingEngine engine(tinyPerf(1.2),  // ~1000 tokens
                         core::makeScheduler(
                             SchedulerConfig::aggressive(1.0)));
    engine.submitAt(makeRequest(1, 300, 300, 600), 0);
    engine.submitAt(makeRequest(2, 300, 300, 600), 0);
    const auto report = engine.run();

    EXPECT_EQ(report.numFinished, 2u);
    EXPECT_GE(report.evictionEvents, 1);
    EXPECT_GE(report.requestsEvicted, 1u);
    for (const auto &record : report.requests)
        EXPECT_EQ(record.outputTokens, 300);
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
}

TEST(ServingEngineTest, LifoEvictsMostRecentlyAdmitted)
{
    EngineConfig config;
    config.evictionPolicy = EvictionPolicy::Lifo;
    ServingEngine engine(tinyPerf(1.2),
                         core::makeScheduler(
                             SchedulerConfig::aggressive(1.0)),
                         config);
    engine.submitAt(makeRequest(1, 300, 300, 600), 0);
    engine.submitAt(makeRequest(2, 300, 300, 600), secondsToTicks(0.2));
    const auto report = engine.run();
    const auto &first = *std::find_if(
        report.requests.begin(), report.requests.end(),
        [](const auto &r) { return r.id == 1; });
    const auto &second = *std::find_if(
        report.requests.begin(), report.requests.end(),
        [](const auto &r) { return r.id == 2; });
    EXPECT_EQ(first.evictions, 0);
    EXPECT_GE(second.evictions, 1);
}

TEST(ServingEngineTest, FifoEvictsOldestAdmission)
{
    EngineConfig config;
    config.evictionPolicy = EvictionPolicy::Fifo;
    ServingEngine engine(tinyPerf(1.2),
                         core::makeScheduler(
                             SchedulerConfig::aggressive(1.0)),
                         config);
    engine.submitAt(makeRequest(1, 300, 300, 600), 0);
    engine.submitAt(makeRequest(2, 300, 300, 600), secondsToTicks(0.2));
    const auto report = engine.run();
    const auto &first = *std::find_if(
        report.requests.begin(), report.requests.end(),
        [](const auto &r) { return r.id == 1; });
    EXPECT_GE(first.evictions, 1);
}

TEST(ServingEngineTest, EvictionStallShowsInMaxGap)
{
    ServingEngine engine(tinyPerf(1.2),
                         core::makeScheduler(
                             SchedulerConfig::aggressive(1.0)));
    engine.submitAt(makeRequest(1, 300, 300, 600), 0);
    engine.submitAt(makeRequest(2, 300, 300, 600), 0);
    const auto report = engine.run();
    Tick evicted_gap = 0;
    Tick clean_gap = 0;
    for (const auto &record : report.requests) {
        if (record.evictions > 0)
            evicted_gap = std::max(evicted_gap, record.maxGap);
        else
            clean_gap = std::max(clean_gap, record.maxGap);
    }
    ASSERT_GT(evicted_gap, 0);
    // The recompute stall dwarfs a normal decode interval.
    EXPECT_GT(evicted_gap, 4 * clean_gap);
}

TEST(ServingEngineTest, MaxBatchSizeCapsConcurrency)
{
    EngineConfig config;
    config.maxBatchSize = 2;
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::aggressive(1.0)),
                         config);
    for (RequestId id = 0; id < 6; ++id)
        engine.submitAt(makeRequest(id, 20, 30), 0);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 6u);
    EXPECT_LE(report.avgBatchSize, 2.0 + 1e-9);
}

TEST(ServingEngineTest, SplitFuseSmoothsRunningRequests)
{
    // Request A decodes while B's very long prompt arrives. Without
    // split-fuse A stalls for B's whole prefill; with split-fuse the
    // prefill is chunked and A's worst gap shrinks.
    auto run_with = [&](bool split_fuse) {
        EngineConfig config;
        config.splitFuse = split_fuse;
        config.splitFuseChunk = 256;
        ServingEngine engine(tinyPerf(20.0),
                             core::makeScheduler(
                                 SchedulerConfig::aggressive(1.0)),
                             config);
        engine.submitAt(makeRequest(1, 50, 400, 500), 0);
        engine.submitAt(makeRequest(2, 8000, 50, 100),
                        secondsToTicks(0.05));
        const auto report = engine.run();
        const auto &first = *std::find_if(
            report.requests.begin(), report.requests.end(),
            [](const auto &r) { return r.id == 1; });
        return first.maxGap;
    };
    const Tick monolithic_gap = run_with(false);
    const Tick fused_gap = run_with(true);
    EXPECT_LT(fused_gap, monolithic_gap);
}

TEST(ServingEngineTest, SplitFuseFinishesEveryone)
{
    EngineConfig config;
    config.splitFuse = true;
    config.splitFuseChunk = 128;
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::aggressive(0.95)),
                         config);
    for (RequestId id = 0; id < 8; ++id)
        engine.submitAt(makeRequest(id, 300, 40), 0);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 8u);
    EXPECT_EQ(report.totalOutputTokens, 8 * 40);
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
}

TEST(ServingEngineTest, ForcedAdmissionBreaksPolicyDeadlock)
{
    // Conservative would never admit prompt + max_new > capacity,
    // but an idle engine must make progress (real frameworks always
    // run batch size 1).
    ServingEngine engine(tinyPerf(1.2),  // ~1000 tokens
                         core::makeScheduler(
                             SchedulerConfig::conservative()));
    engine.submitAt(makeRequest(1, 500, 100, 4096), 0);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 1u);
}

TEST(ServingEngineTest, WarmupDiscardsEarlyRequests)
{
    EngineConfig config;
    config.warmupRequests = 3;
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()),
                         config);
    for (RequestId id = 0; id < 8; ++id)
        engine.submitAt(makeRequest(id, 50, 20), 0);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 5u);
    EXPECT_EQ(report.totalOutputTokens, 5 * 20);
    EXPECT_LT(report.makespan, secondsToTicks(3600.0));
}

TEST(ServingEngineTest, RunLimitsStopEarly)
{
    RunLimits limits;
    limits.maxFinishedRequests = 2;
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    // Staggered output lengths so completions never coincide.
    for (RequestId id = 0; id < 10; ++id)
        engine.submitAt(makeRequest(id, 50, 20 + 10 * id), 0);
    const auto report = engine.run(limits);
    EXPECT_GE(report.numFinished, 2u);
    EXPECT_LT(report.numFinished, 10u);
}

TEST(ServingEngineTest, FinishCallbackFires)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    std::vector<RequestId> finished;
    Tick last_tick = -1;
    engine.setOnFinish([&](const RequestSpec &spec, Tick tick) {
        finished.push_back(spec.id);
        EXPECT_GE(tick, last_tick);
        last_tick = tick;
    });
    for (RequestId id = 0; id < 3; ++id)
        engine.submitAt(makeRequest(id, 30, 5 + 3 * id), 0);
    engine.run();
    EXPECT_EQ(finished.size(), 3u);
    // Shortest output finishes first.
    EXPECT_EQ(finished[0], 0);
}

TEST(ServingEngineTest, DeterministicAcrossRuns)
{
    auto run_once = [&]() {
        ServingEngine engine(
            tinyPerf(8.0),
            core::makeScheduler(
                SchedulerConfig::pastFutureDefault(0.05)));
        const auto dataset = workload::makeShareGpt(60, 5);
        for (const auto &spec : dataset.requests)
            engine.submitAt(spec, 0);
        return engine.run();
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.decodeSteps, b.decodeSteps);
    EXPECT_EQ(a.evictionEvents, b.evictionEvents);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].firstToken, b.requests[i].firstToken);
        EXPECT_EQ(a.requests[i].finish, b.requests[i].finish);
    }
}

/**
 * Admission decorator that records every prediction peek, optionally
 * replacing the inner scheduler's prediction with a synthetic one
 * that jumps every 16 generated tokens. Without a trace attached the
 * engine peeks only in its prediction audit, so the peeks of one
 * stepOnce() are exactly the batch that step audited.
 */
class PeekRecorder final : public core::Scheduler
{
  public:
    struct Peek
    {
        RequestId id;
        TokenCount generated;
        TokenCount predicted;
    };

    PeekRecorder(std::unique_ptr<core::Scheduler> inner, bool jumpy)
        : inner_(std::move(inner)), jumpy_(jumpy)
    {
    }

    void
    beginAdmissionRound(const core::SchedulerContext &ctx) override
    {
        inner_->beginAdmissionRound(ctx);
    }

    bool
    tryAdmit(const core::WaitingView &candidate) override
    {
        return inner_->tryAdmit(candidate);
    }

    void
    onRequestFinished(RequestId id, TokenCount output_len) override
    {
        inner_->onRequestFinished(id, output_len);
    }

    void
    onRequestEvicted(RequestId id) override
    {
        inner_->onRequestEvicted(id);
    }

    TokenCount
    peekPrediction(RequestId id, TokenCount generated_len,
                   TokenCount max_new_tokens) override
    {
        // Jumps every 16 generated tokens, up or down.
        const TokenCount jump =
            (id * 37 + generated_len / 16 * 11) % 200;
        const TokenCount predicted = jumpy_
            ? generated_len + jump
            : inner_->peekPrediction(id, generated_len,
                                     max_new_tokens);
        peeks.push_back(Peek{id, generated_len, predicted});
        return predicted;
    }

    std::string name() const override { return inner_->name(); }

    std::vector<Peek> peeks;

  private:
    std::unique_ptr<core::Scheduler> inner_;
    bool jumpy_;
};

/**
 * The carried prediction audit against a from-scratch one, step by
 * step, while the request slab recycles. Two waves reuse the same
 * ids, so every second-wave request takes over a recycled
 * EngineRequest (and, under Past-Future, starts a fresh sticky
 * sample) while the audit slots may still point at the slab entry
 * from its previous life; evictions, swap-ins and split-fuse
 * prefill-pending entries reorder the carried batch.
 */
TEST(ServingEngineStateTest, RecycledRequestsInheritNoAuditState)
{
    struct Variant
    {
        const char *name;
        SchedulerConfig scheduler;
        bool jumpy;
        bool splitFuse;
        EvictionMode mode;
    };
    const Variant variants[] = {
        {"aggressive, jumpy predictions, split-fuse",
         SchedulerConfig::aggressive(1.0), true, true,
         EvictionMode::Recompute},
        {"aggressive, jumpy predictions, swap",
         SchedulerConfig::aggressive(1.0), true, false,
         EvictionMode::Swap},
        {"past-future, split-fuse",
         SchedulerConfig::pastFutureDefault(0.0), false, true,
         EvictionMode::Recompute},
    };
    constexpr RequestId kWave = 48;
    for (const Variant &variant : variants) {
        SCOPED_TRACE(variant.name);
        EngineConfig config;
        config.splitFuse = variant.splitFuse;
        config.splitFuseChunk = 64;
        config.evictionMode = variant.mode;
        config.timeseriesInterval = 1;  // one point per decode step
        auto recorder = std::make_unique<PeekRecorder>(
            core::makeScheduler(variant.scheduler), variant.jumpy);
        PeekRecorder &recorded = *recorder;
        ServingEngine engine(tinyPerf(2.0), std::move(recorder),
                             config);

        Rng rng(29);
        std::unordered_map<RequestId, RequestSpec> live;
        std::vector<TokenCount> expected_true;
        std::vector<TokenCount> expected_predicted;
        for (int wave = 0; wave < 2; ++wave) {
            for (RequestId id = 0; id < kWave; ++id) {
                live[id] = makeRequest(id, rng.uniformInt(16, 300),
                                       rng.uniformInt(1, 400), 600);
                engine.submitAt(live[id], engine.now() + id * 20'000);
            }
            const std::size_t done = engine.numFinished() +
                static_cast<std::size_t>(kWave);
            while (engine.numFinished() < done) {
                recorded.peeks.clear();
                ASSERT_TRUE(engine.stepOnce());
                if (recorded.peeks.empty())
                    continue;
                std::vector<core::BatchEntry> truth;
                std::vector<core::BatchEntry> predicted;
                for (const auto &peek : recorded.peeks) {
                    const RequestSpec &spec = live.at(peek.id);
                    truth.push_back(core::BatchEntry{
                        spec.inputLen, peek.generated,
                        std::max(spec.effectiveOutputLen(),
                                 peek.generated)});
                    predicted.push_back(core::BatchEntry{
                        spec.inputLen, peek.generated,
                        std::max(peek.predicted, peek.generated)});
                }
                expected_true.push_back(
                    core::futureRequiredMemory(truth));
                expected_predicted.push_back(
                    core::futureRequiredMemory(predicted));
            }
        }

        // The second wave ran entirely on recycled slab entries.
        EXPECT_LE(engine.requestSlabSize(),
                  static_cast<std::size_t>(kWave));
        const auto report = engine.report();
        if (variant.jumpy) {
            EXPECT_GT(report.evictionEvents, 0);
        }
        const double capacity =
            static_cast<double>(engine.capacityTokens());
        ASSERT_EQ(report.timeseries.size(), expected_true.size());
        double error_sum = 0.0;
        for (std::size_t i = 0; i < expected_true.size(); ++i) {
            const double future =
                static_cast<double>(expected_true[i]) / capacity;
            ASSERT_EQ(report.timeseries[i].futureRequiredRatio,
                      future)
                << "decode step " << i;
            const double predicted =
                static_cast<double>(expected_predicted[i]) / capacity;
            error_sum += std::fabs(predicted - future);
        }
        EXPECT_DOUBLE_EQ(report.futureErrorAbsSum, error_sum);
    }
}

TEST(ServingEngineDeathTest, OversizedRequestIsFatal)
{
    ServingEngine engine(tinyPerf(1.2),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 5000, 10), 0);
    EXPECT_EXIT(engine.run(), ::testing::ExitedWithCode(1),
                "cannot fit");
}

TEST(ServingEngineDeathTest, DuplicateRequestIdPanics)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 10, 5), 0);
    engine.submitAt(makeRequest(1, 10, 5), 0);
    EXPECT_DEATH(engine.run(), "duplicate request id");
}

TEST(ServingEngineDeathTest, SecondRunPanics)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeScheduler(
                             SchedulerConfig::oracle()));
    engine.run();
    EXPECT_DEATH(engine.run(), "single-run");
}

// --- Static-batch baseline ---------------------------------------------

TEST(StaticEngineTest, ProcessesWholeDataset)
{
    const auto perf = tinyPerf(20.0);
    const auto dataset = workload::makeTextVqaLike(64, 576, 3);
    const auto report = runStaticBatch(perf, dataset);
    EXPECT_EQ(report.numFinished, 64u);
    EXPECT_EQ(report.totalOutputTokens,
              dataset.totalOutputTokens());
    EXPECT_GT(report.throughputTokensPerSec(), 0.0);
}

TEST(StaticEngineTest, ExplicitBatchSizeIsUsed)
{
    const auto perf = tinyPerf(20.0);
    const auto dataset = workload::makeTextVqaLike(64, 576, 3);
    StaticEngineConfig config;
    config.batchSize = 4;
    const auto report = runStaticBatch(perf, dataset, config);
    EXPECT_EQ(report.numFinished, 64u);
    EXPECT_NEAR(report.avgBatchSize, 4.0, 0.2);
}

TEST(StaticEngineTest, TimeFactorSlowsThroughput)
{
    const auto perf = tinyPerf(20.0);
    const auto dataset = workload::makeTextVqaLike(32, 576, 4);
    StaticEngineConfig slow;
    slow.timeFactor = 2.0;
    const auto fast_report = runStaticBatch(perf, dataset);
    const auto slow_report = runStaticBatch(perf, dataset, slow);
    EXPECT_GT(fast_report.throughputTokensPerSec(),
              1.8 * slow_report.throughputTokensPerSec());
}

// --- Framework profiles --------------------------------------------------

TEST(FrameworkProfileTest, AllFiveFrameworks)
{
    const auto profiles = FrameworkProfile::all();
    ASSERT_EQ(profiles.size(), 5u);
    EXPECT_EQ(profiles[0].name, "TGI");
    EXPECT_EQ(profiles[4].name, "LightLLM");
}

TEST(FrameworkProfileTest, SchedulerKindsMatchThePaper)
{
    EXPECT_EQ(FrameworkProfile::vllm().scheduler.kind,
              core::SchedulerKind::Aggressive);
    EXPECT_EQ(FrameworkProfile::tgi().scheduler.kind,
              core::SchedulerKind::Conservative);
    EXPECT_EQ(FrameworkProfile::lightllm().scheduler.kind,
              core::SchedulerKind::PastFuture);
    EXPECT_TRUE(FrameworkProfile::deepspeedMii().splitFuse);
    EXPECT_LT(FrameworkProfile::tensorrtLlm().timeFactor, 1.0);
}

TEST(FrameworkProfileTest, ToEngineConfigCopiesKnobs)
{
    const auto profile = FrameworkProfile::deepspeedMii();
    const auto config = profile.toEngineConfig();
    EXPECT_EQ(config.splitFuse, profile.splitFuse);
    EXPECT_DOUBLE_EQ(config.timeFactor, profile.timeFactor);
}

} // namespace
} // namespace engine
} // namespace lightllm
