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
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "core/future_memory.hh"
#include "core/past_future_scheduler.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "engine/static_engine.hh"
#include "metrics/report_io.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "sim/sim_context.hh"
#include "trace/trace_recorder.hh"
#include "test_fixtures.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace engine {
namespace {

using core::SchedulerConfig;
using testfx::fnv1a;
using testfx::makeRequest;
using testfx::tinyPerf;
using workload::RequestSpec;

TEST(ServingEngineTest, SingleRequestLifecycle)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
                             SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 50, 1000, 10), 0);
    const auto report = engine.run();
    ASSERT_EQ(report.requests.size(), 1u);
    EXPECT_EQ(report.requests[0].outputTokens, 10);
}

TEST(ServingEngineTest, ArrivalTimeIsHonoured)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
    config.evictionPolicy = core::VictimOrder::NewestFirst;
    ServingEngine engine(tinyPerf(1.2),
                         core::makeSchedulingPolicy(
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
    config.evictionPolicy = core::VictimOrder::OldestFirst;
    ServingEngine engine(tinyPerf(1.2),
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
        config.splitFuseChunk = split_fuse ? 256 : 0;
        ServingEngine engine(tinyPerf(20.0),
                             core::makeSchedulingPolicy(
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
    config.splitFuseChunk = 128;
    ServingEngine engine(tinyPerf(8.0),
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
                         core::makeSchedulingPolicy(
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
            core::makeSchedulingPolicy(
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
 * Admission decorator that records every horizon peek the prediction
 * audit makes (stamped with the trace position it happened at) and
 * counts the finishes the policy observes. Its predictions are the
 * inner scheduler's, or a synthetic function of (id, generated) that
 * jumps every 16 generated tokens, up or down: `Jumpy` moves with
 * every token (horizon generated + 1), `Blocky` holds within each
 * 16-token block and says so through its horizon.
 */
class PeekRecorder final : public core::Scheduler
{
  public:
    enum class Predictor
    {
        Inner,
        Jumpy,
        Blocky,
    };

    struct Peek
    {
        RequestId id;
        TokenCount generated;
        core::PredictionPeek peek;
        std::size_t traceStamp;  // trace events recorded before it
    };

    PeekRecorder(std::unique_ptr<core::Scheduler> inner,
                 Predictor predictor)
        : inner_(std::move(inner)), predictor_(predictor)
    {
    }

    /** The synthetic prediction of a Jumpy / Blocky recorder. */
    static TokenCount
    synthetic(Predictor predictor, RequestId id, TokenCount generated)
    {
        const TokenCount jump = (id * 37 + generated / 16 * 11) % 200;
        return predictor == Predictor::Jumpy
            ? generated + jump
            : (generated / 16 + 1) * 16 + jump;
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

    void
    onSlotReleased(RequestSlot slot, RequestId id) override
    {
        slabEntries = std::max<std::size_t>(slabEntries,
                                            slotIndex(slot) + 1);
        inner_->onSlotReleased(slot, id);
    }

    TokenCount
    peekPrediction(RequestId id, TokenCount generated_len,
                   TokenCount max_new_tokens) override
    {
        return predictor_ == Predictor::Inner
            ? inner_->peekPrediction(id, generated_len, max_new_tokens)
            : synthetic(predictor_, id, generated_len);
    }

    core::PredictionPeek
    peekWithHorizon(RequestSlot slot, RequestId id,
                    TokenCount generated_len,
                    TokenCount max_new_tokens) override
    {
        core::PredictionPeek peek;
        switch (predictor_) {
          case Predictor::Inner:
            peek = inner_->peekWithHorizon(slot, id, generated_len,
                                           max_new_tokens);
            break;
          case Predictor::Jumpy:
            peek = {synthetic(predictor_, id, generated_len),
                    generated_len + 1};
            break;
          case Predictor::Blocky:
            peek = {synthetic(predictor_, id, generated_len),
                    (generated_len / 16 + 1) * 16};
            break;
        }
        peeks.push_back(Peek{id, generated_len, peek,
                             trace_ != nullptr ? trace_->ring().size()
                                               : 0});
        return peek;
    }

    std::string name() const override { return inner_->name(); }

    void attachTrace(const trace::EngineTrace *trace) { trace_ = trace; }

    std::vector<Peek> peeks;

    /** The engine's request-slab size so far: one past the highest
     *  slot index released (every request releases its slot when it
     *  leaves). */
    std::size_t slabEntries = 0;

  private:
    std::unique_ptr<core::Scheduler> inner_;
    Predictor predictor_;
    const trace::EngineTrace *trace_ = nullptr;
};

/**
 * The carried prediction audit against a from-scratch one, step by
 * step (the true and predicted M* the flight recorder's step
 * counters report), while the request slab recycles. The audited batch of every
 * decode step is rebuilt from the flight recorder alone (requests
 * with an open Prefill or Decode span, minus swap-ins still
 * restoring; decoding members advance one token per step), never
 * from the audit's own bookkeeping. The expected predictions are the
 * synthetic functions themselves or, for the real scheduler, a peek
 * it answered at or below the member's current length whose horizon
 * still covers it with no finish observed since — the engine must
 * have made one.
 *
 * Two waves reuse the same ids, so every second-wave request takes
 * over a recycled EngineRequest (and, under Past-Future, starts a
 * fresh sticky sample); the closed-loop variant resubmits from each
 * completion, so a new request takes over the slab entry of one that
 * finished a step earlier — a carry that trusted pointers would see
 * an unchanged batch. Evictions, swap-ins and split-fuse
 * prefill-pending members break the carried invariance. Block size 1
 * puts the whole batch in every step's crossing bucket, and a wave
 * submitted at one tick decodes in lockstep, so its blocky horizons
 * crowd one lapse step and its moved predictions slide several Eq. 2
 * positions at once.
 */
TEST(ServingEngineStateTest, RecycledRequestsInheritNoAuditState)
{
    using Predictor = PeekRecorder::Predictor;
    struct Variant
    {
        const char *name;
        SchedulerConfig scheduler;
        Predictor predictor;
        bool splitFuse;
        EvictionMode mode;
        bool closedLoop;
        double memMegabytes = 2.0;
        TokenCount blockSize = 16;
        /** Ticks between a wave's submissions. */
        Tick arrivalGap = 20'000;
        /** Least peaks the busiest lapse step must hold, and least
         *  Eq. 2 positions one moved prediction must slide. */
        std::size_t minSharedLapses = 0;
        std::size_t minSlide = 0;
    };
    const Variant variants[] = {
        {"aggressive, jumpy predictions, split-fuse",
         SchedulerConfig::aggressive(1.0), Predictor::Jumpy, true,
         EvictionMode::Recompute, false},
        {"aggressive, jumpy predictions, swap",
         SchedulerConfig::aggressive(1.0), Predictor::Jumpy, false,
         EvictionMode::Swap, false},
        {"aggressive, blocky horizons, swap",
         SchedulerConfig::aggressive(1.0), Predictor::Blocky, false,
         EvictionMode::Swap, false},
        {"past-future, split-fuse",
         SchedulerConfig::pastFutureDefault(0.0), Predictor::Inner,
         true, EvictionMode::Recompute, false},
        {"past-future, closed loop (slab takeover)",
         SchedulerConfig::pastFutureDefault(0.0), Predictor::Inner,
         false, EvictionMode::Recompute, true, 8.0},
        // Every member's allocation fills every step: each step's
        // crossing bucket holds the whole batch.
        {"past-future, block size 1",
         SchedulerConfig::pastFutureDefault(0.0), Predictor::Inner,
         false, EvictionMode::Recompute, false, 2.0, 1},
        // A wave admitted together decodes in lockstep, so blocky
        // horizons lapse for the whole batch at one step, and the
        // jumps move predictions past several others at once.
        {"aggressive, blocky horizons, crowded lapse steps",
         SchedulerConfig::aggressive(1.0), Predictor::Blocky, false,
         EvictionMode::Recompute, false, 8.0, 16, 0, 8, 3},
    };
    constexpr RequestId kWave = 48;
    for (const Variant &variant : variants) {
        SCOPED_TRACE(variant.name);
        EngineConfig config;
        config.splitFuseChunk = variant.splitFuse ? 64 : 0;
        config.evictionMode = variant.mode;
        config.blockSize = variant.blockSize;
        auto recorder = std::make_unique<PeekRecorder>(
            core::makeScheduler(variant.scheduler), variant.predictor);
        PeekRecorder &recorded = *recorder;
        // The closed loop keeps a few clients on a roomy engine, so a
        // resubmit is admitted the step after its predecessor left.
        ServingEngine engine(tinyPerf(variant.memMegabytes),
                             std::make_unique<core::SchedulingPolicy>(
                                 std::move(recorder)),
                             config);
        trace::EngineTrace trace(1, "engine", trace::TraceDetail::Steps,
                                 1 << 17);
        engine.attachTrace(&trace);
        recorded.attachTrace(&trace);

        Rng rng(29);
        std::unordered_map<RequestId, RequestSpec> live;
        auto make = [&](RequestId id) {
            live[id] = makeRequest(id, rng.uniformInt(16, 300),
                                   rng.uniformInt(1, 400), 600);
            return live[id];
        };
        RequestId next_id = kWave;
        if (variant.closedLoop) {
            engine.setOnFinish([&](const RequestSpec &, Tick tick) {
                if (next_id < 4 * kWave)
                    engine.submitAt(make(next_id++), tick);
            });
        }

        // The audited batch, rebuilt from the trace.
        struct Member
        {
            TokenCount generated = 0;
            bool decoding = false;
        };
        std::unordered_map<RequestId, Member> members;
        std::unordered_map<RequestId, TokenCount> evicted_at;
        std::size_t consumed = 0;
        std::vector<std::size_t> finish_stamps;  // trace index of each
        std::vector<TokenCount> expected_true;
        std::vector<TokenCount> expected_predicted;
        std::vector<TokenCount> kv_future_true;  // the trace's M*
        // Each member's l_hat and Eq. 2 rank (ties by id) at the
        // previous step, and the farthest a moved one slid.
        std::unordered_map<RequestId, std::pair<TokenCount, std::size_t>>
            last_rank;
        std::size_t max_slide = 0;

        auto predicted_for = [&](RequestId id, TokenCount generated,
                                 std::size_t stamp) -> TokenCount {
            if (variant.predictor != Predictor::Inner) {
                return std::max(PeekRecorder::synthetic(
                                    variant.predictor, id, generated),
                                generated);
            }
            for (auto it = recorded.peeks.rbegin();
                 it != recorded.peeks.rend(); ++it) {
                if (it->id != id || it->traceStamp > stamp)
                    continue;
                const bool finished_since =
                    !finish_stamps.empty() &&
                    finish_stamps.back() >= it->traceStamp;
                if (finished_since || it->generated > generated ||
                    generated >= it->peek.horizon) {
                    break;
                }
                return std::max(it->peek.predicted, generated);
            }
            ADD_FAILURE() << "request " << id << " at " << generated
                          << " tokens audited on a lapsed prediction";
            return generated;
        };
        auto consume = [&] {
            for (; consumed < trace.ring().size(); ++consumed) {
                const trace::TraceEvent &event =
                    trace.ring().at(consumed);
                using trace::TraceName;
                using trace::TracePhase;
                const RequestId id = event.id;
                if (event.name == TraceName::Prefill &&
                    event.phase == TracePhase::Begin) {
                    members[id] = Member{evicted_at[id], false};
                } else if ((event.name == TraceName::Prefill ||
                            event.name == TraceName::Decode) &&
                           event.phase == TracePhase::End) {
                    members.erase(id);
                } else if (event.name == TraceName::SwapIn) {
                    members.erase(id);  // restoring: not audited
                } else if (event.name == TraceName::Decode &&
                           event.phase == TracePhase::Begin) {
                    members[id] = Member{event.arg0, true};
                } else if (event.name == TraceName::Evict) {
                    evicted_at[id] = event.arg1;
                } else if (event.name == TraceName::Finish) {
                    evicted_at.erase(id);  // the id may come back
                    finish_stamps.push_back(consumed);
                } else if (event.name == TraceName::BatchSize) {
                    std::vector<core::BatchEntry> truth;
                    std::vector<core::BatchEntry> predicted;
                    std::vector<RequestId> member_ids;
                    std::int64_t decoding = 0;
                    for (auto &[member_id, member] : members) {
                        member_ids.push_back(member_id);
                        if (member.decoding) {
                            member.generated += 1;
                            ++decoding;
                        }
                        const RequestSpec &spec = live.at(member_id);
                        truth.push_back(core::BatchEntry{
                            spec.inputLen, member.generated,
                            std::max(spec.effectiveOutputLen(),
                                     member.generated)});
                        predicted.push_back(core::BatchEntry{
                            spec.inputLen, member.generated,
                            predicted_for(member_id, member.generated,
                                          consumed)});
                    }
                    ASSERT_EQ(decoding, event.arg0)
                        << "the rebuilt batch lost a member";
                    // (-remaining, id, l_hat): Eq. 2 order, ties by id.
                    std::vector<std::tuple<TokenCount, RequestId,
                                           TokenCount>>
                        order;
                    for (std::size_t m = 0; m < predicted.size(); ++m) {
                        order.emplace_back(-predicted[m].remaining(),
                                           member_ids[m],
                                           predicted[m].predictedOutputLen);
                    }
                    std::sort(order.begin(), order.end());
                    std::unordered_map<RequestId,
                                       std::pair<TokenCount, std::size_t>>
                        ranks;
                    for (std::size_t r = 0; r < order.size(); ++r) {
                        const auto [key, id, l_hat] = order[r];
                        const auto last = last_rank.find(id);
                        if (last != last_rank.end() &&
                            last->second.first != l_hat) {
                            const std::size_t from = last->second.second;
                            max_slide = std::max(
                                max_slide, from > r ? from - r : r - from);
                        }
                        ranks[id] = {l_hat, r};
                    }
                    last_rank = std::move(ranks);
                    expected_true.push_back(
                        core::futureRequiredMemory(truth));
                    expected_predicted.push_back(
                        core::futureRequiredMemory(predicted));
                } else if (event.name == TraceName::KvFutureTrue) {
                    kv_future_true.push_back(event.arg0);
                } else if (event.name == TraceName::KvFuturePred) {
                    ASSERT_EQ(event.arg0, expected_predicted.back())
                        << "decode step " << expected_true.size();
                }
            }
        };

        if (variant.closedLoop) {
            for (RequestId id = 0; id < 8; ++id)
                engine.submitAt(make(id), 0);
            next_id = 8;
        }
        for (int wave = 0; wave < 2 && !variant.closedLoop; ++wave) {
            for (RequestId id = 0; id < kWave; ++id) {
                engine.submitAt(make(id),
                                engine.report().makespan +
                                    id * variant.arrivalGap);
            }
            const std::size_t done = engine.numFinished() +
                static_cast<std::size_t>(kWave);
            while (engine.numFinished() < done) {
                ASSERT_TRUE(engine.stepOnce());
                consume();
            }
        }
        while (engine.stepOnce())
            consume();
        ASSERT_EQ(trace.ring().dropped(), 0u);

        // The second wave (or every resubmission) ran on recycled
        // slab entries.
        EXPECT_LE(recorded.slabEntries,
                  static_cast<std::size_t>(kWave));
        const auto report = engine.report();
        if (variant.predictor != Predictor::Inner) {
            EXPECT_GT(report.evictionEvents, 0);
        }
        if (variant.closedLoop) {
            EXPECT_EQ(report.numFinished,
                      static_cast<std::size_t>(4 * kWave));
            EXPECT_LE(recorded.slabEntries, 8u);
        }
        // One M* counter per decode step the report counts, each
        // equal to the from-scratch M* in tokens.
        ASSERT_EQ(kv_future_true.size(),
                  static_cast<std::size_t>(report.decodeSteps));
        ASSERT_EQ(kv_future_true.size(), expected_true.size());
        const double capacity =
            static_cast<double>(engine.capacityTokens());
        double error_sum = 0.0;
        for (std::size_t i = 0; i < expected_true.size(); ++i) {
            ASSERT_EQ(kv_future_true[i], expected_true[i])
                << "decode step " << i;
            const double future =
                static_cast<double>(expected_true[i]) / capacity;
            const double predicted =
                static_cast<double>(expected_predicted[i]) / capacity;
            error_sum += std::fabs(predicted - future);
        }
        EXPECT_DOUBLE_EQ(report.futureErrorAbsSum, error_sum);

        // Peeks made within one step share a trace stamp.
        std::unordered_map<std::size_t, std::size_t> per_stamp;
        std::size_t max_shared = 0;
        for (const PeekRecorder::Peek &peek : recorded.peeks)
            max_shared = std::max(max_shared, ++per_stamp[peek.traceStamp]);
        EXPECT_GE(max_shared, variant.minSharedLapses);
        EXPECT_GE(max_slide, variant.minSlide);
    }
}

/**
 * The request slab grows to the workload's concurrency high-water
 * mark, not to the requests served: open-loop arrivals spaced so
 * concurrency stays low reuse recycled slots (a per-arrival
 * allocation regression reaches all 400). The allocations of this
 * run are counted by
 * EngineAllocTest.SubmitPathReusesRequestSlab.
 */
TEST(ServingEngineStateTest, RequestSlabTracksPeakConcurrency)
{
    const auto dataset = workload::makeShareGpt(400, 13);
    auto recorder = std::make_unique<PeekRecorder>(
        core::makeScheduler(SchedulerConfig::pastFutureDefault(0.05)),
        PeekRecorder::Predictor::Inner);
    const PeekRecorder &recorded = *recorder;
    ServingEngine engine(tinyPerf(32.0),
                         std::make_unique<core::SchedulingPolicy>(
                             std::move(recorder)));
    Tick arrival = 0;
    for (const auto &spec : dataset.requests) {
        engine.submitAt(spec, arrival);
        arrival += 100000;
    }
    const auto report = engine.run();
    ASSERT_EQ(report.numFinished, dataset.requests.size());
    EXPECT_LT(recorded.slabEntries, dataset.requests.size() / 2)
        << "request slots are not being recycled";
    EXPECT_GT(recorded.slabEntries, 0u);
}

/**
 * A request that leaves an engine without finishing — drained,
 * stolen — takes its sticky sample with it: the slot's release drops
 * it, so the scheduler's per-request state is bounded by the
 * requests it still holds. (Candidates a round rejects get samples
 * too, so the queue always holds some.)
 */
TEST(ServingEngineStateTest, DepartingRequestsLeaveNoStickySample)
{
    for (const bool steal : {false, true}) {
        SCOPED_TRACE(steal ? "stealQueued" : "drainQueued");
        sim::SimContext context;
        auto admission = core::makeScheduler(
            SchedulerConfig::pastFutureDefault(0.05));
        const auto &scheduler =
            dynamic_cast<const core::PastFutureScheduler &>(
                *admission);
        ServingEngine engine(tinyPerf(2.0),
                             std::make_unique<core::SchedulingPolicy>(
                                 std::move(admission)));
        engine.attachContext(context);
        constexpr RequestId kRequests = 40;
        for (RequestId id = 0; id < kRequests; ++id)
            engine.submitAt(makeRequest(id, 200, 300, 600), 0);
        // Past the cold start: with a history, every candidate a
        // round tests gets a sample.
        while (engine.numFinished() < 4)
            ASSERT_TRUE(context.runNext());
        // Queued requests hold samples (beyond those holding KV).
        ASSERT_GT(scheduler.stickySampleCount(),
                  engine.kvManager().numRequests());

        const auto left = steal
            ? engine.stealQueued(static_cast<std::size_t>(kRequests))
            : engine.drainQueued();
        ASSERT_FALSE(left.empty());
        context.runToCompletion();
        EXPECT_EQ(engine.numFinished() + left.size(),
                  static_cast<std::size_t>(kRequests));
        EXPECT_EQ(scheduler.stickySampleCount(), 0u);
    }
}

TEST(ServingEngineTest, OversizedRequestThrows)
{
    ServingEngine engine(tinyPerf(1.2),
                         core::makeSchedulingPolicy(
                             SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 5000, 10), 0);
    EXPECT_TRUE(testfx::throwsWith<std::invalid_argument>(
        [&] { engine.run(); }, "cannot fit"));
}

TEST(ServingEngineDeathTest, DuplicateRequestIdPanics)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeSchedulingPolicy(
                             SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 10, 5), 0);
    engine.submitAt(makeRequest(1, 10, 5), 0);
    EXPECT_DEATH(engine.run(), "duplicate request id");
}

TEST(ServingEngineDeathTest, SecondRunPanics)
{
    ServingEngine engine(tinyPerf(8.0),
                         core::makeSchedulingPolicy(
                             SchedulerConfig::oracle()));
    engine.run();
    EXPECT_DEATH(engine.run(), "single-run");
}

/** A policy that admits nothing, even on an idle engine. */
class RefusingPolicy final : public core::SchedulingPolicy
{
  public:
    RefusingPolicy()
        : SchedulingPolicy(
              core::makeScheduler(SchedulerConfig::oracle()))
    {
    }

    void
    decideInto(const core::SchedulerContext &,
               core::SchedulingDecision &out) override
    {
        out.admit.clear();
    }
};

TEST(ServingEngineDeathTest, IdleRoundThatAdmitsNothingPanics)
{
    // The pipeline force-admits on an idle round; a policy that
    // refuses anyway would stall the engine, so the engine asserts
    // rather than overriding the decision.
    ServingEngine engine(tinyPerf(8.0),
                         std::make_unique<RefusingPolicy>());
    engine.submitAt(makeRequest(1, 10, 5), 0);
    EXPECT_DEATH(engine.run(), "idle admission round admitted nothing");
}

// --- Step/run equivalence ----------------------------------------------

/** How a fresh engine is loaded and driven. */
struct DriveCase
{
    const char *name;

    /** Four closed-loop clients, or one arrival every 20 s (the
     *  engine idles between them). */
    bool closedLoop;

    RunLimits limits;
};

/**
 * Serve 24 ShareGPT requests under `drive`, through run(limits) or
 * through a stepOnce(limits) loop. The stepped drive also checks
 * that no call ran more than one iteration: with split-fuse off
 * every iteration is exactly one decode step.
 */
metrics::RunReport
driveEngine(const DriveCase &drive, bool stepped)
{
    ServingEngine engine(tinyPerf(32.0),
                         core::makeSchedulingPolicy(
                             SchedulerConfig::pastFutureDefault(0.05)));
    // A stepped drive traces: every delivered arrival records its
    // queue span (tracing leaves the report's bytes alone).
    trace::EngineTrace trace(1, "engine",
                             trace::TraceDetail::Requests, 1 << 16);
    if (stepped)
        engine.attachTrace(&trace);
    const workload::Dataset dataset = workload::makeShareGpt(24, 11);
    workload::ClosedLoopClientPool clients(4, dataset, engine);
    if (drive.closedLoop) {
        engine.setOnFinish([&](const RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
        clients.start();
    } else {
        for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
            engine.submitAt(dataset.requests[i],
                            static_cast<Tick>(i) * secondsToTicks(20.0));
        }
    }
    if (!stepped)
        return engine.run(drive.limits);
    std::int64_t steps = 0;
    std::size_t events = 0;
    while (engine.stepOnce(drive.limits)) {
        const std::int64_t after = engine.report().decodeSteps;
        EXPECT_LE(after - steps, 1) << "one call ran two iterations";
        steps = after;
        events = trace.ring().size();
    }
    // A limit its last iteration reached stops the run before any
    // delivery (an idle-gap maxTicks stop still delivers the
    // arrivals due by the tick the clock moved to).
    if (drive.limits.maxFinishedRequests > 0) {
        EXPECT_EQ(trace.ring().dropped(), 0u);
        EXPECT_EQ(trace.ring().size(), events)
            << "a stopped run delivered arrivals";
    }
    return engine.report();
}

/** The contract a stepped driver (the traced benchmark pass) relies
 *  on: a stepOnce(limits) loop reports the same bytes as run(). */
TEST(StepRunEquivalenceTest, SteppedLoopReportsRunBytes)
{
    RunLimits max_finished;
    max_finished.maxFinishedRequests = 10;
    RunLimits idle_gap;
    idle_gap.maxTicks = secondsToTicks(50.0);
    const DriveCase cases[] = {
        {"closed loop", true, {}},
        {"open loop", false, {}},
        {"max finished", true, max_finished},
        {"idle-gap max ticks", false, idle_gap},
    };
    for (const DriveCase &drive : cases) {
        SCOPED_TRACE(drive.name);
        const metrics::RunReport run = driveEngine(drive, false);
        const metrics::RunReport stepped = driveEngine(drive, true);
        std::ostringstream run_json;
        std::ostringstream stepped_json;
        const auto sla = metrics::SlaSpec::small7b13b();
        metrics::writeSummaryJson(run_json, run, sla);
        metrics::writeSummaryJson(stepped_json, stepped, sla);
        EXPECT_EQ(stepped_json.str(), run_json.str());
    }
}

/** RunLimits::maxTicks: the requests arriving at 0, 20 and 40 s are
 *  served; the one arriving at 60 s lands in an idle gap after the
 *  50 s limit, so the clock (and makespan) moves to its tick but no
 *  iteration admits it. */
TEST(StepRunEquivalenceTest, IdleGapArrivalEndsTheMakespan)
{
    RunLimits limits;
    limits.maxTicks = secondsToTicks(50.0);
    const metrics::RunReport report =
        driveEngine({"idle-gap max ticks", false, limits}, false);
    EXPECT_EQ(report.numFinished, 3u);
    EXPECT_EQ(report.prefillIterations, 3);
    EXPECT_EQ(report.makespan, secondsToTicks(60.0));
}

// --- Decode runs under mid-run interference ------------------------------

/**
 * One seeded scenario: a prefix-cached engine (swap or recompute
 * eviction, split-fuse or not, block size 1, 7 or 16, Past-Future
 * or Aggressive admission under memory pressure) serving arrivals
 * at random ticks — session turns sharing a system prompt, and
 * migrated (disaggregated-handoff) requests — while probe events
 * land at random ticks, mostly inside decode runs: they read
 * outstandingTokens(), predictedLoadTokens(), pendingPrefillTokens(),
 * kvManager(), report() and now(), steal queued work and re-submit
 * it later, and finally drain the engine. Finish notifications,
 * which land exactly where a run starts, read too, and a third of
 * them send a follow-up request at once (a closed loop). With
 * `shared` the engine sits on an outside context drained event by
 * event (as a fleet's instances do), else a stepOnce() loop drives
 * it. Returns everything the drive observed: every reading, then
 * the summary JSON, the per-request CSV and the records' ticks.
 */
std::string
probedDrive(std::uint64_t seed, bool shared)
{
    Rng rng(seed);
    EngineConfig config;
    const TokenCount block_sizes[] = {1, 7, 16};
    config.blockSize = block_sizes[rng.uniformInt(0, 2)];
    config.prefixCache = true;
    config.evictionMode = seed % 2 == 0 ? EvictionMode::Swap
                                        : EvictionMode::Recompute;
    config.splitFuseChunk = seed / 2 % 2 == 0 ? 96 : 0;
    const SchedulerConfig scheduler = seed / 4 % 2 == 0
        ? SchedulerConfig::pastFutureDefault(0.05)
        : SchedulerConfig::aggressive(0.95);
    // Slow memory: every KV token adds about a tick to a step, so
    // the steps of a run differ and each gap is visible.
    sim::SimContext outside;
    ServingEngine engine(tinyPerf(2.0 + rng.uniformDouble(), 1e9),
                         core::makeSchedulingPolicy(scheduler),
                         config);
    if (shared)
        engine.attachContext(outside);
    sim::SimContext &context = engine.context();
    std::ostringstream log;
    auto read = [&]() {
        log << " out " << engine.outstandingTokens() << " load "
            << engine.predictedLoadTokens() << " prefill "
            << engine.pendingPrefillTokens() << " kv "
            << engine.kvManager().usedTokens();
        // The settled clock: the makespan of a run with no warmup.
        const metrics::RunReport report = engine.report();
        log << " steps " << report.decodeSteps << " now "
            << report.makespan;
    };
    RequestId follow_up = 1000;
    bool drained = false;  // the last probe drains the engine
    engine.setOnFinish([&](const RequestSpec &spec, Tick tick) {
        log << "finish " << spec.id << " @" << tick << ":";
        read();
        if (spec.id % 3 == 0 && !drained) {
            engine.submitAt(
                makeRequest(follow_up++, spec.inputLen,
                            std::max<TokenCount>(2, spec.outputLen / 2),
                            spec.maxNewTokens),
                tick);
        }
        log << "\n";
    });

    constexpr std::uint64_t kSystemPrompt = 1;
    constexpr int kRequests = 48;
    for (int i = 0; i < kRequests; ++i) {
        const auto id = static_cast<RequestId>(i + 1);
        RequestSpec spec = makeRequest(id, rng.uniformInt(16, 300),
                                       rng.uniformInt(2, 600),
                                       rng.uniformInt(300, 500));
        const auto kind = rng.uniformInt(0, 9);
        if (kind < 5) {
            // A session turn: the shared system prompt, then its own.
            const TokenCount shared = std::min<TokenCount>(
                64, spec.inputLen - 1);
            const auto own = static_cast<std::uint64_t>(100 + id);
            spec.segments = {PromptSegment{kSystemPrompt, shared},
                             PromptSegment{own, spec.inputLen - shared}};
            spec.sessionKey = 1 + id % 5;
        } else if (kind < 7) {
            spec.migratedPrefix = spec.inputLen;
        }
        // Two bursts: memory pressure, then a drained queue.
        const Tick burst = i % 2 == 0 ? 0 : secondsToTicks(4.0);
        engine.submitAt(spec,
                        burst + rng.uniformInt(0, secondsToTicks(1.0)));
    }

    constexpr int kProbes = 120;
    const Tick drain_at = secondsToTicks(8.0);
    for (int i = 0; i < kProbes; ++i) {
        const Tick at = i + 1 == kProbes
            ? drain_at
            : rng.uniformInt(0, drain_at - 1);
        const auto kind = rng.uniformInt(0, 6);
        const auto steal = static_cast<std::size_t>(rng.uniformInt(1, 3));
        const Tick delay = rng.uniformInt(0, secondsToTicks(1.0));
        context.schedule(at, [&, i, kind, steal, delay](Tick tick) {
            log << "probe " << i << " @" << tick << ":";
            if (i + 1 == kProbes) {
                drained = true;
                for (const auto &request : engine.drainQueued())
                    log << " drained " << request.spec.id;
            } else if (kind == 0) {
                for (const auto &stolen : engine.stealQueued(steal)) {
                    log << " stole " << stolen.spec.id;
                    engine.submitStamped(stolen.spec, tick + delay,
                                         stolen.arrivalStamp);
                }
            } else {
                read();
            }
            log << "\n";
        });
    }

    if (shared) {
        context.runToCompletion();
    } else {
        while (engine.stepOnce()) {
        }
    }
    const metrics::RunReport report = engine.report();
    const auto sla = metrics::SlaSpec::small7b13b();
    metrics::writeSummaryJson(log, report, sla);
    metrics::writeRequestsCsv(log, report, sla);
    // Every tick at full precision (the CSV rounds them).
    for (const metrics::RequestRecord &record : report.requests) {
        log << record.id << ' ' << record.arrival << ' '
            << record.firstToken << ' ' << record.finish << ' '
            << record.maxGap << ' ' << record.outputTokens << ' '
            << record.evictions << '\n';
    }
    return log.str();
}

/**
 * On a shared context a decode run costs one Step event and settles
 * at the events that land in it; a stepOnce() loop settles one
 * planned step per call. Both must observe exactly what an engine
 * firing one Step event per decode step observed — the pinned
 * hashes are that engine's.
 */
TEST(StepRunEquivalenceTest, RandomisedInterferenceMatchesStepwise)
{
    const std::pair<std::uint64_t, std::uint64_t> cases[] = {
        {1, 10723176399151036463ull}, {2, 15836191800466266454ull},
        {3, 7325822302415403870ull},  {4, 13969837677980682999ull},
        {5, 8745503206270624569ull},  {6, 6786646529659092668ull},
        {7, 14299833054585705123ull}, {8, 4169159873537137797ull},
    };
    for (const auto &[seed, pinned] : cases) {
        SCOPED_TRACE(seed);
        const std::string shared = probedDrive(seed, true);
        const std::string stepped = probedDrive(seed, false);
        EXPECT_EQ(stepped, shared);
        EXPECT_EQ(fnv1a(shared), pinned);
    }
}

/**
 * Two requests decode together until the KV runs out mid-run; the
 * newer one is evicted, and the older one decodes on alone over
 * less KV, so its widest gap is the run's last step, which no later
 * iteration matches. Pinned from the engine that fired one Step
 * event per decode step.
 */
TEST(DecodeRunTest, WidestGapCanLieInsideARun)
{
    ServingEngine engine(tinyPerf(2.0, 1e8),
                         core::makeSchedulingPolicy(
                             SchedulerConfig::aggressive(0.99)));
    const TokenCount cap = engine.capacityTokens();
    engine.submitAt(makeRequest(1, cap / 4, cap * 6 / 10), 0);
    engine.submitAt(makeRequest(2, cap / 4, cap * 6 / 10), 0);
    const metrics::RunReport report = engine.run();
    ASSERT_EQ(report.requests.size(), 2u);
    EXPECT_EQ(report.evictionEvents, 1);
    EXPECT_EQ(report.requests[0].id, 1);
    EXPECT_EQ(report.requests[0].maxGap, 25243);
}

// --- Static-batch baseline ---------------------------------------------

TEST(StaticEngineTest, ProcessesWholeDataset)
{
    const auto perf = tinyPerf(20.0);
    const auto dataset = workload::makeTextVqaLike(64, 576, 3);
    const auto report = runStaticBatch(perf, dataset);
    EXPECT_EQ(report.numFinished, 64u);
    EXPECT_EQ(report.totalOutputTokens,
              testfx::totalOutputTokens(dataset));
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

/**
 * The static-batch baseline's report bytes (summary JSON + request
 * CSV), at the derived batch size and at a fixed one, pinned so a
 * change to its KV bookkeeping cannot move Table 2's origin rows.
 */
TEST(StaticEngineTest, ReportBytesArePinned)
{
    const auto perf = tinyPerf(20.0);
    const auto dataset = workload::makeTextVqaLike(64, 576, 3);
    const auto sla = metrics::SlaSpec::small7b13b();
    const std::pair<std::size_t, std::uint64_t> cases[] = {
        {0, 17784609991413961195ull},
        {4, 15620662653071586547ull},
    };
    for (const auto &[batch_size, pinned] : cases) {
        SCOPED_TRACE(batch_size);
        StaticEngineConfig config;
        config.batchSize = batch_size;
        const auto report = runStaticBatch(perf, dataset, config);
        std::ostringstream bytes;
        metrics::writeSummaryJson(bytes, report, sla);
        metrics::writeRequestsCsv(bytes, report, sla);
        EXPECT_EQ(fnv1a(bytes.str()), pinned);
    }
}

} // namespace
} // namespace engine
} // namespace lightllm
