/**
 * @file
 * Tests for the extensions beyond the paper's core: swap-based
 * eviction, the step-wise engine API, multi-instance routing (the
 * paper's future-work proposal), and report export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "autoscale/scale_policy.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "sim/sim_context.hh"
#include "test_fixtures.hh"
#include "workload/arrivals.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace {

using core::SchedulerConfig;
using testfx::makeRequest;
using testfx::tinyPerf;
using workload::RequestSpec;

// --- Swap eviction ------------------------------------------------------

TEST(SwapEvictionTest, SwappedRequestsComplete)
{
    engine::EngineConfig config;
    config.evictionMode = engine::EvictionMode::Swap;
    engine::ServingEngine engine(
        tinyPerf(1.2),
        core::makeSchedulingPolicy(SchedulerConfig::aggressive(1.0)),
        config);
    engine.submitAt(makeRequest(1, 300, 300, 600), 0);
    engine.submitAt(makeRequest(2, 300, 300, 600), 0);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 2u);
    EXPECT_GE(report.evictionEvents, 1);
    EXPECT_GE(report.swapEvents, 2);  // out + in, at least
    EXPECT_GT(report.swappedTokens, 0);
    for (const auto &record : report.requests)
        EXPECT_EQ(record.outputTokens, 300);
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
}

TEST(SwapEvictionTest, RecomputeModeNeverSwaps)
{
    engine::ServingEngine engine(
        tinyPerf(1.2),
        core::makeSchedulingPolicy(SchedulerConfig::aggressive(1.0)));
    engine.submitAt(makeRequest(1, 300, 300, 600), 0);
    engine.submitAt(makeRequest(2, 300, 300, 600), 0);
    const auto report = engine.run();
    EXPECT_GE(report.evictionEvents, 1);
    EXPECT_EQ(report.swapEvents, 0);
}

TEST(SwapEvictionTest, SwapAvoidsRecomputePrefills)
{
    // With swap, no recompute prefill runs: prefill iterations stay
    // at one per request despite evictions.
    auto run_mode = [&](engine::EvictionMode mode) {
        engine::EngineConfig config;
        config.evictionMode = mode;
        engine::ServingEngine engine(
            tinyPerf(1.2),
            core::makeSchedulingPolicy(
                SchedulerConfig::aggressive(1.0)),
            config);
        engine.submitAt(makeRequest(1, 300, 300, 600), 0);
        engine.submitAt(makeRequest(2, 300, 300, 600), 0);
        return engine.run();
    };
    const auto swap = run_mode(engine::EvictionMode::Swap);
    const auto recompute = run_mode(engine::EvictionMode::Recompute);
    ASSERT_GE(swap.evictionEvents, 1);
    ASSERT_GE(recompute.evictionEvents, 1);
    EXPECT_EQ(swap.prefillIterations, 2);
    EXPECT_GT(recompute.prefillIterations, 2);
    EXPECT_GT(recompute.totalPrefillTokens,
              swap.totalPrefillTokens);
}

TEST(SwapEvictionTest, WorksUnderSplitFuse)
{
    engine::EngineConfig config;
    config.evictionMode = engine::EvictionMode::Swap;
    config.splitFuseChunk = 128;
    engine::ServingEngine engine(
        tinyPerf(1.2),
        core::makeSchedulingPolicy(SchedulerConfig::aggressive(1.0)),
        config);
    engine.submitAt(makeRequest(1, 300, 300, 600), 0);
    engine.submitAt(makeRequest(2, 300, 300, 600), 0);
    const auto report = engine.run();
    EXPECT_EQ(report.numFinished, 2u);
    EXPECT_EQ(report.totalOutputTokens, 600);
    EXPECT_EQ(engine.kvManager().usedTokens(), 0);
}

// --- Step-wise API ------------------------------------------------------

TEST(StepApiTest, StepOnceMatchesRun)
{
    auto build = [&]() {
        auto engine = std::make_unique<engine::ServingEngine>(
            tinyPerf(8.0),
            core::makeSchedulingPolicy(SchedulerConfig::oracle()));
        for (RequestId id = 0; id < 5; ++id)
            engine->submitAt(makeRequest(id, 50, 20 + id), 0);
        return engine;
    };
    auto stepped = build();
    while (stepped->stepOnce()) {
    }
    const auto stepped_report = stepped->report();
    const auto run_report = build()->run();
    EXPECT_EQ(stepped_report.numFinished, run_report.numFinished);
    EXPECT_EQ(stepped_report.decodeSteps, run_report.decodeSteps);
    EXPECT_EQ(stepped_report.makespan, run_report.makespan);
}

TEST(StepApiTest, StepOnceReturnsFalseWhenDrained)
{
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()));
    EXPECT_FALSE(engine.stepOnce());
    engine.submitAt(makeRequest(1, 10, 2), 0);
    EXPECT_TRUE(engine.stepOnce());
    while (engine.stepOnce()) {
    }
    EXPECT_FALSE(engine.hasWork());
    EXPECT_FALSE(engine.hasPendingArrivals());
}

TEST(StepApiTest, OutstandingTokensTracksQueue)
{
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()));
    EXPECT_EQ(engine.outstandingTokens(), 0);
    engine.submitAt(makeRequest(1, 100, 10), 0);
    engine.stepOnce();  // deliver + admit + prefill + decode
    EXPECT_GT(engine.outstandingTokens(), 100);
}

TEST(StepApiTest, PredictedLoadUsesSchedulerEstimate)
{
    // The Past-Future scheduler's load estimate includes predicted
    // output growth, so it exceeds the plain outstanding footprint.
    auto config = SchedulerConfig::pastFutureDefault(0.05);
    config.pastFuture.initialHistory.assign(200, 400);
    engine::ServingEngine engine(tinyPerf(8.0),
                                 core::makeSchedulingPolicy(config));
    engine.submitAt(makeRequest(1, 100, 300, 500), 0);
    engine.stepOnce();
    EXPECT_GT(engine.predictedLoadTokens(),
              engine.outstandingTokens());
}

// --- Cluster routing ------------------------------------------------------

std::unique_ptr<cluster::ServingCluster>
makeCluster(sim::SimContext &context, std::size_t instances,
            cluster::RoutingPolicy policy,
            SchedulerConfig scheduler_config,
            double mem_megabytes = 4.0,
            std::vector<engine::ServingEngine *> *views = nullptr)
{
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    for (std::size_t i = 0; i < instances; ++i) {
        engines.push_back(std::make_unique<engine::ServingEngine>(
            tinyPerf(mem_megabytes),
            core::makeSchedulingPolicy(scheduler_config)));
        if (views != nullptr)
            views->push_back(engines.back().get());
    }
    return std::make_unique<cluster::ServingCluster>(
        std::move(engines), policy, context);
}

TEST(ClusterTest, RoundRobinSpreadsRequestsEvenly)
{
    sim::SimContext context;
    auto fleet = makeCluster(context, 4,
                             cluster::RoutingPolicy::RoundRobin,
                             SchedulerConfig::oracle());
    testfx::RoutedLog log;
    fleet->recordSubmissions(&log);
    for (RequestId id = 0; id < 40; ++id)
        fleet->submitAt(makeRequest(id, 50, 20), 0);
    const auto report = fleet->run();
    EXPECT_EQ(report.numFinished, 40u);
    for (std::size_t count : testfx::routedCounts(log, 4))
        EXPECT_EQ(count, 10u);
}

TEST(ClusterTest, MergedReportConservesTokens)
{
    sim::SimContext context;
    auto fleet = makeCluster(context, 3,
                             cluster::RoutingPolicy::RoundRobin,
                             SchedulerConfig::oracle());
    TokenCount expected = 0;
    for (RequestId id = 0; id < 30; ++id) {
        const auto spec = makeRequest(id, 50, 10 + id % 7);
        expected += spec.effectiveOutputLen();
        fleet->submitAt(spec, 0);
    }
    const auto report = fleet->run();
    EXPECT_EQ(report.totalOutputTokens, expected);
    EXPECT_EQ(report.requests.size(), 30u);
}

TEST(ClusterTest, LeastOutstandingAvoidsTheLoadedInstance)
{
    // Pre-load instance 0 via round-robin-free direct submission,
    // then check the router sends the next requests elsewhere.
    sim::SimContext context;
    auto fleet = makeCluster(
        context, 2, cluster::RoutingPolicy::LeastOutstandingTokens,
        SchedulerConfig::oracle());
    testfx::RoutedLog log;
    fleet->recordSubmissions(&log);
    // First request goes to some instance; the second must go to
    // the other one because the first is now loaded.
    fleet->submitAt(makeRequest(1, 500, 200), 0);
    fleet->submitAt(makeRequest(2, 500, 200), 0);
    const auto counts = testfx::routedCounts(log, 2);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 1u);
    fleet->run();
}

TEST(ClusterTest, FutureMemoryRoutingBalancesHeavyTails)
{
    // Heavy-tailed outputs: future-memory routing should spread
    // *predicted* work, ending with lower token imbalance than
    // round-robin on the same workload.
    const auto dataset = workload::makeShareGptO1(120, 31);
    auto route_with = [&](cluster::RoutingPolicy policy) {
        auto config = SchedulerConfig::pastFutureDefault(0.05);
        config.pastFuture.initialHistory.assign(500, 0);
        auto warm = workload::makeShareGptO1(500, 32);
        config.pastFuture.initialHistory.clear();
        for (const auto &request : warm.requests) {
            config.pastFuture.initialHistory.push_back(
                request.effectiveOutputLen());
        }
        sim::SimContext context;
        auto fleet = makeCluster(context, 4, policy, config, 16.0);
        workload::ClosedLoopClientPool clients(16, dataset, *fleet);
        fleet->setOnFinish(
            [&](const RequestSpec &spec, Tick tick) {
                clients.onRequestFinished(spec.id, tick);
            });
        clients.start();
        const auto report = fleet->run();
        EXPECT_EQ(report.numFinished, dataset.requests.size());
        return fleet->tokenImbalance();
    };
    const double future_memory =
        route_with(cluster::RoutingPolicy::FutureMemory);
    const double round_robin =
        route_with(cluster::RoutingPolicy::RoundRobin);
    EXPECT_LT(future_memory, round_robin);
}

TEST(ClusterTest, PolicyNames)
{
    EXPECT_STREQ(cluster::routingPolicyName(
                     cluster::RoutingPolicy::RoundRobin),
                 "round-robin");
    EXPECT_STREQ(cluster::routingPolicyName(
                     cluster::RoutingPolicy::FutureMemory),
                 "future-memory");
}

TEST(ClusterTest, LeastOutstandingBreaksTiesByLowestIndex)
{
    sim::SimContext context;
    auto fleet = makeCluster(
        context, 3, cluster::RoutingPolicy::LeastOutstandingTokens,
        SchedulerConfig::oracle());
    testfx::RoutedLog log;
    fleet->recordSubmissions(&log);
    // Idle fleet: every submission loads the lowest-index instance
    // among the still-empty ones, giving the order 0, 1, 2.
    for (RequestId id = 0; id < 3; ++id)
        fleet->submitAt(makeRequest(id, 100, 10), 0);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0].instance, 0u);
    EXPECT_EQ(log[1].instance, 1u);
    EXPECT_EQ(log[2].instance, 2u);
    fleet->run();
}

TEST(ClusterTest, StaticFleetsRouteAtSubmissionElasticAtArrival)
{
    // Under open-loop load a static fleet places every request when
    // it is submitted, before the first event fires; an elastic
    // fleet defers each placement to its arrival tick.
    const auto dataset = workload::makeShareGpt(16, 5);
    for (const bool elastic : {false, true}) {
        sim::SimContext context;
        std::vector<std::unique_ptr<engine::ServingEngine>> engines;
        for (std::size_t i = 0; i < 2; ++i) {
            engines.push_back(std::make_unique<engine::ServingEngine>(
                tinyPerf(8.0), core::makeSchedulingPolicy(
                                   SchedulerConfig::oracle())));
        }
        cluster::ServingCluster fleet(
            std::move(engines), cluster::RoutingPolicy::FutureMemory,
            context);
        testfx::RoutedLog log;
        fleet.recordSubmissions(&log);
        if (elastic) {
            autoscale::AutoscaleConfig config;
            config.minInstances = 2;
            config.maxInstances = 2;
            config.sla = metrics::SlaSpec::small7b13b();
            fleet.enableAutoscale(
                config,
                std::make_unique<autoscale::ReactiveThresholdPolicy>(
                    0.9),
                [] {
                    return std::make_unique<engine::ServingEngine>(
                        tinyPerf(8.0), core::makeSchedulingPolicy(
                                           SchedulerConfig::oracle()));
                });
        }
        workload::submitPoissonArrivals(dataset, fleet, 4.0, 5);
        EXPECT_EQ(log.size(), elastic ? 0u : 16u)
            << "elastic=" << elastic;
        const auto report = fleet.run();
        EXPECT_EQ(report.numFinished, 16u);
        EXPECT_EQ(log.size(), 16u)
            << "elastic=" << elastic;
    }
}

TEST(ClusterTest, FutureMemoryAccountingDrainsToZero)
{
    sim::SimContext context;
    auto fleet = makeCluster(context, 2,
                             cluster::RoutingPolicy::FutureMemory,
                             SchedulerConfig::oracle());
    testfx::RoutedLog log;
    fleet->recordSubmissions(&log);
    // With a warmed router history the predicted charge equals the
    // predictor's footprint: prompt + conditional expected output.
    const std::vector<TokenCount> history(200, 40);
    fleet->warmRoutingHistory(history);
    core::LengthPredictor reference(core::kPaperWindowSize);
    for (TokenCount length : history)
        reference.observe(length);

    fleet->submitAt(makeRequest(1, 100, 30, 500), 0);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].footprint, reference.predictFootprint(100, 500));
    fleet->submitAt(makeRequest(2, 100, 30, 500), 0);
    // The first request's charge sends the second to the other
    // (uncharged) instance.
    ASSERT_EQ(log.size(), 2u);
    EXPECT_NE(log[0].instance, log[1].instance);

    // Completion events release every charge: the merged report
    // asserts the router carries no residual predicted load.
    const auto report = fleet->run();
    EXPECT_EQ(report.numFinished, 2u);
}

TEST(ClusterTest, FutureMemoryChargesTrackEveryCompletion)
{
    // Closed-loop traffic: charges accumulate and release across
    // many completion events; after the run the router must carry
    // zero residual predicted load on every instance, which the
    // merged report asserts.
    const auto dataset = workload::makeShareGpt(60, 5);
    sim::SimContext context;
    auto fleet = makeCluster(context, 3,
                             cluster::RoutingPolicy::FutureMemory,
                             SchedulerConfig::oracle(), 8.0);
    workload::ClosedLoopClientPool clients(12, dataset, *fleet);
    fleet->setOnFinish(
        [&](const RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    const auto report = fleet->run();
    EXPECT_EQ(report.numFinished, 60u);
}

TEST(ClusterTest, MergedReportEqualsPerInstanceSums)
{
    const auto dataset = workload::makeShareGptO1(80, 9);
    sim::SimContext context;
    std::vector<engine::ServingEngine *> instances;
    auto fleet = makeCluster(context, 4,
                             cluster::RoutingPolicy::FutureMemory,
                             SchedulerConfig::oracle(), 16.0,
                             &instances);
    workload::ClosedLoopClientPool clients(24, dataset, *fleet);
    fleet->setOnFinish(
        [&](const RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    const auto merged = fleet->run();

    std::size_t finished = 0;
    std::int64_t decode_steps = 0;
    std::int64_t prefills = 0;
    TokenCount output_tokens = 0;
    std::size_t records = 0;
    Tick makespan = 0;
    for (std::size_t i = 0; i < fleet->numInstances(); ++i) {
        const auto report = instances[i]->report();
        finished += report.numFinished;
        decode_steps += report.decodeSteps;
        prefills += report.prefillIterations;
        output_tokens += report.totalOutputTokens;
        records += report.requests.size();
        makespan = std::max(makespan, report.makespan);
    }
    EXPECT_EQ(merged.numFinished, finished);
    EXPECT_EQ(merged.decodeSteps, decode_steps);
    EXPECT_EQ(merged.prefillIterations, prefills);
    EXPECT_EQ(merged.totalOutputTokens, output_tokens);
    EXPECT_EQ(merged.requests.size(), records);
    EXPECT_EQ(merged.makespan, makespan);
}

// --- Heterogeneous fleets ------------------------------------------------

TEST(ClusterTest, HeterogeneousCapacityBiasesLeastOutstanding)
{
    // Instance 0 has 4x the KV capacity: capacity-normalised
    // least-outstanding routing should hand it more of the traffic,
    // and the whole fleet must still finish everything.
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    engines.push_back(std::make_unique<engine::ServingEngine>(
        tinyPerf(16.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle())));
    engines.push_back(std::make_unique<engine::ServingEngine>(
        tinyPerf(4.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle())));
    sim::SimContext context;
    cluster::ServingCluster fleet(
        std::move(engines),
        cluster::RoutingPolicy::LeastOutstandingTokens, context);
    testfx::RoutedLog log;
    fleet.recordSubmissions(&log);

    const auto dataset = workload::makeShareGpt(60, 3);
    workload::ClosedLoopClientPool clients(16, dataset, fleet);
    fleet.setOnFinish(
        [&](const RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    const auto report = fleet.run();
    EXPECT_EQ(report.numFinished, 60u);
    const auto counts = testfx::routedCounts(log, 2);
    EXPECT_GT(counts[0], counts[1]);
}

TEST(ClusterTest, HeterogeneousSpeedShiftsClosedLoopTraffic)
{
    // Same capacity, 3x different iteration speed: the fast
    // instance turns requests around sooner, so the closed loop
    // routes more work to it over time.
    engine::EngineConfig slow;
    slow.timeFactor = 3.0;
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    engines.push_back(std::make_unique<engine::ServingEngine>(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle())));
    engines.push_back(std::make_unique<engine::ServingEngine>(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()), slow));
    engine::ServingEngine &slow_engine = *engines.back();
    sim::SimContext context;
    cluster::ServingCluster fleet(
        std::move(engines),
        cluster::RoutingPolicy::LeastOutstandingTokens, context);
    testfx::RoutedLog log;
    fleet.recordSubmissions(&log);

    const auto dataset = workload::makeShareGpt(60, 13);
    workload::ClosedLoopClientPool clients(8, dataset, fleet);
    fleet.setOnFinish(
        [&](const RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    const auto report = fleet.run();
    EXPECT_EQ(report.numFinished, 60u);
    const auto counts = testfx::routedCounts(log, 2);
    EXPECT_GT(counts[0], counts[1]);
    // The fast instance also retires its share sooner per request.
    EXPECT_GT(slow_engine.report().makespan, 0);
}

// --- Drain ---------------------------------------------------------------

TEST(ClusterDrainTest, DrainRedispatchesQueuedWorkAndFleetFinishes)
{
    sim::SimContext context;
    auto fleet = makeCluster(context, 3,
                             cluster::RoutingPolicy::RoundRobin,
                             SchedulerConfig::oracle());
    testfx::RoutedLog log;
    fleet->recordSubmissions(&log);
    // Prompts sized so an instance's round-robin share cannot be
    // admitted in one go — a queue must exist at the drain tick.
    for (RequestId id = 0; id < 30; ++id)
        fleet->submitAt(makeRequest(id, 500, 100), 0);
    // Drain instance 0 early: most of its round-robin share is
    // still queued and must re-enter the router.
    fleet->scheduleDrain(0, 1);
    const auto report = fleet->run();
    EXPECT_EQ(report.numFinished, 30u);
    EXPECT_EQ(report.requests.size(), 30u);

    // Re-dispatches append to the log; none may target instance 0
    // at or after the drain tick (initial submissions land at 0,
    // re-dispatches at the drain tick 1).
    EXPECT_GT(log.size(), 30u);
    std::size_t redispatched = 0;
    for (const auto &sub : log) {
        if (sub.when >= 1) {
            ++redispatched;
            EXPECT_NE(sub.instance, 0u) << "request "
                                        << sub.spec.id;
        }
    }
    EXPECT_EQ(redispatched, log.size() - 30);
    EXPECT_GT(redispatched, 0u);

    // Every request finished exactly once across the fleet, and
    // re-dispatch preserved the original arrival stamps: TTFT keeps
    // counting from the first submission, not the drain tick.
    std::vector<RequestId> ids;
    for (const auto &record : report.requests) {
        ids.push_back(record.id);
        EXPECT_EQ(record.arrival, 0) << "request " << record.id;
    }
    std::sort(ids.begin(), ids.end());
    for (RequestId id = 0; id < 30; ++id)
        EXPECT_EQ(ids[static_cast<std::size_t>(id)], id);
}

TEST(ClusterDrainTest, DrainClawsBackInFlightArrivals)
{
    sim::SimContext context;
    std::vector<engine::ServingEngine *> instances;
    auto fleet = makeCluster(context, 2,
                             cluster::RoutingPolicy::RoundRobin,
                             SchedulerConfig::oracle(), 4.0,
                             &instances);
    // Two future arrivals routed before the drain fires: round-robin
    // sends one to each instance; instance 0's must be cancelled and
    // re-dispatched to instance 1 without ever touching instance 0.
    fleet->submitAt(makeRequest(1, 50, 10), 5000);
    fleet->submitAt(makeRequest(2, 50, 10), 5000);
    fleet->scheduleDrain(0, 100);
    const auto report = fleet->run();
    EXPECT_EQ(report.numFinished, 2u);
    EXPECT_EQ(instances[0]->numFinished(), 0u);
    EXPECT_EQ(instances[1]->numFinished(), 2u);
    // The clawed-back arrival kept its original arrival tick.
    for (const auto &record : report.requests)
        EXPECT_EQ(record.arrival, 5000);
}

// --- Report export ------------------------------------------------------

TEST(ReportIoTest, RequestsCsvHasHeaderAndRows)
{
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()));
    for (RequestId id = 0; id < 3; ++id)
        engine.submitAt(makeRequest(id, 30, 5), 0);
    const auto report = engine.run();

    std::ostringstream oss;
    metrics::writeRequestsCsv(oss, report,
                              metrics::SlaSpec::small7b13b());
    const std::string text = oss.str();
    EXPECT_NE(text.find("id,input_len"), std::string::npos);
    // Header + 3 rows.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    EXPECT_NE(text.find(",1\n"), std::string::npos);  // compliant
}

TEST(ReportIoTest, SummaryJsonContainsKeyFields)
{
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(SchedulerConfig::oracle()));
    engine.submitAt(makeRequest(1, 30, 5), 0);
    const auto report = engine.run();

    std::ostringstream oss;
    metrics::writeSummaryJson(oss, report,
                              metrics::SlaSpec::small7b13b());
    const std::string text = oss.str();
    EXPECT_NE(text.find("\"goodput_tok_s\""), std::string::npos);
    EXPECT_NE(text.find("\"num_finished\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"scheduler\""), std::string::npos);
}

TEST(ReportIoTest, ReportMergerAggregates)
{
    metrics::RunReport a;
    a.numFinished = 2;
    a.decodeSteps = 100;
    a.totalOutputTokens = 50;
    a.makespan = 500;
    a.avgConsumedMemory = 0.5;
    metrics::RunReport b;
    b.numFinished = 3;
    b.decodeSteps = 300;
    b.totalOutputTokens = 70;
    b.makespan = 900;
    b.avgConsumedMemory = 0.9;
    metrics::ReportMerger merger("fleet");
    merger.add(a);
    merger.add(b);
    const auto merged = merger.finish();
    EXPECT_EQ(merged.numFinished, 5u);
    EXPECT_EQ(merged.decodeSteps, 400);
    EXPECT_EQ(merged.totalOutputTokens, 120);
    EXPECT_EQ(merged.makespan, 900);
    EXPECT_NEAR(merged.avgConsumedMemory,
                (0.5 * 100 + 0.9 * 300) / 400.0, 1e-12);
    EXPECT_EQ(merged.schedulerName, "fleet");
}

} // namespace
} // namespace lightllm
