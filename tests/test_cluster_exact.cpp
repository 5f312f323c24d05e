/**
 * @file
 * Exactness and determinism of the event-driven cluster
 * co-simulation.
 *
 * The zero-skew property: a fleet co-simulated on one shared
 * SimContext must produce, for every instance, metrics identical to
 * a *serialized reference replay* — a fresh engine on its own
 * one-engine SimContext, fed the exact (spec, arrival-tick)
 * sequence the router sent that instance. If the co-simulation
 * leaked any cross-instance state out of global event order (the
 * old min-clock scan allowed one iteration of causality skew and
 * clamped arrival ticks to the target's engine clock), the replay
 * would diverge in arrival stamps, admission order, and ultimately
 * every latency metric. Byte-level determinism of the whole fleet run is pinned
 * separately, via the CLI scenario path users actually invoke.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli_scenario.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "test_fixtures.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace {

using core::SchedulerConfig;
using testfx::fnv1a;
using testfx::tinyPerf;
using workload::RequestSpec;

/** Compare a replayed one-engine report against the co-simulated
 *  per-instance report, field by field and record by record. */
void
expectIdenticalReports(const metrics::RunReport &replay,
                       const metrics::RunReport &cosim,
                       std::size_t instance)
{
    SCOPED_TRACE("instance " + std::to_string(instance));
    EXPECT_EQ(replay.numFinished, cosim.numFinished);
    EXPECT_EQ(replay.decodeSteps, cosim.decodeSteps);
    EXPECT_EQ(replay.prefillIterations, cosim.prefillIterations);
    EXPECT_EQ(replay.evictionEvents, cosim.evictionEvents);
    EXPECT_EQ(replay.requestsEvicted, cosim.requestsEvicted);
    EXPECT_EQ(replay.totalOutputTokens, cosim.totalOutputTokens);
    EXPECT_EQ(replay.makespan, cosim.makespan);
    ASSERT_EQ(replay.requests.size(), cosim.requests.size());
    for (std::size_t i = 0; i < replay.requests.size(); ++i) {
        const auto &a = replay.requests[i];
        const auto &b = cosim.requests[i];
        ASSERT_EQ(a.id, b.id) << "record " << i;
        EXPECT_EQ(a.arrival, b.arrival) << "record " << i;
        EXPECT_EQ(a.firstToken, b.firstToken) << "record " << i;
        EXPECT_EQ(a.finish, b.finish) << "record " << i;
        EXPECT_EQ(a.maxGap, b.maxGap) << "record " << i;
        EXPECT_EQ(a.outputTokens, b.outputTokens) << "record " << i;
        EXPECT_EQ(a.evictions, b.evictions) << "record " << i;
    }
}

struct InstanceSetup
{
    model::PerfModel perf;
    engine::EngineConfig config;
};

/** Co-simulate a closed-loop fleet, then replay each instance's
 *  routed submissions on a one-engine context and demand equality. */
void
runExactnessScenario(const std::vector<InstanceSetup> &setups,
                     cluster::RoutingPolicy routing,
                     const workload::Dataset &dataset,
                     std::size_t clients,
                     const SchedulerConfig &scheduler_config,
                     bool expect_evictions = false)
{
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    std::vector<engine::ServingEngine *> instances;
    for (const InstanceSetup &setup : setups) {
        engines.push_back(std::make_unique<engine::ServingEngine>(
            setup.perf, core::makeSchedulingPolicy(scheduler_config),
            setup.config));
        instances.push_back(engines.back().get());
    }
    sim::SimContext context;
    cluster::ServingCluster fleet(std::move(engines), routing, context);
    testfx::RoutedLog routed_log;
    fleet.recordSubmissions(&routed_log);
    workload::ClosedLoopClientPool pool(clients, dataset, fleet);
    fleet.setOnFinish(
        [&](const RequestSpec &spec, Tick tick) {
            pool.onRequestFinished(spec.id, tick);
        });
    pool.start();
    const auto merged = fleet.run();
    ASSERT_EQ(merged.numFinished, dataset.requests.size());
    if (expect_evictions) {
        // The scenario must stay hard: replays have to reproduce
        // eviction + recompute timing, not just smooth decoding.
        ASSERT_GT(merged.evictionEvents, 0);
    }

    for (std::size_t i = 0; i < setups.size(); ++i) {
        engine::ServingEngine solo(
            setups[i].perf,
            core::makeSchedulingPolicy(scheduler_config),
            setups[i].config);
        std::size_t routed = 0;
        for (const auto &sub : routed_log) {
            if (sub.instance != i)
                continue;
            solo.submitStamped(sub.spec, sub.when, sub.stamp);
            ++routed;
        }
        ASSERT_GT(routed, 0u) << "instance " << i
                              << " received no traffic";
        expectIdenticalReports(solo.run(), instances[i]->report(), i);
    }
}

TEST(ClusterExactness, FutureMemoryFleetMatchesSerializedReplay)
{
    // Heavy-tailed closed-loop load over four identical instances
    // with an aggressive admission policy under memory pressure, so
    // the replay must reproduce evictions, recompute prefills, and
    // re-admissions exactly.
    const auto dataset = workload::makeShareGptO1(120, 31);
    const auto config = SchedulerConfig::aggressive(0.99);
    std::vector<InstanceSetup> setups(
        4, InstanceSetup{tinyPerf(16.0), engine::EngineConfig{}});
    runExactnessScenario(setups,
                         cluster::RoutingPolicy::FutureMemory,
                         dataset, 48, config,
                         /*expect_evictions=*/true);
}

TEST(ClusterExactness, HeterogeneousFleetMatchesSerializedReplay)
{
    // Mixed capacities and time factors: instances iterate at
    // different cadences, which is exactly where a lockstep
    // co-simulation accumulates skew.
    const auto dataset = workload::makeShareGpt(100, 17);
    auto config = SchedulerConfig::pastFutureDefault(0.05);
    config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    engine::EngineConfig slow;
    slow.timeFactor = 1.7;
    engine::EngineConfig fast;
    fast.timeFactor = 0.6;
    const std::vector<InstanceSetup> setups{
        {tinyPerf(16.0), fast},
        {tinyPerf(6.0), engine::EngineConfig{}},
        {tinyPerf(10.0), slow},
    };
    runExactnessScenario(
        setups, cluster::RoutingPolicy::LeastOutstandingTokens,
        dataset, 24, config);
}

TEST(ClusterExactness, DrainSparesNonDrainedInstanceTimelines)
{
    // Drain instance 0 mid-run: the surviving instances' timelines
    // must still replay exactly from their routed logs (re-dispatch
    // entries carry the delivery tick and the preserved original
    // arrival stamp).
    const auto dataset = workload::makeShareGpt(80, 23);
    auto config = SchedulerConfig::pastFutureDefault(0.05);
    config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    auto make_engine = [&]() {
        return std::make_unique<engine::ServingEngine>(
            tinyPerf(6.0), core::makeSchedulingPolicy(config));
    };
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    std::vector<engine::ServingEngine *> instances;
    for (int i = 0; i < 3; ++i) {
        engines.push_back(make_engine());
        instances.push_back(engines.back().get());
    }
    sim::SimContext context;
    cluster::ServingCluster fleet(
        std::move(engines), cluster::RoutingPolicy::RoundRobin, context);
    testfx::RoutedLog routed_log;
    fleet.recordSubmissions(&routed_log);
    workload::ClosedLoopClientPool pool(24, dataset, fleet);
    fleet.setOnFinish(
        [&](const RequestSpec &spec, Tick tick) {
            pool.onRequestFinished(spec.id, tick);
        });
    fleet.scheduleDrain(0, secondsToTicks(1.0));
    pool.start();
    const auto merged = fleet.run();
    ASSERT_EQ(merged.numFinished, dataset.requests.size());

    for (std::size_t i = 1; i < 3; ++i) {
        engine::ServingEngine solo(tinyPerf(6.0),
                                   core::makeSchedulingPolicy(config));
        for (const auto &sub : routed_log) {
            if (sub.instance == i)
                solo.submitStamped(sub.spec, sub.when, sub.stamp);
        }
        expectIdenticalReports(solo.run(), instances[i]->report(), i);
    }
}

TEST(ClusterDeterminism, RepeatedFleetRunsAreByteIdentical)
{
    // Two from-scratch runs of the same CLI fleet scenario must
    // serialize to byte-identical JSON: pins the event queue's
    // (tick, class, FIFO) tie-break and that no hash-map iteration
    // order leaks into scheduling or routing.
    auto run_once = []() {
        cli::CliOptions options;
        options.workload = "sharegpt-o1";
        options.requests = 96;
        options.clients = 32;
        options.seed = 42;
        options.instances = 4;
        options.routing = "future-memory";
        const cli::Scenario scenario =
            cli::assembleScenario(options);
        const metrics::RunReport report =
            cli::runScenario(scenario);
        std::ostringstream oss;
        metrics::writeSummaryJson(oss, report, scenario.sla);
        metrics::writeRequestsCsv(oss, report, scenario.sla);
        return oss.str();
    };
    const std::string first = run_once();
    const std::string second = run_once();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("Cluster(future-memory x4)"),
              std::string::npos);
}

TEST(ClusterDeterminism, LeastOutstandingFleetMatchesStepwiseBytes)
{
    // Least-outstanding routing reads every instance's resident KV
    // on every route, so each arrival settles every engine's decode
    // run to its tick. The bytes must be the ones an engine firing
    // one Step event per decode step wrote (pinned), on one thread
    // and sharded over four.
    auto run_once = [](std::size_t threads) {
        cli::CliOptions options;
        options.workload = "sharegpt";
        options.requests = 480;
        options.clients = 128;
        options.seed = 19;
        options.instances = 8;
        options.routing = "least-outstanding";
        options.simThreads = threads;
        const cli::Scenario scenario =
            cli::assembleScenario(options);
        const metrics::RunReport report =
            cli::runScenario(scenario);
        std::ostringstream oss;
        metrics::writeSummaryJson(oss, report, scenario.sla);
        metrics::writeRequestsCsv(oss, report, scenario.sla);
        return oss.str();
    };
    const std::string serial = run_once(1);
    EXPECT_EQ(run_once(4), serial);
    EXPECT_EQ(fnv1a(serial), 6683762347502836864ull);
    EXPECT_NE(serial.find("Cluster(least-outstanding x8)"),
              std::string::npos);
}

} // namespace
} // namespace lightllm
