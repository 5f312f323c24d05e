/**
 * @file
 * Sharded parallel co-simulation: determinism and shard-ownership
 * tests for sim::ShardedSimContext (DESIGN.md §9).
 *
 * The headline contract is *byte identity*: a fleet run sharded
 * across K worker threads must serialize — summary JSON and the full
 * per-request CSV — to exactly the bytes of the single-threaded
 * run. These tests sweep K in {1, 2, 8} over every cross-shard
 * event source (router dispatch, drain re-dispatch, work stealing,
 * autoscale provisioning, disagg KV handoff) so a merge that fired
 * even one event out of (tick, class, FIFO) order shows up as a
 * diff, not a tolerance.
 *
 * The suite runs under the ThreadSanitizer CI job (label: sharded),
 * where the epoch-barrier handshake and mailbox commits are checked
 * for data races.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_scenario.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "disagg/disagg_cluster.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "sim/sharded_sim_context.hh"
#include "sim/sim_context.hh"
#include "test_fixtures.hh"
#include "trace/trace_recorder.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace {

using testfx::tinyPerf;

/** Run a CLI scenario at a given thread count and serialize the
 *  report to the exact bytes users would see. */
std::string
runSerialized(cli::CliOptions options, std::size_t threads)
{
    options.simThreads = threads;
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    std::ostringstream oss;
    metrics::writeSummaryJson(oss, report, scenario.sla);
    metrics::writeRequestsCsv(oss, report, scenario.sla);
    return oss.str();
}

/** Demand byte identity across 1, 2, and 8 compute threads. */
void
expectThreadInvariant(const cli::CliOptions &options)
{
    const std::string serial = runSerialized(options, 1);
    EXPECT_EQ(serial, runSerialized(options, 2)) << "2 threads";
    EXPECT_EQ(serial, runSerialized(options, 8)) << "8 threads";
}

TEST(ShardedDeterminism, FleetByteIdenticalAcrossThreadCounts)
{
    // Heavy-tailed closed-loop load with memory pressure: the
    // aggressive policy forces evictions and re-admissions, whose
    // timing any merge-order slip would perturb.
    cli::CliOptions options;
    options.workload = "sharegpt-o1";
    options.requests = 96;
    options.clients = 32;
    options.instances = 4;
    options.scheduler = "aggressive";
    options.overcommit = 0.99;
    options.routing = "future-memory";
    expectThreadInvariant(options);
}

TEST(ShardedDeterminism, DrainByteIdenticalAcrossThreadCounts)
{
    // Drain re-dispatch is a shard-ownership migration: instance
    // 0's queued requests leave its shard mid-run and re-enter the
    // router while cross-shard arrivals are still in flight.
    cli::CliOptions options;
    options.requests = 96;
    options.clients = 24;
    options.instances = 3;
    options.routing = "round-robin";
    options.drainAtSeconds = 1.0;
    expectThreadInvariant(options);
}

TEST(ShardedDeterminism, AutoscaleByteIdenticalAcrossThreadCounts)
{
    // Provisioning adopts engines onto shards mid-run (cold-start
    // onto the least-loaded shard) and warm-up completion steals
    // queued work across shard boundaries.
    cli::CliOptions options;
    options.requests = 128;
    options.poissonRate = 40.0;
    options.autoscale = true;
    options.instances = 2;
    options.minInstances = 1;
    options.maxInstances = 6;
    options.provisionDelaySeconds = 1.0;
    expectThreadInvariant(options);
}

TEST(ShardedDeterminism, DisaggByteIdenticalAcrossThreadCounts)
{
    // Every migrated request crosses a shard boundary twice: the
    // prefill finish notify hops to the coordinator, and the decode
    // dispatch hops onto another pool's shard.
    cli::CliOptions options;
    options.requests = 96;
    options.clients = 16;
    options.disagg = true;
    options.prefillInstances = 2;
    options.decodeInstances = 2;
    expectThreadInvariant(options);
}

TEST(ShardedDeterminism, SplitFuseSwapByteIdenticalAcrossThreadCounts)
{
    // Chunked prefill re-schedules same-tick continuation steps
    // inside a window (the mini-round path) and swap eviction adds
    // the shortest spawn-floor candidate.
    cli::CliOptions options;
    options.workload = "sharegpt-o1";
    options.requests = 96;
    options.clients = 32;
    options.instances = 4;
    options.scheduler = "aggressive";
    options.overcommit = 0.99;
    options.splitFuse = true;
    options.evictionMode = "swap";
    expectThreadInvariant(options);
}

TEST(ShardedDeterminism, RepeatedShardedRunsAreByteIdentical)
{
    // Thread scheduling must not leak into results: two
    // from-scratch 8-thread runs serialize identically.
    cli::CliOptions options;
    options.requests = 96;
    options.clients = 32;
    options.instances = 4;
    const std::string first = runSerialized(options, 8);
    const std::string second = runSerialized(options, 8);
    EXPECT_EQ(first, second);
}

/** The shard of `hub` (`shards` shards) whose member context
 *  `engine` runs on. */
std::uint32_t
shardOf(sim::ShardedSimContext &hub, std::uint32_t shards,
        engine::ServingEngine &engine)
{
    for (std::uint32_t s = 0; s < shards; ++s) {
        if (&hub.shardContext(s) == &engine.context())
            return s;
    }
    ADD_FAILURE() << "the engine runs on no shard of the hub";
    return shards;
}

/** Closed-loop fleet harness on an explicit hub, for tests that
 *  need to observe shard placement directly. */
struct HubFleet
{
    sim::SimContext root;
    std::unique_ptr<sim::ShardedSimContext> hub;
    std::unique_ptr<cluster::ServingCluster> fleet;
    std::uint32_t threads;
    /** The fleet's engines, in instance order. */
    std::vector<engine::ServingEngine *> instances;

    HubFleet(std::size_t count, std::uint32_t threads)
        : threads(threads)
    {
        hub = std::make_unique<sim::ShardedSimContext>(root,
                                                       threads);
        std::vector<std::unique_ptr<engine::ServingEngine>> engines;
        for (std::size_t i = 0; i < count; ++i) {
            engines.push_back(makeEngine());
            instances.push_back(engines.back().get());
        }
        fleet = std::make_unique<cluster::ServingCluster>(
            std::move(engines),
            cluster::RoutingPolicy::RoundRobin, root);
    }

    /** The shard executing instance `index`'s engine. */
    std::uint32_t
    instanceShard(std::size_t index)
    {
        return shardOf(*hub, threads, *instances.at(index));
    }

    static std::unique_ptr<engine::ServingEngine>
    makeEngine()
    {
        auto config = core::SchedulerConfig::pastFutureDefault(0.05);
        return std::make_unique<engine::ServingEngine>(
            tinyPerf(8.0), core::makeSchedulingPolicy(config));
    }

    metrics::RunReport
    runClosedLoop(const workload::Dataset &dataset,
                  std::size_t clients)
    {
        workload::ClosedLoopClientPool pool(clients, dataset,
                                            *fleet);
        fleet->setOnFinish(
            [&](const workload::RequestSpec &spec, Tick tick) {
                pool.onRequestFinished(spec.id, tick);
            });
        pool.start();
        return fleet->run();
    }
};

TEST(ShardedPlacement, AdoptionBalancesShardsLeastLoaded)
{
    // Five engines over two shards: least-live placement with
    // lowest-index ties alternates 0,1,0,1,0.
    HubFleet harness(5, 2);
    EXPECT_EQ(harness.instanceShard(0), 0u);
    EXPECT_EQ(harness.instanceShard(1), 1u);
    EXPECT_EQ(harness.instanceShard(2), 0u);
    EXPECT_EQ(harness.instanceShard(3), 1u);
    EXPECT_EQ(harness.instanceShard(4), 0u);
}

TEST(ShardedPlacement, ProvisionLandsOnShardFreedByDrain)
{
    // Shards after adoption: {0, 1, 0}. Draining instance 1 (the
    // only engine of shard 1) releases its slot mid-run, so a
    // later cold-start provision must land on shard 1 — the
    // least-loaded shard — while instance 1's queued requests are
    // re-dispatching across shard boundaries.
    HubFleet harness(3, 2);
    // The hub's profiler samples record each window it runs.
    trace::TraceRecorder recorder(
        trace::TraceConfig{trace::TraceDetail::Full, 1 << 12});
    harness.hub->attachTrace(&recorder);
    harness.fleet->scheduleDrain(1, secondsToTicks(0.5));
    harness.root.schedule(secondsToTicks(1.0), [&](Tick) {
        auto engine = HubFleet::makeEngine();
        harness.instances.push_back(engine.get());
        harness.fleet->provisionInstance(std::move(engine),
                                         secondsToTicks(0.1));
    });

    const auto dataset = workload::makeShareGpt(64, 11);
    const auto merged = harness.runClosedLoop(dataset, 24);
    EXPECT_EQ(merged.numFinished, dataset.requests.size());
    ASSERT_EQ(harness.fleet->numInstances(), 4u);
    EXPECT_EQ(harness.instanceShard(3), 1u);

    // The windowed executor actually ran: engine steps fired inside
    // windows, deliveries on the coordinator.
    const trace::TraceRing &coordinator =
        recorder.shards().front().ring();
    std::size_t windows = 0;
    for (std::size_t i = 0; i < coordinator.size(); ++i) {
        if (coordinator.at(i).name == trace::TraceName::ShardWindow)
            ++windows;
    }
    EXPECT_GT(windows, 0u);
    EXPECT_GT(harness.hub->stepsFired(), 0u);
    EXPECT_GT(harness.hub->deliveriesFired(), 0u);
}

TEST(ShardedPlacement, DisaggPoolsShareOneHubAcrossShards)
{
    // One hub spans both pools, so KV handoffs cross shard
    // boundaries. 2 prefill + 2 decode engines over 3 shards place
    // as {0, 1} and {2, 0}: the prefill->decode handoff for any
    // request served by prefill instance 0 and decode instance 0
    // crosses 0 -> 2.
    std::vector<engine::ServingEngine *> engines;
    const auto make_pool = [&](std::size_t n) {
        std::vector<std::unique_ptr<engine::ServingEngine>> pool;
        for (std::size_t i = 0; i < n; ++i) {
            pool.push_back(HubFleet::makeEngine());
            engines.push_back(pool.back().get());
        }
        return pool;
    };
    disagg::DisaggConfig config;
    config.kvBytesPerToken = 1024;

    const auto run_once = [&](std::uint32_t threads) {
        // The test owns the clock, as the CLI's run path does, and
        // enrolls it in the hub before the pools adopt their
        // engines.
        sim::SimContext root;
        std::unique_ptr<sim::ShardedSimContext> hub;
        if (threads > 1)
            hub = std::make_unique<sim::ShardedSimContext>(root,
                                                           threads);
        engines.clear();
        disagg::DisaggCluster cluster(make_pool(2), make_pool(2),
                                      config, root);
        if (threads > 1) {
            std::set<std::uint32_t> shards;
            for (engine::ServingEngine *engine : engines)
                shards.insert(shardOf(*hub, threads, *engine));
            // All three shards host engines, so migrations must
            // cross shard boundaries.
            EXPECT_EQ(shards.size(), 3u);
        }
        const auto dataset = workload::makeShareGpt(48, 7);
        workload::ClosedLoopClientPool pool(12, dataset, cluster);
        cluster.setOnFinish(
            [&](const workload::RequestSpec &spec, Tick tick) {
                pool.onRequestFinished(spec.id, tick);
            });
        pool.start();
        const metrics::RunReport report = cluster.run();
        EXPECT_GT(report.migratedRequests, 0);
        std::ostringstream oss;
        metrics::writeSummaryJson(oss, report, metrics::SlaSpec{});
        metrics::writeRequestsCsv(oss, report, metrics::SlaSpec{});
        return oss.str();
    };
    EXPECT_EQ(run_once(1), run_once(3));
}

TEST(ShardedExecutor, StepExceptionIsTheSerialOneAtEveryThreadCount)
{
    // Request 3 routes round-robin to instance 1, which runs on a
    // worker thread at two threads; no instance can hold its
    // prompt, so the admission Step that meets it throws there. The
    // coordinator rethrows it after the window barrier, with the
    // message a one-thread run gives.
    auto dataset = workload::makeShareGpt(16, 5);
    dataset.requests[3].inputLen = 1'000'000;
    const auto message = [&](std::uint32_t threads) {
        HubFleet harness(2, threads);
        EXPECT_EQ(harness.instanceShard(1), threads - 1);
        try {
            harness.runClosedLoop(dataset, 4);
        } catch (const std::invalid_argument &error) {
            return std::string(error.what());
        }
        return std::string("nothing was thrown");
    };
    const std::string serial = message(1);
    EXPECT_NE(serial.find("request 3 (prompt 1000000 tokens) cannot "
                          "fit in capacity "),
              std::string::npos)
        << serial;
    EXPECT_EQ(message(2), serial);
}

TEST(ShardedExecutor, SpawnFloorIsPositiveAndHonest)
{
    // The conservative window relies on every engine-declared floor
    // being a true lower bound on coordinator-bound event spawns; a
    // floor of 0 would collapse windows to nothing.
    auto engine = HubFleet::makeEngine();
    EXPECT_GE(engine->deliverySpawnFloor(), 1);
}

} // namespace
} // namespace lightllm
