/**
 * @file
 * Tests for disaggregated prefill/decode serving: interconnect
 * transfer math, end-to-end migration through the bounded handoff
 * queue, overflow shedding, decode-pool drains with in-flight
 * migrations, determinism of the co-simulation, and the
 * dollars-per-second cost axis.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>

#include "autoscale/autoscaler.hh"
#include "autoscale/scale_policy.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "disagg/disagg_cluster.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace {

using core::SchedulerConfig;
using disagg::DisaggCluster;
using disagg::DisaggConfig;
using testfx::makeRequest;
using testfx::tinyPerf;

/** tinyPerf with a metered hardware price. */
model::PerfModel
pricedPerf(double mem_megabytes, double dollars_per_second)
{
    const model::PerfModel base = tinyPerf(mem_megabytes);
    model::HardwareSpec hardware = base.hardwareSpec();
    hardware.dollarsPerSecond = dollars_per_second;
    return model::PerfModel(base.modelSpec(), hardware);
}

/** Interconnect config matching tinyPerf's model (1024 B/token). */
DisaggConfig
tinyConfig()
{
    DisaggConfig config;
    config.kvBytesPerToken = 1024;
    config.blockSize = 16;
    config.linkBandwidth = 25e9;
    config.transferLatency = secondsToTicks(0.002);
    return config;
}

std::vector<std::unique_ptr<engine::ServingEngine>>
makeEngines(std::size_t count, double mem_megabytes = 4.0,
            double dollars_per_second = 0.0)
{
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    for (std::size_t i = 0; i < count; ++i) {
        engines.push_back(std::make_unique<engine::ServingEngine>(
            pricedPerf(mem_megabytes, dollars_per_second),
            core::makeSchedulingPolicy(SchedulerConfig::oracle())));
    }
    return engines;
}

// --- Interconnect math --------------------------------------------------

TEST(DisaggMathTest, MigrationMovesWholeBlocks)
{
    DisaggConfig config;
    config.kvBytesPerToken = 1000;
    config.blockSize = 16;
    EXPECT_EQ(disagg::migrationBytes(config, 1), 16'000);
    EXPECT_EQ(disagg::migrationBytes(config, 16), 16'000);
    EXPECT_EQ(disagg::migrationBytes(config, 17), 32'000);
}

TEST(DisaggMathTest, TransferTimeSerializesOverTheLink)
{
    DisaggConfig config;
    config.kvBytesPerToken = 1000;
    config.blockSize = 16;
    config.linkBandwidth = 1e6;  // 1 MB/s: 16 KB take 16 ms
    config.transferLatency = 500;
    EXPECT_EQ(disagg::migrationTransferTicks(config, 16),
              500 + secondsToTicks(0.016));
}

// --- End-to-end migration ------------------------------------------------

TEST(DisaggClusterTest, EveryRequestMigratesAndFinishes)
{
    sim::SimContext context;
    DisaggCluster cluster(makeEngines(2), makeEngines(2),
                          tinyConfig(), context);
    std::unordered_map<RequestId, TokenCount> expected_output;
    for (RequestId id = 0; id < 30; ++id) {
        const auto spec = makeRequest(id, 60, 20 + id % 5);
        expected_output[id] = spec.effectiveOutputLen();
        cluster.submitAt(spec, id * 1000);
    }
    const auto report = cluster.run();

    EXPECT_EQ(report.numFinished, 30u);
    EXPECT_EQ(report.offeredRequests, 30);
    EXPECT_EQ(report.migratedRequests, 30);
    EXPECT_EQ(report.handoffShedRequests, 0);
    EXPECT_TRUE(report.disaggregated);
    EXPECT_EQ(report.prefillPool.finished, 30u);
    EXPECT_EQ(report.decodePool.finished, 30u);
    EXPECT_GT(report.migratedKvBytes, 0);
    EXPECT_EQ(report.migratedRequests, 30);

    // Combined records: arrival + TTFT from the prefill side, the
    // full output across both pools, completion after first token.
    for (const auto &record : report.requests) {
        EXPECT_EQ(record.arrival,
                  static_cast<Tick>(record.id) * 1000);
        EXPECT_EQ(record.outputTokens, expected_output[record.id]);
        EXPECT_GT(record.firstToken, record.arrival);
        EXPECT_GT(record.finish, record.firstToken);
        // The migration gap counts toward MTPOT: transfer latency
        // alone is 2 ms, so no migrated request reports a smaller
        // worst gap.
        EXPECT_GE(record.maxGap, secondsToTicks(0.002));
    }
}

TEST(DisaggClusterTest, SingleTokenRequestsFinishInPrefillPool)
{
    sim::SimContext context;
    DisaggCluster cluster(makeEngines(1), makeEngines(1),
                          tinyConfig(), context);
    for (RequestId id = 0; id < 8; ++id)
        cluster.submitAt(makeRequest(id, 50, 1), 0);
    const auto report = cluster.run();
    EXPECT_EQ(report.numFinished, 8u);
    EXPECT_EQ(report.migratedRequests, 0);
    EXPECT_EQ(report.migratedKvBytes, 0);
    EXPECT_EQ(report.decodePool.finished, 0u);
    for (const auto &record : report.requests)
        EXPECT_EQ(record.outputTokens, 1);
}

TEST(DisaggClusterTest, RerunIsByteIdentical)
{
    const auto run_once = []() {
        sim::SimContext context;
        DisaggCluster cluster(makeEngines(2), makeEngines(2),
                              tinyConfig(), context);
        for (RequestId id = 0; id < 40; ++id) {
            cluster.submitAt(
                makeRequest(id, 50 + (id % 7) * 30, 10 + id % 9),
                id * 2000);
        }
        const auto report = cluster.run();
        std::ostringstream oss;
        metrics::writeSummaryJson(oss, report,
                                  metrics::SlaSpec::small7b13b());
        // The summary alone could mask compensating per-request
        // differences; pin every record's timeline too.
        for (const auto &record : report.requests) {
            oss << record.id << ':' << record.arrival << ':'
                << record.firstToken << ':' << record.finish << ':'
                << record.maxGap << '\n';
        }
        return oss.str();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(DisaggClusterTest, SplitFuseServesMigratedAdmissions)
{
    // Migrated admissions hold their KV and emit nothing on the
    // decode side, with or without split-fuse. Sparse arrivals reach
    // an idle decode engine, the burst a busy one.
    const auto run_with = [](bool prefill_split, bool decode_split) {
        const auto pool = [](bool split_fuse) {
            engine::EngineConfig config;
            config.splitFuseChunk = split_fuse ? 32 : 0;
            std::vector<std::unique_ptr<engine::ServingEngine>> one;
            one.push_back(std::make_unique<engine::ServingEngine>(
                tinyPerf(4.0),
                core::makeSchedulingPolicy(SchedulerConfig::oracle()),
                config));
            return one;
        };
        sim::SimContext context;
        DisaggCluster cluster(pool(prefill_split), pool(decode_split),
                              tinyConfig(), context);
        for (RequestId id = 0; id < 24; ++id) {
            const Tick arrival = id < 8
                ? static_cast<Tick>(id) * secondsToTicks(5.0)
                : secondsToTicks(40.0) + static_cast<Tick>(id) * 500;
            cluster.submitAt(makeRequest(id, 60, 20 + id % 5),
                             arrival);
        }
        const auto report = cluster.run();
        std::ostringstream oss;
        metrics::writeSummaryJson(oss, report,
                                  metrics::SlaSpec::small7b13b());
        for (const auto &record : report.requests) {
            oss << record.id << ':' << record.outputTokens << ':'
                << record.firstToken << ':' << record.finish << ':'
                << record.maxGap << '\n';
        }
        return std::make_pair(report, oss.str());
    };
    const auto fused = run_with(true, true).first;
    const auto dedicated = run_with(false, false);
    EXPECT_EQ(fused.numFinished, 24u);
    EXPECT_EQ(fused.migratedRequests, 24);
    EXPECT_EQ(fused.totalOutputTokens,
              dedicated.first.totalOutputTokens);

    // With identical prefill pools the handoffs are identical, and a
    // split-fuse decode engine then steps exactly like a dedicated
    // one: no spurious first token, no missing KV slot.
    EXPECT_EQ(run_with(false, true).second, dedicated.second);
}

// --- Handoff backpressure ------------------------------------------------

TEST(DisaggClusterTest, HandoffOverflowShedsAtTheBound)
{
    // Two fast prefill instances feed one tiny decode instance
    // (~0.3 MB of KV after weights, so two or three requests fit)
    // through a single-slot handoff queue: transfers that land on a
    // full queue must be dropped, not buffered without bound.
    auto config = tinyConfig();
    config.handoffDepth = 1;
    sim::SimContext context;
    DisaggCluster cluster(makeEngines(2), makeEngines(1, 0.5),
                          config, context);
    const std::int64_t offered = 24;
    for (RequestId id = 0; id < offered; ++id)
        cluster.submitAt(makeRequest(id, 100, 40), 0);
    const auto report = cluster.run();

    EXPECT_GT(report.handoffShedRequests, 0);
    // Every offered request is accounted for: finished or shed, and
    // shed requests leave no end-to-end record.
    EXPECT_EQ(static_cast<std::int64_t>(report.numFinished) +
                  report.handoffShedRequests,
              offered);
    EXPECT_EQ(report.requests.size(), report.numFinished);
    EXPECT_EQ(report.shedRequests, report.handoffShedRequests);
}

// --- Drain with in-flight migrations ------------------------------------

TEST(DisaggClusterTest, DecodeDrainUnwindsChargesAndFinishesAll)
{
    sim::SimContext context;
    DisaggCluster cluster(makeEngines(1), makeEngines(2),
                          tinyConfig(), context);
    cluster::ServingCluster &decode_pool = cluster.pools().second;
    // Arrivals spread across the drain tick so migrations are in
    // flight (transfers take >= 2 ms) when decode instance 0 goes
    // away; its admitted-but-unfinished migrations re-dispatch to
    // instance 1 and their routing charges unwind.
    for (RequestId id = 0; id < 20; ++id)
        cluster.submitAt(makeRequest(id, 80, 30),
                         id * secondsToTicks(0.001));
    decode_pool.scheduleDrain(0, secondsToTicks(0.01));
    const auto report = cluster.run();

    EXPECT_EQ(report.numFinished, 20u);
    EXPECT_EQ(report.handoffShedRequests, 0);
    // The drained instance serves nothing after the drain tick (the
    // merged report asserts the future-memory ledger carries no
    // residue).
    for (const auto &record : report.requests) {
        EXPECT_EQ(record.arrival,
                  static_cast<Tick>(record.id) *
                      secondsToTicks(0.001));
        EXPECT_EQ(record.outputTokens, 30);
    }
}

// --- Autoscale cadence ---------------------------------------------------

/** Records the tick of every control decision; never resizes. */
class TickLog final : public autoscale::ScalePolicy
{
  public:
    explicit TickLog(std::vector<Tick> &ticks) : ticks_(ticks) {}

    std::string_view name() const override { return "tick-log"; }

    int
    decide(const autoscale::FleetSnapshot &fleet,
           const autoscale::SloStats &) override
    {
        ticks_.push_back(fleet.now);
        return 0;
    }

  private:
    std::vector<Tick> &ticks_;
};

TEST(DisaggClusterTest, ElasticPoolsShareOneControlTick)
{
    // One periodic event drives both pools' control loops, every
    // autoscale::kControlInterval.
    sim::SimContext context;
    DisaggCluster cluster(makeEngines(1), makeEngines(1),
                          tinyConfig(), context);
    autoscale::AutoscaleConfig config;
    config.sla = metrics::SlaSpec{secondsToTicks(2.0),
                                  secondsToTicks(1.0)};
    std::vector<Tick> prefill_ticks;
    std::vector<Tick> decode_ticks;
    cluster.enableAutoscale(
        config, std::make_unique<TickLog>(prefill_ticks),
        std::make_unique<TickLog>(decode_ticks),
        [] { return std::move(makeEngines(1).front()); });
    for (RequestId id = 0; id < 6; ++id) {
        cluster.submitAt(makeRequest(id, 80, 30),
                         secondsToTicks(static_cast<double>(id)));
    }
    cluster.run();

    ASSERT_GE(prefill_ticks.size(), 2u);
    EXPECT_EQ(prefill_ticks, decode_ticks);
    for (std::size_t i = 0; i < prefill_ticks.size(); ++i) {
        EXPECT_EQ(prefill_ticks[i], static_cast<Tick>(i + 1) *
                                        autoscale::kControlInterval);
    }
}

TEST(DisaggClusterTest, ElasticSetupKeepsDecodeRouterShedFree)
{
    // One call turns on both loops: the prefill pool keeps the
    // configured Overload shedding, the decode pool is set to Never
    // — the handoff queue is its only shed point. A spike into one
    // tiny decode instance behind a one-slot handoff queue then
    // sheds at the handoff, never at the decode router.
    auto disagg_config = tinyConfig();
    disagg_config.handoffDepth = 1;
    sim::SimContext context;
    DisaggCluster cluster(makeEngines(2), makeEngines(1, 0.5),
                          disagg_config, context);
    auto [prefill_pool, decode_pool] = cluster.pools();
    autoscale::AutoscaleConfig config;
    config.minInstances = 1;
    config.maxInstances = 2;
    config.sla = metrics::SlaSpec{secondsToTicks(2.0),
                                  secondsToTicks(1.0)};
    config.shedPolicy = autoscale::ShedPolicy::Overload;
    std::vector<Tick> prefill_ticks;
    std::vector<Tick> decode_ticks;
    cluster.enableAutoscale(
        config, std::make_unique<TickLog>(prefill_ticks),
        std::make_unique<TickLog>(decode_ticks),
        [] { return std::move(makeEngines(1).front()); });
    ASSERT_NE(prefill_pool.autoscaler(), nullptr);
    ASSERT_NE(decode_pool.autoscaler(), nullptr);
    EXPECT_EQ(prefill_pool.autoscaler()->config().shedPolicy,
              autoscale::ShedPolicy::Overload);
    EXPECT_EQ(decode_pool.autoscaler()->config().shedPolicy,
              autoscale::ShedPolicy::Never);

    const std::int64_t offered = 24;
    for (RequestId id = 0; id < offered; ++id)
        cluster.submitAt(makeRequest(id, 100, 40), 0);
    const auto report = cluster.run();

    EXPECT_GT(report.handoffShedRequests, 0);
    EXPECT_EQ(decode_pool.shedRequests(), 0);
    EXPECT_EQ(static_cast<std::int64_t>(report.numFinished) +
                  report.handoffShedRequests +
                  prefill_pool.shedRequests(),
              offered);
}

// --- Cost axis -----------------------------------------------------------

TEST(DisaggCostTest, FactoryPricesScaleWithTensorParallel)
{
    const auto a100 = model::HardwareSpec::a100_80g();
    EXPECT_GT(a100.dollarsPerSecond, 0.0);
    EXPECT_GT(model::HardwareSpec::h800().dollarsPerSecond,
              a100.dollarsPerSecond);
    EXPECT_NEAR(a100.withTensorParallel(4).dollarsPerSecond,
                4.0 * a100.dollarsPerSecond, 1e-12);
}

TEST(DisaggCostTest, InstanceCostIsAliveSecondsTimesRate)
{
    const double rate = 2.5;
    std::vector<std::unique_ptr<engine::ServingEngine>> engines =
        makeEngines(3, 4.0, rate);
    sim::SimContext context;
    cluster::ServingCluster fleet(
        std::move(engines), cluster::RoutingPolicy::RoundRobin, context);
    for (RequestId id = 0; id < 30; ++id)
        fleet.submitAt(makeRequest(id, 60, 20), 0);
    const auto report = fleet.run();
    EXPECT_EQ(report.numFinished, 30u);
    EXPECT_GT(report.instanceSeconds, 0.0);
    // A static homogeneous fleet: every instance is alive for the
    // whole run, so cost is exactly the metered GPU-seconds.
    EXPECT_NEAR(report.instanceCost, report.instanceSeconds * rate,
                1e-9 * report.instanceSeconds);
}

TEST(DisaggCostTest, MergedDisaggCostCoversBothPools)
{
    const double rate = 1.25;
    sim::SimContext context;
    DisaggCluster cluster(makeEngines(1, 4.0, rate),
                          makeEngines(2, 4.0, rate), tinyConfig(), context);
    for (RequestId id = 0; id < 12; ++id)
        cluster.submitAt(makeRequest(id, 60, 15), 0);
    const auto report = cluster.run();
    EXPECT_EQ(report.numFinished, 12u);
    EXPECT_GT(report.instanceCost, 0.0);
    EXPECT_NEAR(report.instanceCost, report.instanceSeconds * rate,
                1e-9 * report.instanceSeconds);
    // Both pools' three instances are alive from tick 0 to the end of
    // service, the last completion.
    Tick end_of_service = 0;
    for (const auto &record : report.requests)
        end_of_service = std::max(end_of_service, record.finish);
    EXPECT_NEAR(report.instanceSeconds,
                3.0 * ticksToSeconds(end_of_service),
                1e-9 * report.instanceSeconds);
}

} // namespace
} // namespace lightllm
