/**
 * @file
 * Coverage of the SLA-driven elastic autoscaling subsystem: the
 * sliding-window SLO monitor, the reactive and predictive scale
 * policies, the AutoScaler's clamping/cooldown/shed decisions, and
 * the cluster's instance lifecycle (provision, warm-up gating,
 * scale-down floors, instance-seconds accounting, overload
 * shedding).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "autoscale/scale_policy.hh"
#include "autoscale/slo_monitor.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "test_fixtures.hh"
#include "workload/arrivals.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace {

using testfx::makeRequest;
using testfx::tinyPerf;

metrics::SlaSpec
testSla()
{
    // TTFT < 2 s, MTPOT < 1 s: tight enough for tiny workloads.
    return metrics::SlaSpec{secondsToTicks(2.0),
                            secondsToTicks(1.0)};
}

/** A completion record with explicit TTFT / max gap. */
metrics::RequestRecord
record(Tick finish, double ttft_seconds, double gap_seconds,
       TokenCount tokens = 10)
{
    metrics::RequestRecord rec;
    rec.id = 1;
    rec.outputTokens = tokens;
    rec.finish = finish;
    rec.arrival = finish - secondsToTicks(ttft_seconds) - 1;
    rec.firstToken = rec.arrival + secondsToTicks(ttft_seconds);
    rec.maxGap = secondsToTicks(gap_seconds);
    return rec;
}

TEST(SloMonitorTest, EmptyWindowHasNoEvidenceOfTrouble)
{
    autoscale::SloMonitor monitor(testSla(), secondsToTicks(60.0));
    const auto stats = monitor.stats(secondsToTicks(100.0));
    EXPECT_EQ(stats.samples, 0u);
    EXPECT_DOUBLE_EQ(stats.attainment, 1.0);
}

TEST(SloMonitorTest, AttainmentCountsBothLimits)
{
    autoscale::SloMonitor monitor(testSla(), secondsToTicks(60.0));
    const Tick base = secondsToTicks(100.0);
    monitor.observe(record(base, 0.5, 0.2, 10));      // compliant
    monitor.observe(record(base + 1, 5.0, 0.2, 20));  // TTFT bad
    monitor.observe(record(base + 2, 0.5, 3.0, 30));  // MTPOT bad
    monitor.observe(record(base + 3, 0.5, 0.1, 40));  // compliant

    const auto stats = monitor.stats(base + 10);
    EXPECT_EQ(stats.samples, 4u);
    EXPECT_DOUBLE_EQ(stats.attainment, 0.5);
}

TEST(SloMonitorTest, OldSamplesFallOutOfTheWindow)
{
    autoscale::SloMonitor monitor(testSla(), secondsToTicks(10.0));
    monitor.observe(record(secondsToTicks(1.0), 9.0, 0.1));
    monitor.observe(record(secondsToTicks(2.0), 9.0, 0.1));
    EXPECT_DOUBLE_EQ(
        monitor.stats(secondsToTicks(5.0)).attainment, 0.0);

    // Both violations are older than now - window: forgotten.
    monitor.observe(record(secondsToTicks(14.0), 0.5, 0.1));
    const auto stats = monitor.stats(secondsToTicks(14.0));
    EXPECT_EQ(stats.samples, 1u);
    EXPECT_DOUBLE_EQ(stats.attainment, 1.0);
}

/** Snapshot builder for policy tests. */
autoscale::FleetSnapshot
fleetOf(std::size_t n, TokenCount capacity, TokenCount outstanding,
        TokenCount predicted, Tick now = secondsToTicks(100.0))
{
    autoscale::FleetSnapshot snap;
    snap.now = now;
    for (std::size_t i = 0; i < n; ++i) {
        autoscale::InstanceSnapshot instance;
        instance.capacityTokens = capacity;
        instance.outstandingTokens = outstanding;
        instance.predictedLoadTokens = predicted;
        snap.instances.push_back(instance);
    }
    return snap;
}

autoscale::SloStats
sloWith(double attainment, std::size_t samples = 50)
{
    autoscale::SloStats stats;
    stats.samples = samples;
    stats.attainment = attainment;
    return stats;
}

TEST(ReactivePolicyTest, ScalesUpOnViolationsOnlyWithEvidence)
{
    autoscale::ReactiveThresholdPolicy policy(0.9);
    const auto fleet = fleetOf(2, 10'000, 8'000, 9'000);
    EXPECT_EQ(policy.decide(fleet, sloWith(0.5)), 1);
    // Too few samples: no reaction yet.
    EXPECT_EQ(policy.decide(fleet, sloWith(0.5, 3)), 0);
    // Attaining: hold.
    EXPECT_EQ(policy.decide(fleet, sloWith(0.95)), 0);
}

TEST(ReactivePolicyTest, HysteresisSeparatesUpAndDown)
{
    autoscale::ReactiveThresholdPolicy policy(0.9);
    // Attainment between target (0.9) and downAttainment (0.98):
    // inside the hysteresis band, hold even though load is light.
    EXPECT_EQ(policy.decide(fleetOf(3, 10'000, 1'000, 1'000),
                            sloWith(0.94)),
              0);
    // Above the band and lightly loaded: shrink.
    EXPECT_EQ(policy.decide(fleetOf(3, 10'000, 1'000, 1'000),
                            sloWith(1.0)),
              -1);
    // Above the band but the shrunk fleet would be loaded: hold.
    EXPECT_EQ(policy.decide(fleetOf(3, 10'000, 8'000, 8'000),
                            sloWith(1.0)),
              0);
    // A fleet of one never shrinks.
    EXPECT_EQ(policy.decide(fleetOf(1, 10'000, 0, 0),
                            sloWith(1.0)),
              0);
}

TEST(ReactivePolicyTest, HysteresisFloorRisesWithATargetAboveIt)
{
    // A 0.99 target lifts the shrink threshold from 0.98 to 0.99, so
    // a lightly loaded fleet at 0.985 holds. Too few samples to grow
    // keeps the scale-up branch out of the way.
    autoscale::ReactiveThresholdPolicy policy(0.99);
    const auto fleet = fleetOf(3, 10'000, 1'000, 1'000);
    EXPECT_EQ(policy.decide(fleet, sloWith(0.985, 3)), 0);
    EXPECT_EQ(policy.decide(fleet, sloWith(1.0)), -1);
}

TEST(PredictivePolicyTest, ProvisionsOnForecastBeforeViolations)
{
    autoscale::PredictiveFutureMemoryPolicy policy(0.9);
    // Forecast demand 9k per instance vs 10k capacity at 0.85
    // headroom: needs ceil(18k / 8.5k) = 3 instances, has 2 —
    // grows even though attainment is still perfect.
    EXPECT_EQ(policy.decide(fleetOf(2, 10'000, 2'000, 9'000),
                            sloWith(1.0)),
              1);
    // Demand forecast for 4 instances' worth: asks for all of the
    // missing capacity at once.
    EXPECT_EQ(policy.decide(fleetOf(2, 10'000, 2'000, 17'000),
                            sloWith(1.0)),
              2);
    // Comfortable fit: hold.
    EXPECT_EQ(policy.decide(fleetOf(2, 10'000, 2'000, 7'000),
                            sloWith(1.0)),
              0);
}

TEST(PredictivePolicyTest, ShrinksOnlyWhenAttainingAndIdle)
{
    autoscale::PredictiveFutureMemoryPolicy policy(0.9);
    // Demand fits easily in two instances: shrink from three.
    EXPECT_EQ(policy.decide(fleetOf(3, 10'000, 1'000, 2'000),
                            sloWith(0.95)),
              -1);
    // Same load but the SLO is suffering: never shrink.
    EXPECT_EQ(policy.decide(fleetOf(3, 10'000, 1'000, 2'000),
                            sloWith(0.5)),
              0);
}

/** Policy with a fixed answer, for controller plumbing tests. */
class FixedPolicy : public autoscale::ScalePolicy
{
  public:
    explicit FixedPolicy(int delta) : delta_(delta) {}
    std::string_view name() const override { return "fixed"; }
    int
    decide(const autoscale::FleetSnapshot &,
           const autoscale::SloStats &) override
    {
        return delta_;
    }

  private:
    int delta_;
};

autoscale::AutoscaleConfig
testConfig(std::size_t min_instances, std::size_t max_instances)
{
    autoscale::AutoscaleConfig config;
    config.minInstances = min_instances;
    config.maxInstances = max_instances;
    config.sla = testSla();
    config.provisionDelay = secondsToTicks(0.5);
    return config;
}

TEST(AutoScalerTest, ClampsProposalsToBounds)
{
    autoscale::AutoScaler scaler(testConfig(1, 3),
                                 std::make_unique<FixedPolicy>(10));
    EXPECT_EQ(scaler.evaluate(fleetOf(1, 10'000, 0, 0)), 2);
    EXPECT_EQ(scaler.evaluate(fleetOf(3, 10'000, 0, 0)), 0);
}

TEST(AutoScalerTest, ScaleDownIsCooldownLimited)
{
    autoscale::AutoScaler scaler(
        testConfig(1, 3), std::make_unique<FixedPolicy>(-5));
    auto fleet = fleetOf(3, 10'000, 0, 0, secondsToTicks(100.0));
    // Only one retirement per decision, then the cooldown gates.
    EXPECT_EQ(scaler.evaluate(fleet), -1);
    fleet.now += autoscale::kDownCooldown - 1;
    EXPECT_EQ(scaler.evaluate(fleet), 0);
    fleet.now += 1;
    EXPECT_EQ(scaler.evaluate(fleet), -1);
    // Never below the floor.
    EXPECT_EQ(scaler.evaluate(fleetOf(1, 10'000, 0, 0,
                                      secondsToTicks(200.0))),
              0);
}

TEST(AutoScalerTest, ShedsOnlyAtMaxScaleWithNothingWarming)
{
    auto config = testConfig(1, 2);
    config.shedPolicy = autoscale::ShedPolicy::Overload;
    autoscale::AutoScaler scaler(config,
                                 std::make_unique<FixedPolicy>(0));

    // Below max scale: more capacity can come — queue, don't shed.
    EXPECT_FALSE(
        scaler.shouldShed(fleetOf(1, 10'000, 50'000, 0), 100,
                          base::RequestClass{}));
    // At max scale and over the bound: shed.
    EXPECT_TRUE(
        scaler.shouldShed(fleetOf(2, 10'000, 25'000, 0), 100,
                          base::RequestClass{}));
    // At max scale under the bound (5k outstanding per instance
    // against the 1.5 x 20k fleet bound): queue.
    EXPECT_FALSE(
        scaler.shouldShed(fleetOf(2, 10'000, 5'000, 0), 100,
                          base::RequestClass{}));
    // A warming instance means capacity is on the way.
    auto warming = fleetOf(2, 10'000, 25'000, 0);
    warming.instances[1].warming = true;
    EXPECT_FALSE(
        scaler.shouldShed(warming, 100, base::RequestClass{}));
}

TEST(AutoScalerTest, FairnessAwareSheddingTargetsOverShareTenants)
{
    auto config = testConfig(1, 2);
    config.shedPolicy = autoscale::ShedPolicy::Overload;
    config.tenantShares = {1.0, 1.0};
    autoscale::AutoScaler scaler(config,
                                 std::make_unique<FixedPolicy>(0));

    const auto fleet = fleetOf(2, 10'000, 25'000, 0);
    base::RequestClass noisy;
    noisy.tenant = 0;
    base::RequestClass victim;
    victim.tenant = 1;

    // Overloaded, but no usage evidence yet: queue, don't shed.
    EXPECT_FALSE(scaler.shouldShed(fleet, 100, noisy));

    // Tenant 0 produced 90% of recent routed work against a 50%
    // share: its overload arrivals shed, the in-share tenant's
    // keep queueing.
    scaler.noteRouted(noisy, 9'000, fleet.now);
    scaler.noteRouted(victim, 1'000, fleet.now);
    EXPECT_TRUE(scaler.shouldShed(fleet, 100, noisy));
    EXPECT_FALSE(scaler.shouldShed(fleet, 100, victim));

    // The overload gate itself is unchanged: under the bound
    // nobody sheds, over-share or not.
    EXPECT_FALSE(scaler.shouldShed(fleetOf(2, 10'000, 5'000, 0),
                                   100, noisy));
}

TEST(AutoScalerTest, NeverPolicyNeverSheds)
{
    autoscale::AutoScaler scaler(testConfig(1, 1),
                                 std::make_unique<FixedPolicy>(0));
    EXPECT_FALSE(scaler.shouldShed(fleetOf(1, 1'000, 1'000'000, 0),
                                   1'000, base::RequestClass{}));
}

// --- Cluster lifecycle -----------------------------------------------

std::unique_ptr<engine::ServingEngine>
tinyEngine()
{
    return std::make_unique<engine::ServingEngine>(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(core::SchedulerConfig::oracle()));
}

cluster::ServingCluster
makeFleet(sim::SimContext &context, std::size_t instances)
{
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    for (std::size_t i = 0; i < instances; ++i)
        engines.push_back(tinyEngine());
    return cluster::ServingCluster(
        std::move(engines),
        cluster::RoutingPolicy::LeastOutstandingTokens, context);
}

workload::Dataset
tinyDataset(std::size_t n, TokenCount input = 32,
            TokenCount output = 8)
{
    workload::Dataset dataset;
    dataset.name = "tiny";
    dataset.maxNewTokens = 64;
    for (std::size_t i = 0; i < n; ++i) {
        dataset.requests.push_back(makeRequest(
            static_cast<RequestId>(i), input, output, 64));
    }
    return dataset;
}

TEST(ClusterLifecycleTest, GrowsToMaxAndRoutesToNewInstances)
{
    sim::SimContext context;
    auto fleet = makeFleet(context, 1);
    fleet.enableAutoscale(testConfig(1, 3),
                          std::make_unique<FixedPolicy>(1), tinyEngine);
    testfx::RoutedLog log;
    fleet.recordSubmissions(&log);

    // 400 arrivals over ~8 s: enough control ticks to reach max.
    const auto dataset = tinyDataset(400);
    workload::submitPoissonArrivals(dataset, fleet, 50.0, 7);
    const auto report = fleet.run();

    EXPECT_EQ(report.numFinished, 400u);
    EXPECT_EQ(fleet.numInstances(), 3u);
    EXPECT_EQ(report.peakInstances, 3u);
    EXPECT_EQ(report.scaleUpEvents, 2);
    // Warmed-up instances actually took traffic.
    const auto counts = testfx::routedCounts(log, 3);
    EXPECT_GT(counts[1], 0u);
    EXPECT_GT(counts[2], 0u);
    // Elastic fleets cost less than peak-sized static ones.
    EXPECT_GT(report.instanceSeconds,
              ticksToSeconds(report.makespan));
    EXPECT_LT(report.instanceSeconds,
              3.0 * ticksToSeconds(report.makespan));
}

TEST(ClusterLifecycleTest, WarmupGatesRouting)
{
    sim::SimContext context;
    auto fleet = makeFleet(context, 1);
    auto config = testConfig(1, 2);
    // Cold start far longer than the traffic: the provisioned
    // instance must never receive any of it.
    config.provisionDelay = secondsToTicks(500.0);
    fleet.enableAutoscale(config, std::make_unique<FixedPolicy>(1),
                          tinyEngine);
    testfx::RoutedLog log;
    fleet.recordSubmissions(&log);

    const auto dataset = tinyDataset(100);
    workload::submitPoissonArrivals(dataset, fleet, 50.0, 7);
    const auto report = fleet.run();

    EXPECT_EQ(report.numFinished, 100u);
    ASSERT_EQ(fleet.numInstances(), 2u);
    EXPECT_EQ(testfx::routedCounts(log, 2)[1], 0u);
}

TEST(ClusterLifecycleTest, ScaleDownNeverDropsBelowMinInstances)
{
    // Regression for the --min-instances floor: a policy that
    // always wants to shrink must stop at the floor, not drain the
    // fleet to nothing.
    sim::SimContext context;
    auto fleet = makeFleet(context, 4);
    fleet.enableAutoscale(testConfig(2, 4),
                          std::make_unique<FixedPolicy>(-1), tinyEngine);

    // Arrivals span more than two cooldowns, so the shrink would
    // pass the floor without it.
    const auto dataset = tinyDataset(300);
    workload::submitPoissonArrivals(dataset, fleet, 4.0, 11);
    const auto report = fleet.run();

    EXPECT_EQ(report.numFinished, 300u);
    EXPECT_EQ(fleet.nonDrainingInstances(), 2u);
    EXPECT_EQ(report.scaleDownEvents, 2);
    EXPECT_GE(fleet.routableInstances(), 2u);
}

TEST(ClusterLifecycleTest, StaticFleetInstanceSecondsIsSizeTimesMakespan)
{
    sim::SimContext context;
    auto fleet = makeFleet(context, 3);
    const auto dataset = tinyDataset(60);
    workload::submitPoissonArrivals(dataset, fleet, 40.0, 3);
    const auto report = fleet.run();
    EXPECT_EQ(report.numFinished, 60u);
    EXPECT_NEAR(report.instanceSeconds,
                3.0 * ticksToSeconds(report.makespan), 1e-9);
    EXPECT_EQ(report.peakInstances, 3u);
    EXPECT_EQ(report.offeredRequests, 60);
    EXPECT_EQ(report.shedRequests, 0);
}

TEST(ClusterLifecycleTest, OverloadAtMaxScaleDegradesToRejections)
{
    // Max scale, overload shedding: a burst far beyond capacity
    // must bound the queue by rejecting, and every accepted
    // request must still finish.
    sim::SimContext context;
    auto fleet = makeFleet(context, 1);
    auto config = testConfig(1, 1);
    config.shedPolicy = autoscale::ShedPolicy::Overload;
    fleet.enableAutoscale(config, std::make_unique<FixedPolicy>(0),
                          tinyEngine);

    const auto dataset = tinyDataset(400, 200, 8);
    workload::submitPoissonArrivals(dataset, fleet, 5000.0, 13);
    const auto report = fleet.run();

    EXPECT_GT(report.shedRequests, 0);
    EXPECT_EQ(report.offeredRequests, 400);
    EXPECT_EQ(static_cast<std::int64_t>(report.numFinished),
              report.offeredRequests - report.shedRequests);
    EXPECT_GT(report.shedRate(), 0.0);
    EXPECT_LT(report.shedRate(), 1.0);
    // The bound holds: outstanding work on the single instance
    // never exceeded kShedFactor x capacity by more than one
    // request's footprint at admission time.
    EXPECT_EQ(fleet.shedRequests(), report.shedRequests);
}

TEST(ClusterLifecycleTest, SnapshotReflectsFleetState)
{
    sim::SimContext context;
    auto fleet = makeFleet(context, 2);
    auto snap = fleet.snapshot();
    ASSERT_EQ(snap.instances.size(), 2u);
    EXPECT_EQ(snap.nonDrainingCount(), 2u);
    EXPECT_EQ(snap.warmingCount(), 0u);
    EXPECT_GT(snap.readyCapacityTokens(), 0);
    EXPECT_EQ(snap.outstandingTokens(), 0);
}

TEST(ClusterDrainDeathTest, LastUndrainedInstanceIsNamed)
{
    sim::SimContext context;
    auto fleet = makeFleet(context, 2);
    fleet.scheduleDrain(0, 1);
    fleet.scheduleDrain(1, 2);
    const auto dataset = tinyDataset(4);
    workload::submitPoissonArrivals(dataset, fleet, 10.0, 3);
    EXPECT_DEATH(
        fleet.run(),
        "cannot drain instance 1: it is the last undrained");
}

TEST(EngineRecordCallbackTest, DeliversTheLatencyRecord)
{
    engine::ServingEngine engine(
        tinyPerf(8.0),
        core::makeSchedulingPolicy(core::SchedulerConfig::oracle()));
    std::vector<metrics::RequestRecord> records;
    engine.setOnRecord(
        [&](const metrics::RequestRecord &rec) {
            records.push_back(rec);
        });
    engine.submitAt(makeRequest(7, 30, 5), 0);
    const auto report = engine.run();

    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].id, 7);
    EXPECT_EQ(records[0].outputTokens, 5);
    ASSERT_EQ(report.requests.size(), 1u);
    EXPECT_EQ(records[0].ttft(), report.requests[0].ttft());
    EXPECT_EQ(records[0].finish, report.requests[0].finish);
}

} // namespace
} // namespace lightllm
