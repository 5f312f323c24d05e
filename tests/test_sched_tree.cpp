/**
 * @file
 * Tests for the scheduling pipeline's tenant queues: per-tenant
 * ordering, fair-share convergence, token-rate gates (the
 * any-window property), the TenantTreeSpec shape, the
 * SchedulingPolicy pipeline over a tenant tree, and the TenantMix
 * workload knob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/conservative_scheduler.hh"
#include "core/scheduler_factory.hh"
#include "core/scheduling_policy.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "model/perf_model.hh"
#include "test_fixtures.hh"
#include "workload/arrivals.hh"
#include "workload/datasets.hh"
#include "workload/tenant_mix.hh"

namespace lightllm {
namespace core {
namespace {

using testfx::fnv1a;

/** Waiting view of `tokens` prompt tokens for `tenant`. */
WaitingView
waitingOf(RequestId id, TokenCount tokens, base::TenantId tenant,
          Tick arrival = 0)
{
    WaitingView view;
    view.id = id;
    view.promptLen = tokens;
    view.maxNewTokens = 10;
    view.trueOutputLen = 10;
    view.arrival = arrival;
    view.cls.tenant = tenant;
    return view;
}

/** Context over `waiting` with ample capacity. */
SchedulerContext
contextOf(const std::vector<WaitingView> &waiting, Tick now = 0)
{
    SchedulerContext ctx;
    ctx.now = now;
    ctx.capacityTokens = 1'000'000;
    ctx.waiting = waiting;
    return ctx;
}

/** `ctx` with one (empty) running request, so a round that admits
 *  nothing does not fall back on the idle force-admit. */
SchedulerContext
busy(SchedulerContext ctx)
{
    static const std::vector<RunningView> one(1);
    ctx.running = one;
    return ctx;
}

/** Tenant queues built from `spec` over ample-capacity admission,
 *  so candidates are admitted in exactly the queues' order. */
std::unique_ptr<testfx::OneShotPolicy>
tenantQueues(const TenantTreeSpec &spec,
             const QueuePolicyConfig &queue = QueuePolicyConfig{})
{
    return std::make_unique<testfx::OneShotPolicy>(
        std::make_unique<ConservativeScheduler>(), spec, queue);
}

/** Tenant tree over `tenants` equal-weight tenants. */
TenantTreeSpec
tenantsOf(std::size_t tenants)
{
    TenantTreeSpec spec;
    spec.numTenants = tenants;
    return spec;
}

TEST(TenantQueueTest, OrdersItsTenantWithItsQueuePolicy)
{
    // EDF queues: tenant 0's requests come out by arrival even
    // though they are queued in reverse, and tenant 1's earlier
    // request does not take a place in tenant 0's order.
    QueuePolicyConfig edf;
    edf.kind = QueuePolicyKind::Edf;
    edf.ttftDeadline = 1000;
    auto policy = tenantQueues(tenantsOf(2), edf);

    std::vector<WaitingView> waiting = {
        waitingOf(10, 100, 0, /*arrival=*/300),
        waitingOf(11, 100, 0, /*arrival=*/100),
        waitingOf(20, 100, 1, /*arrival=*/50),
        waitingOf(12, 100, 0, /*arrival=*/200),
    };
    const SchedulingDecision decision =
        policy->decide(contextOf(waiting));
    ASSERT_EQ(decision.admit.size(), 4u);
    std::vector<RequestId> tenant0;
    std::copy_if(decision.admit.begin(), decision.admit.end(),
                 std::back_inserter(tenant0),
                 [](RequestId id) { return id != 20; });
    EXPECT_EQ(tenant0, (std::vector<RequestId>{11, 12, 10}));
}

TEST(FairQueueTest, ServiceSharesConvergeToWeights)
{
    // Property: under saturation, per-tenant service converges to
    // the configured 3:1 weights.
    TenantTreeSpec spec;
    spec.weights = {3.0, 1.0};
    auto policy = tenantQueues(spec);

    // Both tenants keep 200 equally sized requests queued.
    std::vector<WaitingView> waiting;
    for (RequestId id = 0; id < 400; ++id)
        waiting.push_back(waitingOf(id, 100, id % 2));
    SchedulerContext ctx = contextOf(waiting);
    ctx.admitRoom = 200;

    const SchedulingDecision decision = policy->decide(ctx);
    ASSERT_EQ(decision.admit.size(), 200u);
    std::map<base::TenantId, int> popsByTenant;
    for (RequestId id : decision.admit)
        popsByTenant[id % 2] += 1;
    // 3:1 over 200 pops = 150 / 50, give or take start-up skew.
    EXPECT_NEAR(popsByTenant[0], 150, 2);
    EXPECT_NEAR(popsByTenant[1], 50, 2);
}

TEST(FairQueueTest, ChargedTenantYields)
{
    auto policy = tenantQueues(tenantsOf(2));

    // Tenant 0 ran a huge decode since the last round.
    std::vector<WaitingView> first = {waitingOf(9, 100, 0)};
    ASSERT_EQ(policy->decide(contextOf(first)).admit,
              (std::vector<RequestId>{9}));
    policy->onRequestFinished(9, 100'000);

    std::vector<WaitingView> waiting = {
        waitingOf(0, 100, 0), waitingOf(1, 100, 1)};
    SchedulerContext ctx = contextOf(waiting);
    ctx.admitRoom = 1;
    EXPECT_EQ(policy->decide(ctx).admit, (std::vector<RequestId>{1}));
}

TEST(FairQueueTest, WakingTenantStartsAtTheFloor)
{
    // Tenant 0 is served alone up to vruntime 1000 (the floor
    // ratchets to 900, its vruntime at the last pick). When tenant
    // 1 wakes it is clamped up to 900 and alternates with tenant 0
    // from there, instead of spending 1000 tokens of credit banked
    // while idle.
    auto policy = tenantQueues(tenantsOf(2));

    std::vector<WaitingView> alone;
    for (RequestId id = 0; id < 10; ++id)
        alone.push_back(waitingOf(id, 100, 0));
    ASSERT_EQ(policy->decide(contextOf(alone)).admit.size(), 10u);

    std::vector<WaitingView> waiting;
    for (RequestId id = 10; id < 14; ++id)
        waiting.push_back(waitingOf(id, 100, 0));
    for (RequestId id = 20; id < 24; ++id)
        waiting.push_back(waitingOf(id, 100, 1));
    EXPECT_EQ(policy->decide(contextOf(waiting)).admit,
              (std::vector<RequestId>{20, 10, 21, 11, 22, 12, 23, 13}));
}

TEST(FairQueueTest, TwoTenantPopsFollowTheVirtualClock)
{
    // DESIGN.md §6's worked example: weights 3:1, every pop charges
    // 100 tokens, ties go to the lower tenant index.
    TenantTreeSpec spec;
    spec.weights = {3.0, 1.0};
    auto policy = tenantQueues(spec);
    RequestId next_id = 0;
    std::vector<WaitingView> waiting;  // the context views it
    const auto queued = [&](std::size_t a, std::size_t b) {
        waiting.clear();
        for (std::size_t i = 0; i < a; ++i)
            waiting.push_back(waitingOf(next_id++, 100, 0));
        for (std::size_t i = 0; i < b; ++i)
            waiting.push_back(waitingOf(1000 + next_id++, 100, 1));
        return contextOf(waiting);
    };
    const auto tenants = [](const SchedulingDecision &decision) {
        std::string out;
        for (RequestId id : decision.admit)
            out += id >= 1000 ? 'B' : 'A';
        return out;
    };

    SchedulerContext ctx = queued(8, 8);
    ctx.admitRoom = 8;
    EXPECT_EQ(tenants(policy->decide(ctx)), "ABAAABAA");

    // B's queue empties at vruntime 200; A pops alone 54 times, to
    // 2000, and the floor follows it to 1966.7 (A at its last pick).
    ctx = queued(54, 0);
    ASSERT_EQ(policy->decide(ctx).admit.size(), 54u);

    // B wakes at the floor, not at 200: it is served once, then A
    // twice, instead of eighteen B pops of banked catch-up.
    ctx = queued(8, 8);
    ctx.admitRoom = 3;
    EXPECT_EQ(tenants(policy->decide(ctx)), "BAA");
}

TEST(RateGateTest, NeverExceedsRateInAnyWindow)
{
    // Property: tokens dequeued inside any window [t1, t2] never
    // exceed burst + rate * (t2 - t1).
    const double rate = 1000.0;  // tokens per second
    const TokenCount burst = 500;
    const TokenCount cost = 100;

    TenantTreeSpec spec;
    spec.tokensPerSecond = rate;
    spec.burstTokens = burst;
    auto policy = tenantQueues(spec);

    // One greedy round every 50 ms for five simulated seconds.
    std::vector<std::pair<Tick, TokenCount>> dequeues;
    for (int round = 0; round < 100; ++round) {
        const Tick now = secondsToTicks(0.05 * round);
        std::vector<WaitingView> waiting;
        for (RequestId id = 0; id < 64; ++id)
            waiting.push_back(waitingOf(id, cost, 0));
        const SchedulingDecision decision =
            policy->decide(busy(contextOf(waiting, now)));
        for (std::size_t i = 0; i < decision.admit.size(); ++i)
            dequeues.emplace_back(now, cost);
    }
    ASSERT_FALSE(dequeues.empty());

    for (std::size_t i = 0; i < dequeues.size(); ++i) {
        TokenCount window_tokens = 0;
        for (std::size_t j = i; j < dequeues.size(); ++j) {
            window_tokens += dequeues[j].second;
            const double span =
                ticksToSeconds(dequeues[j].first -
                               dequeues[i].first);
            EXPECT_LE(static_cast<double>(window_tokens),
                      static_cast<double>(burst) + rate * span +
                          1e-6)
                << "window [" << i << ", " << j << "]";
        }
    }
}

TEST(RateGateTest, PostPaidUsageGatesLaterRounds)
{
    TenantTreeSpec spec;
    spec.tokensPerSecond = 100.0;
    spec.burstTokens = 200;
    auto policy = tenantQueues(spec);

    // A decode burst drives the bucket deep negative...
    std::vector<WaitingView> first = {waitingOf(5, 50, 0)};
    ASSERT_EQ(policy->decide(busy(contextOf(first))).admit,
              (std::vector<RequestId>{5}));
    policy->onRequestFinished(5, 10'000);

    std::vector<WaitingView> waiting = {waitingOf(0, 50, 0)};
    EXPECT_TRUE(policy->decide(busy(contextOf(waiting))).admit.empty());
    // ...but the idle force-admit backstop still gets a candidate.
    EXPECT_EQ(policy->decide(contextOf(waiting)).admit,
              (std::vector<RequestId>{0}));
}

TEST(TenantTreeSpecTest, GatesEachTenantSeparately)
{
    // Three tenants at 1000 tok/s, burst defaulting to one second
    // of rate: tenant 0 spends its own bucket on one 600-token
    // request, while tenants 1 and 2 still have theirs (a
    // 1000-token request fits a full default burst exactly).
    TenantTreeSpec spec = tenantsOf(3);
    spec.tokensPerSecond = 1000.0;
    auto policy = tenantQueues(spec);

    std::vector<WaitingView> waiting = {
        waitingOf(0, 600, 0), waitingOf(1, 600, 0),
        waitingOf(2, 600, 1), waitingOf(3, 1000, 2)};
    EXPECT_EQ(policy->decide(busy(contextOf(waiting))).admit,
              (std::vector<RequestId>{0, 2, 3}));
}

TEST(TenantTreeSpecTest, SubTokenRateGetsAOneTokenBurst)
{
    // One second of 0.5 tok/s truncates to a zero-token bucket,
    // which a rate gate cannot hold; the default rounds up to one
    // token, so a 1-token request passes and a 2-token one waits.
    TenantTreeSpec spec = tenantsOf(2);
    spec.tokensPerSecond = 0.5;
    auto policy = tenantQueues(spec);

    std::vector<WaitingView> waiting = {waitingOf(5, 2, 0),
                                        waitingOf(4, 1, 1)};
    EXPECT_EQ(policy->decide(busy(contextOf(waiting))).admit,
              (std::vector<RequestId>{4}));
}

TEST(TreePipelineTest, DecideInterleavesTenantsFairly)
{
    SchedulerConfig config;
    config.tenantTree = true;
    config.tenantSpec.numTenants = 2;
    auto policy = std::make_unique<testfx::OneShotPolicy>(
        makeScheduler(config), config.tenantSpec, config.queue);
    EXPECT_NE(policy->name().find("tenant-tree"), std::string::npos);

    // Queue order is all of tenant 0 first; fair dequeue must
    // alternate instead of draining tenant 0 as flat FCFS would.
    std::vector<WaitingView> waiting;
    for (RequestId id = 0; id < 4; ++id)
        waiting.push_back(waitingOf(id, 10, 0));
    for (RequestId id = 4; id < 8; ++id)
        waiting.push_back(waitingOf(id, 10, 1));
    const SchedulerContext ctx = contextOf(waiting);

    const SchedulingDecision decision = policy->decide(ctx);
    ASSERT_EQ(decision.admit.size(), 8u);
    EXPECT_EQ(decision.admit[0], 0u);
    EXPECT_EQ(decision.admit[1], 4u);
    EXPECT_EQ(decision.admit[2], 1u);
    EXPECT_EQ(decision.admit[3], 5u);
}

TEST(TreePipelineTest, IdleForceAdmitBypassesGates)
{
    // One tenant, throttled to nothing: an idle system must still
    // make progress through the tree (not the engine's flat
    // backstop, which would skip the tree's accounting).
    SchedulerConfig config;
    config.tenantTree = true;
    config.tenantSpec.numTenants = 1;
    config.tenantSpec.tokensPerSecond = 0.001;
    config.tenantSpec.burstTokens = 1;
    auto policy = std::make_unique<testfx::OneShotPolicy>(
        makeScheduler(config), config.tenantSpec, config.queue);

    std::vector<WaitingView> waiting = {waitingOf(7, 500, 0)};
    const SchedulerContext ctx = contextOf(waiting);
    const SchedulingDecision decision = policy->decide(ctx);
    ASSERT_EQ(decision.admit.size(), 1u);
    EXPECT_EQ(decision.admit.front(), 7u);
}

TEST(TreePipelineTest, VictimOrderShedsOverShareTenantFirst)
{
    SchedulerConfig config;
    config.tenantTree = true;
    config.tenantSpec.numTenants = 2;
    auto policy = makeSchedulingPolicy(config);

    // Tenant 0 holds 10x the resident tokens of tenant 1 under
    // equal weights: its requests must rank first, newest first
    // within the tenant.
    std::vector<RunningView> running;
    const auto add = [&](RequestId id, base::TenantId tenant,
                         TokenCount resident,
                         std::uint64_t admit_seq) {
        RunningView view;
        view.id = id;
        view.promptLen = resident;
        view.admitSeq = admit_seq;
        view.cls.tenant = tenant;
        running.push_back(view);
    };
    add(20, 0, 1000, 1);
    add(21, 1, 100, 2);
    add(22, 0, 1000, 3);

    SchedulerContext ctx;
    ctx.capacityTokens = 10'000;
    ctx.running = running;

    std::vector<RequestId> victims;
    policy->victimOrder(ctx, VictimOrder::NewestFirst, victims);
    EXPECT_EQ(victims, (std::vector<RequestId>{22, 20, 21}));
}

TEST(TreePipelineTest, FinishChargesTheQueueThatAdmittedTheRequest)
{
    // Tenant 3 has no queue of its own and spills into queue 1 (3
    // mod 2). Its finish charge must land on queue 1, which
    // admitted it; charged nowhere or to queue 0, queue 1 would
    // stay behind queue 0's 100-token pop and tenant 1 would go
    // first.
    auto policy = tenantQueues(tenantsOf(2));

    std::vector<WaitingView> first = {waitingOf(1, 10, 3),
                                      waitingOf(0, 100, 0)};
    ASSERT_EQ(policy->decide(contextOf(first)).admit,
              (std::vector<RequestId>{0, 1}));
    policy->onRequestFinished(1, 100'000);

    // Queue 1 just finished a huge decode: tenant 0 goes first.
    std::vector<WaitingView> waiting = {waitingOf(2, 10, 0),
                                        waitingOf(3, 10, 1)};
    EXPECT_EQ(policy->decide(contextOf(waiting)).admit,
              (std::vector<RequestId>{2, 3}));
}

TEST(TreePipelineTest, BatchCapChargesEachAdmissionOnce)
{
    // One request runs at a time. Each round may admit one, so the
    // pipeline must stop there: a candidate popped past the room
    // would be charged to its tenant without being admitted, and
    // again on every later round it waits through. Charged once per
    // admission, two tenants with equal requests alternate; charged
    // per round, the tenant whose queue drains first falls behind
    // on service and runs all its requests before the other's.
    SchedulerConfig config = SchedulerConfig::aggressive(1.0);
    config.tenantTree = true;
    config.tenantSpec.numTenants = 2;
    engine::EngineConfig engine_config;
    engine_config.maxBatchSize = 1;
    engine::ServingEngine engine(testfx::tinyPerf(8.0),
                                 makeSchedulingPolicy(config),
                                 engine_config);
    // Queue order: all of tenant 0, then all of tenant 1.
    for (RequestId id = 0; id < 6; ++id) {
        workload::RequestSpec spec = testfx::makeRequest(id, 100, 10);
        spec.cls.tenant = id < 3 ? 0 : 1;
        engine.submitAt(spec, 0);
    }
    const metrics::RunReport report = engine.run();
    ASSERT_EQ(report.numFinished, 6u);

    std::vector<metrics::RequestRecord> records = report.requests;
    std::sort(records.begin(), records.end(),
              [](const auto &a, const auto &b) {
                  return a.firstToken < b.firstToken;
              });
    std::vector<RequestId> order;
    for (const metrics::RequestRecord &record : records)
        order.push_back(record.id);
    EXPECT_EQ(order, (std::vector<RequestId>{0, 3, 1, 4, 2, 5}));
}

TEST(TreePipelineTest, UnknownTenantFallsBackToSpill)
{
    SchedulerConfig config;
    config.tenantTree = true;
    config.tenantSpec.numTenants = 2;
    auto policy = std::make_unique<testfx::OneShotPolicy>(
        makeScheduler(config), config.tenantSpec, config.queue);

    // Tenant 7 has no queue of its own; the request must still
    // schedule through the spill queue.
    std::vector<WaitingView> waiting = {waitingOf(3, 10, 7)};
    const SchedulerContext ctx = contextOf(waiting);
    const SchedulingDecision decision = policy->decide(ctx);
    ASSERT_EQ(decision.admit.size(), 1u);
    EXPECT_EQ(decision.admit.front(), 3u);
}

TEST(TreePipelineTest, ThrottledTwoTenantRunIsPinned)
{
    // The CLI never sets a token rate, so this is the one pinned
    // end-to-end run of a rate-gated tree: a steady tenant 0 and a
    // tenant 1 that bursts at 10x its rate, both rate-gated at 2000
    // tok/s, on an engine whose small KV pool makes the burst
    // queue. The summary bytes cover the bucket's refill/charge
    // float arithmetic and the post-paid decode charges.
    workload::Dataset steady = workload::makeUniformDataset(
        "steady", 40, 128, 256, 32, 64, 64, 101);
    workload::Dataset burst = workload::makeUniformDataset(
        "burst", 160, 128, 256, 32, 64, 64, 202);
    for (workload::RequestSpec &spec : burst.requests) {
        spec.id += 40;
        spec.cls.tenant = 1;
    }

    SchedulerConfig config = SchedulerConfig::pastFutureDefault(0.03);
    config.pastFuture.seedOutputLen = 64;
    config.tenantTree = true;
    config.tenantSpec.numTenants = 2;
    config.tenantSpec.tokensPerSecond = 2000.0;
    config.tenantSpec.burstTokens = 800;

    model::HardwareSpec hw = model::HardwareSpec::a100_80g();
    hw.memBytesPerDevice = static_cast<ByteCount>(20e9);
    engine::ServingEngine engine(
        model::PerfModel(model::ModelSpec::llama2_7b(), hw),
        makeSchedulingPolicy(config), engine::EngineConfig{});
    workload::submitPoissonArrivals(steady, engine, 4.0, 7);
    workload::submitPoissonArrivals(burst, engine, 40.0, 11,
                                    secondsToTicks(4.0));
    const metrics::RunReport report = engine.run();

    std::ostringstream json;
    metrics::writeSummaryJson(json, report,
                              metrics::SlaSpec::small7b13b());
    EXPECT_EQ(report.numFinished, 200u);
    EXPECT_EQ(fnv1a(json.str()), 0x70f15720e81a48c7ull)
        << std::hex << "0x" << fnv1a(json.str()) << "\n"
        << json.str();
}

} // namespace
} // namespace core

namespace workload {
namespace {

TEST(TenantMixTest, ZipfSharesFollowTheExponent)
{
    TenantMix mix;
    mix.numTenants = 4;
    mix.zipfExponent = 1.0;
    const std::vector<double> shares = mix.shares();
    ASSERT_EQ(shares.size(), 4u);
    EXPECT_DOUBLE_EQ(shares[0], 1.0);
    EXPECT_DOUBLE_EQ(shares[1], 0.5);
    EXPECT_DOUBLE_EQ(shares[3], 0.25);
}

TEST(TenantMixTest, AssignmentIsDeterministicAndShareWeighted)
{
    Dataset dataset = makeDistribution1(4000, 7);
    TenantMix mix;
    mix.numTenants = 3;
    mix.weights = {8.0, 1.0, 1.0};
    mix.sloTiers = 2;
    assignTenantMix(dataset, mix, 99);

    std::map<base::TenantId, int> counts;
    for (const RequestSpec &spec : dataset.requests) {
        counts[spec.cls.tenant] += 1;
        EXPECT_EQ(spec.cls.sloTier,
                  static_cast<int>(spec.cls.tenant % 2));
    }
    // 80/10/10 split over 4000 draws.
    EXPECT_NEAR(counts[0], 3200, 120);
    EXPECT_NEAR(counts[1], 400, 80);
    EXPECT_NEAR(counts[2], 400, 80);

    Dataset again = makeDistribution1(4000, 7);
    assignTenantMix(again, mix, 99);
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
        EXPECT_EQ(again.requests[i].cls,
                  dataset.requests[i].cls);
    }
}

TEST(TenantMixTest, TreeWeightsAreTopNormalised)
{
    TenantMix mix;
    mix.numTenants = 3;
    mix.zipfExponent = 1.0;
    const std::vector<double> weights = tenantTreeWeights(mix);
    ASSERT_EQ(weights.size(), 3u);
    EXPECT_DOUBLE_EQ(weights[0], 1.0);
    EXPECT_DOUBLE_EQ(weights[1], 0.5);
}

} // namespace
} // namespace workload
} // namespace lightllm
