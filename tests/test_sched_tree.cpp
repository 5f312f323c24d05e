/**
 * @file
 * Tests for the settings-driven scheduler-node tree: leaf
 * ordering, fair-share convergence, token-rate gates (the
 * any-window property), the canonical tenant tree, the
 * SchedulingPolicy pipeline over a tenant tree, and the TenantMix
 * workload knob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "core/conservative_scheduler.hh"
#include "core/sched_node.hh"
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

SchedNodeConfig
leafConfig(const std::string &name, base::TenantId tenant)
{
    SchedNodeConfig leaf;
    leaf.name = name;
    leaf.tenants = {tenant};
    return leaf;
}

/** Route every waiting index of `ctx` into the tree's leaves. */
void
routeAll(SchedNode &root, const SchedulerContext &ctx)
{
    root.beginRound(ctx);
    for (std::size_t i = 0; i < ctx.waiting.size(); ++i)
        root.route(ctx.waiting[i].cls.tenant).enqueue(i);
}

TEST(LeafSchedNodeTest, WrapsQueuePolicyOverItsSubsetOnly)
{
    // EDF leaf: ordering is by arrival even though the enqueue
    // order is reversed.
    SchedNodeConfig config = leafConfig("leaf", 0);
    config.queue.kind = QueuePolicyKind::Edf;
    config.queue.ttftDeadline = 1000;
    auto root = std::make_unique<SchedNode>(config);

    std::vector<WaitingView> waiting = {
        waitingOf(10, 100, 0, /*arrival=*/300),
        waitingOf(11, 100, 0, /*arrival=*/100),
        waitingOf(12, 100, 0, /*arrival=*/200),
    };
    const SchedulerContext ctx = contextOf(waiting);
    routeAll(*root, ctx);

    std::vector<RequestId> popped;
    std::size_t index = 0;
    while (SchedNode *leaf = root->peek(ctx.now, false, index)) {
        popped.push_back(ctx.waiting[index].id);
        leaf->pop(ctx.waiting[index].promptLen);
    }
    EXPECT_EQ(popped, (std::vector<RequestId>{11, 12, 10}));
}

TEST(FairSchedNodeTest, ServiceSharesConvergeToWeights)
{
    // Property (satellite): under saturation, per-tenant service
    // converges to the configured 3:1 weights.
    SchedNodeConfig fair;
    fair.children.push_back(leafConfig("a", 0));
    fair.children.push_back(leafConfig("b", 1));
    fair.children[0].weight = 3.0;
    fair.children[1].weight = 1.0;
    auto root = std::make_unique<SchedNode>(fair);

    // Both tenants keep 200 equally sized requests queued.
    std::vector<WaitingView> waiting;
    for (RequestId id = 0; id < 400; ++id)
        waiting.push_back(waitingOf(id, 100, id % 2));
    const SchedulerContext ctx = contextOf(waiting);
    routeAll(*root, ctx);

    std::map<base::TenantId, int> popsByTenant;
    std::size_t index = 0;
    for (int pops = 0; pops < 200; ++pops) {
        SchedNode *leaf = root->peek(ctx.now, false, index);
        ASSERT_TRUE(leaf);
        popsByTenant[ctx.waiting[index].cls.tenant] += 1;
        leaf->pop(ctx.waiting[index].promptLen);
    }
    // 3:1 over 200 pops = 150 / 50, give or take start-up skew.
    EXPECT_NEAR(popsByTenant[0], 150, 2);
    EXPECT_NEAR(popsByTenant[1], 50, 2);
}

TEST(FairSchedNodeTest, AccountUsagePenalisesTheServedTenant)
{
    SchedNodeConfig fair;
    fair.children.push_back(leafConfig("a", 0));
    fair.children.push_back(leafConfig("b", 1));
    auto root = std::make_unique<SchedNode>(fair);

    std::vector<WaitingView> waiting = {
        waitingOf(0, 100, 0), waitingOf(1, 100, 1)};
    const SchedulerContext ctx = contextOf(waiting);

    // Tenant 0 ran a huge decode since the last round.
    root->route(0).charge(100'000);

    routeAll(*root, ctx);
    std::size_t index = 0;
    ASSERT_TRUE(root->peek(ctx.now, false, index));
    EXPECT_EQ(ctx.waiting[index].cls.tenant, 1u);
}

TEST(ThrottlerSchedNodeTest, NeverExceedsRateInAnyWindow)
{
    // Property (satellite): tokens dequeued inside any window
    // [t1, t2] never exceed burst + rate * (t2 - t1).
    const double rate = 1000.0;  // tokens per second
    const TokenCount burst = 500;
    const TokenCount cost = 100;

    SchedNodeConfig config = leafConfig("leaf", 0);
    config.tokensPerSecond = rate;
    config.burstTokens = burst;
    auto root = std::make_unique<SchedNode>(config);

    // One greedy round every 50 ms for five simulated seconds.
    std::vector<std::pair<Tick, TokenCount>> dequeues;
    for (int round = 0; round < 100; ++round) {
        const Tick now = secondsToTicks(0.05 * round);
        std::vector<WaitingView> waiting;
        for (RequestId id = 0; id < 64; ++id)
            waiting.push_back(waitingOf(id, cost, 0));
        const SchedulerContext ctx = contextOf(waiting, now);
        routeAll(*root, ctx);
        std::size_t index = 0;
        while (SchedNode *leaf = root->peek(now, false, index)) {
            leaf->pop(ctx.waiting[index].promptLen);
            dequeues.emplace_back(now, cost);
        }
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

TEST(ThrottlerSchedNodeTest, PostPaidUsageGatesLaterRounds)
{
    SchedNodeConfig config = leafConfig("leaf", 0);
    config.tokensPerSecond = 100.0;
    config.burstTokens = 200;
    auto root = std::make_unique<SchedNode>(config);

    // A decode burst drives the bucket deep negative...
    root->route(0).charge(10'000);

    std::vector<WaitingView> waiting = {waitingOf(0, 50, 0)};
    const SchedulerContext ctx = contextOf(waiting, 0);
    routeAll(*root, ctx);
    std::size_t index = 0;
    EXPECT_FALSE(root->peek(0, false, index));
    // ...but the idle force-admit backstop still gets a candidate.
    EXPECT_TRUE(root->peek(0, true, index));
}

TEST(TenantFairTreeTest, BuildsOneGatedSubtreePerTenant)
{
    TenantTreeSpec spec;
    spec.numTenants = 3;
    spec.tokensPerSecond = 1000.0;
    const SchedNodeConfig config =
        tenantFairTree(spec, QueuePolicyConfig{});
    auto root = std::make_unique<SchedNode>(config);

    ASSERT_EQ(config.children.size(), 3u);
    for (base::TenantId t = 0; t < 3; ++t) {
        const SchedNodeConfig &leaf = config.children[t];
        EXPECT_TRUE(leaf.children.empty());
        EXPECT_EQ(leaf.tenants, std::vector<base::TenantId>{t});
        EXPECT_EQ(leaf.tokensPerSecond, 1000.0);
        EXPECT_EQ(root->route(t).name(), leaf.name);
        EXPECT_NE(&root->route(t), &root->route((t + 1) % 3));
    }
}

TEST(TenantFairTreeTest, SubTokenRateGetsAOneTokenBurst)
{
    // One second of 0.5 tok/s truncates to a zero-token bucket,
    // which a rate gate cannot hold; the default rounds up.
    TenantTreeSpec spec;
    spec.numTenants = 2;
    spec.tokensPerSecond = 0.5;
    const SchedNodeConfig config =
        tenantFairTree(spec, QueuePolicyConfig{});
    for (const SchedNodeConfig &leaf : config.children)
        EXPECT_EQ(leaf.burstTokens, 1);

    SchedulerConfig scheduler;
    scheduler.tenantTree = true;
    scheduler.tenantSpec = spec;
    auto policy = makeSchedulingPolicy(scheduler);
    std::vector<WaitingView> waiting = {waitingOf(4, 1, 1)};
    const SchedulingDecision decision =
        policy->decide(contextOf(waiting));
    EXPECT_EQ(decision.admit, (std::vector<RequestId>{4}));
}

TEST(TreePipelineTest, DecideInterleavesTenantsFairly)
{
    SchedulerConfig config;
    config.tenantTree = true;
    config.tenantSpec.numTenants = 2;
    auto policy = makeSchedulingPolicy(config);
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
    auto policy = makeSchedulingPolicy(config);

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

TEST(TreePipelineTest, FinishChargesTheLeafThatServedTheRequest)
{
    // A catch-all leaf declared before tenant 1's own leaf: tenant
    // 1's finish charge must land on the leaf that admitted it,
    // not on the first leaf that could serve the tenant.
    SchedNodeConfig catch_all;
    catch_all.name = "catch-all";
    SchedNodeConfig tree;
    tree.children = {catch_all, leafConfig("one", 1)};
    SchedulingPolicy policy(
        std::make_unique<ConservativeScheduler>(), tree);

    std::vector<WaitingView> first = {waitingOf(1, 10, 1)};
    ASSERT_EQ(policy.decide(contextOf(first)).admit,
              (std::vector<RequestId>{1}));
    policy.onRequestFinished(1, 100'000);

    // Tenant 1 just finished a huge decode: tenant 0 goes first.
    std::vector<WaitingView> waiting = {waitingOf(2, 10, 0),
                                        waitingOf(3, 10, 1)};
    EXPECT_EQ(policy.decide(contextOf(waiting)).admit,
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
    auto policy = makeSchedulingPolicy(config);

    // Tenant 7 has no leaf; the request must still schedule.
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
