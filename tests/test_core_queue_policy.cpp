/**
 * @file
 * Unit tests for the decision-based scheduling pipeline: queue
 * orderings, decision validation, victim ranking and the
 * SchedulingPolicy composition — all over
 * crafted contexts (no engine involved).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/conservative_scheduler.hh"
#include "core/queue_policy.hh"
#include "core/scheduler_factory.hh"
#include "core/scheduling_decision.hh"
#include "core/scheduling_policy.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace core {
namespace {

/** Convenience builder for contexts over value vectors. */
struct ContextBuilder
{
    TokenCount capacity = 1000;
    TokenCount used = 0;
    TokenCount overhead = 0;
    std::vector<RunningView> running;
    std::vector<WaitingView> waiting;

    ContextBuilder &
    addRunning(RequestId id, TokenCount prompt, TokenCount generated,
               TokenCount max_new, std::uint64_t admit_seq,
               int priority = 0, bool prefilling = false)
    {
        RunningView view;
        view.id = id;
        view.promptLen = prompt;
        view.generatedLen = generated;
        view.maxNewTokens = max_new;
        view.trueOutputLen = max_new;
        view.admitSeq = admit_seq;
        view.cls.priority = priority;
        view.prefilling = prefilling;
        running.push_back(view);
        used += prompt + generated;
        return *this;
    }

    ContextBuilder &
    addWaiting(RequestId id, TokenCount prompt, TokenCount max_new,
               Tick arrival = 0, int priority = 0,
               TokenCount generated = 0)
    {
        WaitingView view;
        view.id = id;
        view.promptLen = prompt;
        view.generatedLen = generated;
        view.maxNewTokens = max_new;
        view.arrival = arrival;
        view.trueOutputLen = max_new;
        view.cls.priority = priority;
        waiting.push_back(view);
        return *this;
    }

    SchedulerContext
    context() const
    {
        SchedulerContext ctx;
        ctx.capacityTokens = capacity;
        ctx.usedTokens = used;
        ctx.perRequestOverhead = overhead;
        ctx.running = running;
        ctx.waiting = waiting;
        return ctx;
    }
};

/** Order the whole queue: the identity index list, sorted in
 *  place. */
std::vector<std::size_t>
orderOf(QueuePolicy &policy, const SchedulerContext &ctx)
{
    std::vector<std::size_t> indices(ctx.waiting.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    policy.order(ctx, indices);
    return indices;
}

// --- Queue orderings --------------------------------------------------

TEST(QueuePolicyTest, FcfsIsIdentity)
{
    auto policy = makeQueuePolicy(QueuePolicyConfig{});
    ContextBuilder builder;
    builder.addWaiting(5, 100, 200, 30);
    builder.addWaiting(6, 10, 200, 10);
    builder.addWaiting(7, 50, 200, 20);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(policy->kind(), QueuePolicyKind::Fcfs);
    EXPECT_EQ(policy->name(), "FCFS");
}

TEST(QueuePolicyTest, SjfOrdersByPredictedService)
{
    QueuePolicyConfig config;
    config.kind = QueuePolicyKind::PredictedSjf;
    config.predictorWindow = 100;
    auto policy = makeQueuePolicy(config);
    // All history at 100 tokens: expected output is 100 for every
    // fresh request, so the prompt differentiates.
    for (int i = 0; i < 50; ++i)
        policy->onRequestFinished(1000 + i, 100);

    ContextBuilder builder;
    builder.addWaiting(0, 500, 4096);
    builder.addWaiting(1, 50, 4096);
    builder.addWaiting(2, 200, 4096);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{1, 2, 0}));
}

TEST(QueuePolicyTest, SjfColdStartOrdersByPromptPlusCap)
{
    QueuePolicyConfig config;
    config.kind = QueuePolicyKind::PredictedSjf;
    auto policy = makeQueuePolicy(config);
    ContextBuilder builder;
    builder.addWaiting(0, 100, 4096);
    builder.addWaiting(1, 100, 64);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{1, 0}));
}

TEST(QueuePolicyTest, SjfPrefersRequeuedNearlyDoneRequest)
{
    QueuePolicyConfig config;
    config.kind = QueuePolicyKind::PredictedSjf;
    config.predictorWindow = 100;
    auto policy = makeQueuePolicy(config);
    for (int i = 0; i < 50; ++i)
        policy->onRequestFinished(1000 + i, 100);

    ContextBuilder builder;
    // Evicted request: prompt 100, generated 90; history says
    // outputs end at 100, so expected remaining is small and the
    // recompute prefill (190) still beats the fresh 300-prompt job.
    builder.addWaiting(0, 300, 4096);
    builder.addWaiting(1, 100, 4096, 0, 0, 90);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{1, 0}));
}

TEST(QueuePolicyTest, SjfTiesKeepQueueOrder)
{
    QueuePolicyConfig config;
    config.kind = QueuePolicyKind::PredictedSjf;
    auto policy = makeQueuePolicy(config);
    ContextBuilder builder;
    builder.addWaiting(3, 100, 200);
    builder.addWaiting(4, 100, 200);
    builder.addWaiting(5, 100, 200);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{0, 1, 2}));
}

TEST(QueuePolicyTest, EdfOrdersByArrivalDeadline)
{
    QueuePolicyConfig config;
    config.kind = QueuePolicyKind::Edf;
    config.ttftDeadline = 1000;
    auto policy = makeQueuePolicy(config);
    ContextBuilder builder;
    builder.addWaiting(0, 100, 200, 500);
    builder.addWaiting(1, 100, 200, 0);
    builder.addWaiting(2, 100, 200, 300);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{1, 2, 0}));
}

TEST(QueuePolicyTest, EdfHalvesBudgetPerPriorityClass)
{
    QueuePolicyConfig config;
    config.kind = QueuePolicyKind::Edf;
    config.ttftDeadline = 1000;
    auto policy = makeQueuePolicy(config);
    ContextBuilder builder;
    // Class-1 budget is 500: deadline 400 + 500 = 900 beats the
    // earlier class-0 arrival's 0 + 1000.
    builder.addWaiting(0, 100, 200, 0, 0);
    builder.addWaiting(1, 100, 200, 400, 1);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{1, 0}));
}

TEST(QueuePolicyTest, PriorityOrdersClassesFcfsWithin)
{
    QueuePolicyConfig config;
    config.kind = QueuePolicyKind::Priority;
    auto policy = makeQueuePolicy(config);
    ContextBuilder builder;
    builder.addWaiting(0, 100, 200, 0, 0);
    builder.addWaiting(1, 100, 200, 1, 2);
    builder.addWaiting(2, 100, 200, 2, 1);
    builder.addWaiting(3, 100, 200, 3, 2);
    EXPECT_EQ(orderOf(*policy, builder.context()),
              (std::vector<std::size_t>{1, 3, 2, 0}));
}

TEST(QueuePolicyTest, SubsetOrderMatchesOrderingCopiedViews)
{
    // A tenant queue orders its own index list in place. For every
    // kind that must equal copying the subset's views into their
    // own queue, ordering that, and mapping the permutation back.
    // The queue has ties on every key (prompt, arrival, priority),
    // so stability is what is checked.
    ContextBuilder builder;
    builder.addWaiting(0, 300, 4096, 50, 0);
    builder.addWaiting(1, 100, 4096, 20, 1);
    builder.addWaiting(2, 100, 4096, 20, 1);
    builder.addWaiting(3, 200, 64, 10, 0);
    builder.addWaiting(4, 100, 4096, 20, 1);
    builder.addWaiting(5, 50, 4096, 40, 2);
    builder.addWaiting(6, 300, 4096, 50, 0);
    builder.addWaiting(7, 100, 4096, 0, 1, 30);
    const SchedulerContext ctx = builder.context();
    const std::vector<std::size_t> subset = {7, 6, 4, 2, 1, 0};

    for (QueuePolicyKind kind :
         {QueuePolicyKind::Fcfs, QueuePolicyKind::PredictedSjf,
          QueuePolicyKind::Edf, QueuePolicyKind::Priority}) {
        QueuePolicyConfig config;
        config.kind = kind;
        config.ttftDeadline = 40;
        config.predictorWindow = 100;
        auto policy = makeQueuePolicy(config);
        for (int i = 0; i < 20; ++i)
            policy->onRequestFinished(1000 + i, 40 + i);

        std::vector<std::size_t> in_place = subset;
        policy->order(ctx, in_place);

        ContextBuilder local = builder;
        local.waiting.clear();
        for (std::size_t index : subset)
            local.waiting.push_back(builder.waiting[index]);
        std::vector<std::size_t> mapped;
        for (std::size_t local_index :
             orderOf(*policy, local.context()))
            mapped.push_back(subset[local_index]);

        EXPECT_EQ(in_place, mapped)
            << "kind " << static_cast<int>(kind);
    }
}

// --- Decision validation ----------------------------------------------

SchedulerContext
validationContext(ContextBuilder &builder)
{
    builder.addRunning(10, 100, 5, 200, 1);
    builder.addRunning(11, 100, 0, 200, 2, 0, /*prefilling=*/true);
    builder.addWaiting(1, 100, 200);
    builder.addWaiting(2, 100, 200);
    return builder.context();
}

TEST(DecisionValidationTest, AcceptsWellFormedDecision)
{
    ContextBuilder builder;
    const SchedulerContext ctx = validationContext(builder);
    SchedulingDecision decision;
    decision.admit = {2, 1};
    EXPECT_EQ(validateDecision(decision, ctx), "");
    EXPECT_EQ(validateDecision(SchedulingDecision{}, ctx), "");
}

TEST(DecisionValidationTest, RejectsUnknownAdmitId)
{
    ContextBuilder builder;
    const SchedulerContext ctx = validationContext(builder);
    SchedulingDecision decision;
    decision.admit = {99};
    EXPECT_NE(validateDecision(decision, ctx), "");
}

TEST(DecisionValidationTest, RejectsDuplicateAdmitId)
{
    ContextBuilder builder;
    const SchedulerContext ctx = validationContext(builder);
    SchedulingDecision decision;
    decision.admit = {1, 2, 1};
    EXPECT_NE(validateDecision(decision, ctx), "");
}

// --- SchedulingPolicy composition -------------------------------------

std::unique_ptr<testfx::OneShotPolicy>
makePipeline(QueuePolicyKind kind)
{
    QueuePolicyConfig queue;
    queue.kind = kind;
    return std::make_unique<testfx::OneShotPolicy>(
        std::make_unique<ConservativeScheduler>(1.0),
        makeQueuePolicy(queue));
}

TEST(SchedulingPolicyTest, FcfsDecisionMatchesPrefixCount)
{
    auto pipeline = makePipeline(QueuePolicyKind::Fcfs);
    ConservativeScheduler reference(1.0);

    ContextBuilder builder;
    for (RequestId id = 0; id < 5; ++id)
        builder.addWaiting(id, 100, 200);
    const SchedulerContext ctx = builder.context();

    const SchedulingDecision decision = pipeline->decide(ctx);
    const std::size_t count = testfx::selectAdmissions(reference, ctx);
    ASSERT_EQ(decision.admit.size(), count);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(decision.admit[i], ctx.waiting[i].id);
    EXPECT_EQ(validateDecision(decision, ctx), "");
}

TEST(SchedulingPolicyTest, SjfAdmitsShortJobFromBehind)
{
    auto pipeline = makePipeline(QueuePolicyKind::PredictedSjf);
    ContextBuilder builder;
    // Conservative limit 1000 with 300 already committed: the head
    // request (500 + 300) does not fit, the short one (100 + 100)
    // does — FCFS would admit nothing, SJF admits the short job.
    builder.addRunning(10, 100, 50, 200, 1);
    builder.addWaiting(0, 500, 300);
    builder.addWaiting(1, 100, 100);
    const SchedulerContext ctx = builder.context();

    const SchedulingDecision decision = pipeline->decide(ctx);
    ASSERT_EQ(decision.admit.size(), 1u);
    EXPECT_EQ(decision.admit[0], 1);

    auto fcfs = makePipeline(QueuePolicyKind::Fcfs);
    EXPECT_TRUE(fcfs->decide(ctx).admit.empty());
}

TEST(SchedulingPolicyTest, EdfAdmitsTheEarliestDeadlineUnderPressure)
{
    // DESIGN.md §2's worked example. Capacity 1000 with 400
    // committed, conservative admission, a 10 s EDF budget. The
    // deadlines are A 11 s, B 3 + 10/2 = 8 s (class 1), C 14 s, so
    // EDF tests B (650 fits), then A (650 + 650 > 1000) and stops.
    // FCFS tests A first (400 + 650 > 1000) and admits nothing.
    QueuePolicyConfig edf;
    edf.kind = QueuePolicyKind::Edf;
    edf.ttftDeadline = secondsToTicks(10.0);
    testfx::OneShotPolicy pipeline(
        std::make_unique<ConservativeScheduler>(1.0),
        makeQueuePolicy(edf));
    ContextBuilder builder;
    builder.addRunning(10, 200, 0, 200, 1);
    builder.addWaiting(0, 300, 350, secondsToTicks(1.0), 0);  // A
    builder.addWaiting(1, 100, 150, secondsToTicks(3.0), 1);  // B
    builder.addWaiting(2, 100, 100, secondsToTicks(4.0), 0);  // C
    const SchedulerContext ctx = builder.context();

    auto order = makeQueuePolicy(edf);
    EXPECT_EQ(orderOf(*order, ctx),
              (std::vector<std::size_t>{1, 0, 2}));
    EXPECT_EQ(pipeline.decide(ctx).admit,
              (std::vector<RequestId>{1}));
    EXPECT_TRUE(makePipeline(QueuePolicyKind::Fcfs)->decide(ctx)
                    .admit.empty());
}

TEST(SchedulingPolicyTest, ForcesProgressWhenIdle)
{
    auto pipeline = makePipeline(QueuePolicyKind::Fcfs);
    ContextBuilder builder;
    // Nothing fits (prompt + cap beyond capacity) but the system is
    // idle: the head request is force-admitted.
    builder.addWaiting(7, 900, 400);
    builder.addWaiting(8, 900, 400);
    const SchedulingDecision decision =
        pipeline->decide(builder.context());
    ASSERT_EQ(decision.admit.size(), 1u);
    EXPECT_EQ(decision.admit[0], 7);
}

TEST(SchedulingPolicyTest, ForcedProgressFollowsQueueOrder)
{
    auto pipeline = makePipeline(QueuePolicyKind::Priority);
    ContextBuilder builder;
    builder.addWaiting(7, 900, 400, 0, 0);
    builder.addWaiting(8, 900, 400, 1, 3);
    const SchedulingDecision decision =
        pipeline->decide(builder.context());
    ASSERT_EQ(decision.admit.size(), 1u);
    EXPECT_EQ(decision.admit[0], 8);
}

TEST(SchedulingPolicyTest, EmptyQueueYieldsEmptyDecision)
{
    auto pipeline = makePipeline(QueuePolicyKind::Fcfs);
    ContextBuilder builder;
    builder.addRunning(10, 100, 5, 200, 1);
    EXPECT_TRUE(pipeline->decide(builder.context()).admit.empty());
}

std::vector<RequestId>
victimsOf(SchedulingPolicy &pipeline, const SchedulerContext &ctx,
          VictimOrder tie_break)
{
    std::vector<RequestId> out;
    pipeline.victimOrder(ctx, tie_break, out);
    return out;
}

TEST(SchedulingPolicyTest, VictimOrderHonoursTieBreakOrder)
{
    auto pipeline = makePipeline(QueuePolicyKind::Fcfs);
    ContextBuilder builder;
    builder.addRunning(10, 100, 5, 200, /*admit_seq=*/3);
    builder.addRunning(11, 100, 5, 200, /*admit_seq=*/7);
    builder.addRunning(12, 100, 5, 200, /*admit_seq=*/5);
    const SchedulerContext ctx = builder.context();
    // Full ranking, not just the front: the engine evicts from the
    // front until the step fits.
    EXPECT_EQ(victimsOf(*pipeline, ctx, VictimOrder::NewestFirst),
              (std::vector<RequestId>{11, 12, 10}));
    EXPECT_EQ(victimsOf(*pipeline, ctx, VictimOrder::OldestFirst),
              (std::vector<RequestId>{10, 12, 11}));
}

TEST(SchedulingPolicyTest, PriorityPolicyShieldsHighClasses)
{
    auto pipeline = makePipeline(QueuePolicyKind::Priority);
    ContextBuilder builder;
    // Newest admission has the highest class; the low-priority
    // request is evicted first regardless of admission order.
    builder.addRunning(10, 100, 5, 200, 1, /*priority=*/2);
    builder.addRunning(11, 100, 5, 200, 2, /*priority=*/0);
    builder.addRunning(12, 100, 5, 200, 3, /*priority=*/2);
    const SchedulerContext ctx = builder.context();
    EXPECT_EQ(victimsOf(*pipeline, ctx, VictimOrder::NewestFirst),
              (std::vector<RequestId>{11, 12, 10}));
    // Within a class the tie-break order still applies.
    ContextBuilder same_class;
    same_class.addRunning(20, 100, 5, 200, 1, 1);
    same_class.addRunning(21, 100, 5, 200, 2, 1);
    EXPECT_EQ(victimsOf(*pipeline, same_class.context(),
                        VictimOrder::NewestFirst),
              (std::vector<RequestId>{21, 20}));
}

TEST(SchedulingPolicyTest, NameSuffixesNonFcfsQueue)
{
    EXPECT_EQ(makePipeline(QueuePolicyKind::Fcfs)->name(),
              "Conservative");
    EXPECT_EQ(makePipeline(QueuePolicyKind::Edf)->name(),
              "Conservative+EDF");
    EXPECT_EQ(makePipeline(QueuePolicyKind::PredictedSjf)->name(),
              "Conservative+Predicted-SJF");
}

TEST(SchedulingPolicyTest, FactoryBuildsConfiguredPipeline)
{
    SchedulerConfig config = SchedulerConfig::pastFutureDefault(0.05);
    config.queue.kind = QueuePolicyKind::Edf;
    auto pipeline = makeSchedulingPolicy(config);
    EXPECT_EQ(pipeline->name(), "Past-Future(reserved=5%)+EDF");
    EXPECT_EQ(pipeline->queue().kind(), QueuePolicyKind::Edf);
}

} // namespace
} // namespace core
} // namespace lightllm
