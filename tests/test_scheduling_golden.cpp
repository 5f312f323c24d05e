/**
 * @file
 * Golden equivalence suite for the decision-based scheduling
 * pipeline.
 *
 * The FCFS queue policy is a compatibility adapter: it must
 * reproduce the seed's count-based FCFS-prefix scheduling
 * bit-identically. Two independent proofs:
 *
 *  1. Golden metrics: full scenarios whose per-scheduler metrics
 *     were captured from the pre-refactor binary (same workload,
 *     seed, and platform); the pipeline must match them exactly —
 *     including the eviction-heavy Past-Future run, whose RNG
 *     consumption depends on every admission test performed.
 *
 *  2. Lockstep: a LegacyPrefixPolicy re-implements the seed's
 *     count-then-prefix semantics on top of the
 *     testfx::selectAdmissions() reference;
 *     engines driven by it and by the real pipeline must produce
 *     identical per-request records.
 *
 * Plus the headline capability test: on a bursty heavy-tailed
 * workload, predicted-SJF and EDF beat FCFS goodput under the
 * Past-Future scheduler.
 */

#include <gtest/gtest.h>

#include <string>

#include "cli_scenario.hh"
#include "core/scheduling_policy.hh"
#include "engine/serving_engine.hh"
#include "test_fixtures.hh"
#include "workload/client_pool.hh"

namespace lightllm {
namespace {

cli::CliOptions
heavyOptions(const std::string &scheduler)
{
    cli::CliOptions options;
    options.workload = "sharegpt-o1";
    options.requests = 160;
    options.clients = 96;
    options.seed = 42;
    options.scheduler = scheduler;
    return options;
}

/** Golden metrics captured from the pre-refactor (seed) binary. */
struct Golden
{
    const char *scheduler;
    std::int64_t decodeSteps;
    std::int64_t prefillIterations;
    std::int64_t evictionEvents;
    std::size_t requestsEvicted;
    double makespanSeconds;
    double goodputTokPerSec;
};

class GoldenEquivalence : public ::testing::TestWithParam<Golden>
{};

TEST_P(GoldenEquivalence, FcfsPipelineReproducesSeedMetrics)
{
    const Golden &golden = GetParam();
    const cli::Scenario scenario =
        cli::assembleScenario(heavyOptions(golden.scheduler));
    const metrics::RunReport report = cli::runScenario(scenario);

    EXPECT_EQ(report.numFinished, 160u);
    EXPECT_EQ(report.decodeSteps, golden.decodeSteps);
    EXPECT_EQ(report.prefillIterations, golden.prefillIterations);
    EXPECT_EQ(report.evictionEvents, golden.evictionEvents);
    EXPECT_EQ(report.requestsEvicted, golden.requestsEvicted);
    EXPECT_EQ(report.totalOutputTokens, 333004);
    EXPECT_NEAR(ticksToSeconds(report.makespan),
                golden.makespanSeconds, 5e-4);
    EXPECT_NEAR(report.goodputTokensPerSec(scenario.sla),
                golden.goodputTokPerSec, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Seed, GoldenEquivalence,
    ::testing::Values(
        Golden{"past_future", 12104, 183, 23, 16, 347.575, 74.623},
        Golden{"aggressive", 9711, 199, 39, 31, 319.855, 323.628},
        Golden{"conservative", 28775, 160, 0, 0, 542.269, 51.272},
        Golden{"oracle", 9849, 160, 0, 0, 319.408, 316.808}),
    [](const auto &info) {
        return std::string(info.param.scheduler);
    });

TEST(GoldenEquivalenceLight, AllSchedulersMatchSeedOnLightLoad)
{
    // Under light load every scheduler admits everything; the seed
    // binary reported identical metrics for all four.
    for (const char *scheduler :
         {"past_future", "aggressive", "conservative", "oracle"}) {
        cli::CliOptions options;
        options.workload = "sharegpt";
        options.requests = 96;
        options.clients = 16;
        options.seed = 42;
        options.scheduler = scheduler;
        const cli::Scenario scenario =
            cli::assembleScenario(options);
        const metrics::RunReport report =
            cli::runScenario(scenario);
        EXPECT_EQ(report.numFinished, 96u) << scheduler;
        EXPECT_EQ(report.decodeSteps, 3646) << scheduler;
        EXPECT_EQ(report.evictionEvents, 0) << scheduler;
        EXPECT_NEAR(ticksToSeconds(report.makespan), 56.673, 5e-4)
            << scheduler;
        EXPECT_NEAR(report.goodputTokensPerSec(scenario.sla),
                    711.664, 5e-4)
            << scheduler;
    }
}

// --- Lockstep against the seed's count-based semantics ----------------

/** The seed scheduling path, verbatim: ask the admission policy for
 *  a count, admit that many requests from the queue front. */
class LegacyPrefixPolicy : public core::SchedulingPolicy
{
  public:
    explicit LegacyPrefixPolicy(
        std::unique_ptr<core::Scheduler> scheduler)
        : LegacyPrefixPolicy(scheduler.get(), std::move(scheduler))
    {
    }

    void
    decideInto(const core::SchedulerContext &ctx,
               core::SchedulingDecision &out) override
    {
        out.admit.clear();
        if (ctx.waiting.empty())
            return;
        std::size_t count =
            testfx::selectAdmissions(*admission_, ctx);
        if (count == 0 && ctx.running.empty())
            count = 1;  // the seed engine's forced progress
        count = std::min(count, ctx.waiting.size());
        for (std::size_t i = 0; i < count; ++i)
            out.admit.push_back(ctx.waiting[i].id);
    }

  private:
    LegacyPrefixPolicy(core::Scheduler *admission,
                       std::unique_ptr<core::Scheduler> &&owned)
        : SchedulingPolicy(std::move(owned)), admission_(admission)
    {
    }

    /** The admission policy the base owns. */
    core::Scheduler *admission_;
};

metrics::RunReport
runWithPolicy(const cli::Scenario &scenario,
              std::unique_ptr<core::SchedulingPolicy> policy)
{
    engine::ServingEngine engine(scenario.perf, std::move(policy),
                                 scenario.engineConfig);
    workload::ClosedLoopClientPool clients(
        scenario.clients, scenario.dataset, engine,
        scenario.thinkTime);
    engine.setOnFinish(
        [&](const workload::RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    return engine.run(scenario.limits);
}

TEST(LegacyLockstep, FcfsPipelineMatchesCountBasedPathExactly)
{
    for (const char *scheduler :
         {"past_future", "aggressive", "conservative", "oracle"}) {
        const cli::Scenario scenario =
            cli::assembleScenario(heavyOptions(scheduler));

        metrics::RunReport pipeline = runWithPolicy(
            scenario, core::makeSchedulingPolicy(
                          scenario.schedulerConfig));
        metrics::RunReport legacy = runWithPolicy(
            scenario,
            std::make_unique<LegacyPrefixPolicy>(
                core::makeScheduler(scenario.schedulerConfig)));

        ASSERT_EQ(pipeline.requests.size(), legacy.requests.size())
            << scheduler;
        EXPECT_EQ(pipeline.makespan, legacy.makespan) << scheduler;
        EXPECT_EQ(pipeline.decodeSteps, legacy.decodeSteps)
            << scheduler;
        EXPECT_EQ(pipeline.evictionEvents, legacy.evictionEvents)
            << scheduler;
        for (std::size_t i = 0; i < pipeline.requests.size(); ++i) {
            const auto &a = pipeline.requests[i];
            const auto &b = legacy.requests[i];
            ASSERT_EQ(a.id, b.id) << scheduler << " record " << i;
            EXPECT_EQ(a.arrival, b.arrival);
            EXPECT_EQ(a.firstToken, b.firstToken);
            EXPECT_EQ(a.finish, b.finish);
            EXPECT_EQ(a.maxGap, b.maxGap);
            EXPECT_EQ(a.outputTokens, b.outputTokens);
            EXPECT_EQ(a.evictions, b.evictions);
        }
    }
}

// --- Queue policies earn their keep -----------------------------------

double
goodputFor(const std::string &queue_policy,
           const std::string &priority_mix = "")
{
    cli::CliOptions options = heavyOptions("past_future");
    options.queuePolicy = queue_policy;
    options.priorityMix = priority_mix;
    const cli::Scenario scenario = cli::assembleScenario(options);
    const metrics::RunReport report = cli::runScenario(scenario);
    EXPECT_EQ(report.numFinished, 160u);
    return report.goodputTokensPerSec(scenario.sla);
}

TEST(QueuePolicyImprovement, SjfBeatsFcfsOnHeavyTailBurst)
{
    // Saturating heavy-tailed load (96 closed-loop clients over
    // ShareGPT-o1): FCFS head-of-line blocking throttles goodput;
    // predicted-SJF lets short jobs jump the long tail.
    const double fcfs = goodputFor("fcfs");
    const double sjf = goodputFor("sjf");
    EXPECT_GT(sjf, fcfs * 1.2);
}

TEST(QueuePolicyImprovement, EdfWithPriorityMixBeatsFcfs)
{
    // EDF differentiates via per-class deadline budgets, so give a
    // fifth of the requests a tighter (priority-1) budget.
    const double fcfs = goodputFor("fcfs", "0.8,0.2");
    const double edf = goodputFor("edf", "0.8,0.2");
    EXPECT_GT(edf, fcfs);
}

} // namespace
} // namespace lightllm
