/**
 * @file
 * Construction of scheduling policies from a declarative
 * configuration. An engine takes the whole pipeline,
 * makeSchedulingPolicy; makeScheduler builds the admission policy
 * alone, for callers that wrap it (a decorator, a policy of their
 * own) before handing it to a SchedulingPolicy.
 */

#ifndef LIGHTLLM_CORE_SCHEDULER_FACTORY_HH
#define LIGHTLLM_CORE_SCHEDULER_FACTORY_HH

#include <memory>

#include "core/past_future_scheduler.hh"
#include "core/queue_policy.hh"
#include "core/scheduler.hh"
#include "core/scheduling_policy.hh"

namespace lightllm {
namespace core {

/** Which admission policy to build. */
enum class SchedulerKind
{
    Conservative,
    Aggressive,
    PastFuture,
    Oracle,
};

/** Declarative scheduler configuration. */
struct SchedulerConfig
{
    SchedulerKind kind = SchedulerKind::PastFuture;

    /** Conservative: capacity multiplier. */
    double overcommit = 1.0;

    /** Aggressive: admission watermark. */
    double watermark = 0.95;

    /** Past-Future tunables. */
    PastFutureParams pastFuture;

    /** Queue-ordering policy (FCFS admits the count-based FCFS
     *  prefix; test_scheduling_golden pins it). */
    QueuePolicyConfig queue;

    /** Split the queue into one fair-share queue per tenant, built
     *  from `tenantSpec` (weight, optional rate gate, `queue`
     *  ordering inside the tenant). Off reproduces the flat
     *  pipeline bit-exactly. */
    bool tenantTree = false;

    /** Shape of the tenant queues when tenantTree is set. */
    TenantTreeSpec tenantSpec;

    // Convenience named constructors for the paper's configurations.
    static SchedulerConfig conservative(double overcommit = 1.0);
    static SchedulerConfig aggressive(double watermark = 0.95);
    static SchedulerConfig pastFutureDefault(
        double reserved_ratio = 0.03);
    static SchedulerConfig oracle();
};

/** Instantiate the configured admission scheduler alone (no queue
 *  policy or tenant tree: the caller wraps it). */
std::unique_ptr<Scheduler> makeScheduler(const SchedulerConfig &config);

/** Instantiate the full pipeline: admission + queue policy. */
std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const SchedulerConfig &config);

/** Short lowercase label for the kind ("conservative", ...). */
const char *schedulerKindName(SchedulerKind kind);

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_SCHEDULER_FACTORY_HH
