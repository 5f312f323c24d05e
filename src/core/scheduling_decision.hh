/**
 * @file
 * The scheduler's output: an explicit decision object.
 *
 * A SchedulingDecision names the requests to admit, not a count
 * (which could only express "admit an FCFS prefix of the queue"),
 * so policies can admit from any queue position (SJF, EDF, priority
 * classes); under FCFS it is the count path's prefix
 * (LegacyLockstep in test_scheduling_golden). The engine is the
 * executor: it validates the decision against the context it handed
 * out, then applies the admissions in the given order. Eviction is
 * not part of a decision: it happens only when a decode step cannot
 * grow the KV, with victims ranked by SchedulingPolicy::victimOrder.
 */

#ifndef LIGHTLLM_CORE_SCHEDULING_DECISION_HH
#define LIGHTLLM_CORE_SCHEDULING_DECISION_HH

#include <string>
#include <vector>

#include "core/scheduler.hh"

namespace lightllm {
namespace core {

/** One round's admissions, by request id. */
struct SchedulingDecision
{
    /** Waiting-queue requests to admit, in admission order. */
    std::vector<RequestId> admit;
};

/**
 * Check a decision against the context it was made from.
 *
 * Valid means: admit ids are distinct members of ctx.waiting.
 *
 * @return Empty string when valid, otherwise a diagnostic naming
 *         the offending id.
 */
std::string validateDecision(const SchedulingDecision &decision,
                             const SchedulerContext &ctx);

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_SCHEDULING_DECISION_HH
