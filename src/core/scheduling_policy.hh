/**
 * @file
 * The scheduling pipeline: context → queue policy → admission
 * policy → decision.
 *
 * A SchedulingPolicy composes a QueuePolicy (which order the
 * waiting queue is considered in, and how eviction victims rank)
 * with a Scheduler (whether each candidate fits in memory) and
 * produces an explicit SchedulingDecision. The engine is the
 * executor: it validates and applies the decision with its
 * recompute/swap mechanics.
 *
 * With the FCFS queue policy the pipeline is a compatibility
 * adapter: it emits exactly the FCFS-prefix decisions the seed's
 * count-based API produced (same candidates tested in the same
 * order, so even the Past-Future scheduler's RNG consumption is
 * bit-identical), which is what keeps every paper figure
 * reproducible. See DESIGN.md §2 for the pipeline walk-through and
 * a worked EDF example.
 */

#ifndef LIGHTLLM_CORE_SCHEDULING_POLICY_HH
#define LIGHTLLM_CORE_SCHEDULING_POLICY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/queue_policy.hh"
#include "core/scheduler.hh"
#include "core/scheduling_decision.hh"

namespace lightllm {
namespace core {

/** Queue ordering + memory feasibility → scheduling decisions. */
class SchedulingPolicy
{
  public:
    /**
     * @param admission Memory-feasibility policy (owned).
     * @param queue Queue-ordering policy (owned); nullptr means
     *        FCFS.
     */
    SchedulingPolicy(std::unique_ptr<Scheduler> admission,
                     std::unique_ptr<QueuePolicy> queue = nullptr);

    virtual ~SchedulingPolicy() = default;

    /**
     * One scheduling round: order the queue, feasibility-test
     * candidates in that order (stopping at the first reject —
     * head-of-line semantics under the chosen order), and emit the
     * admissions. When the system is idle (empty running batch) and
     * nothing fits, the head-of-order request is force-admitted so
     * the engine always makes progress, as real frameworks do.
     *
     * `out` is reset before filling; callers reuse one decision
     * object across rounds so the hot path allocates nothing once
     * its vectors have warmed up.
     */
    virtual void decideInto(const SchedulerContext &ctx,
                            SchedulingDecision &out);

    /** Convenience wrapper over decideInto for one-shot callers. */
    SchedulingDecision
    decide(const SchedulerContext &ctx)
    {
        SchedulingDecision decision;
        decideInto(ctx, decision);
        return decision;
    }

    /**
     * Reactive eviction: fill `out` with ctx.running (all entries
     * must be evictable, i.e. not prefilling) ranked most-evictable
     * first. The engine evicts from the front until the step fits,
     * so flat and tree policies share one eviction code path. The
     * flat ranking is the queue policy's victimOrder, whose front
     * is bit-exact with the historical first-minimal scan.
     */
    virtual void victimOrder(const SchedulerContext &ctx,
                             VictimOrder tie_break,
                             std::vector<RequestId> &out);

    /** Completion feed (admission history + SJF predictor). */
    virtual void onRequestFinished(RequestId id,
                                   TokenCount output_len);

    /** Eviction notification (forwarded to the admission policy). */
    virtual void onRequestEvicted(RequestId id);

    /** Routing-signal estimate (forwarded, see Scheduler). */
    virtual TokenCount estimateLoad(const SchedulerContext &ctx);

    /** Read-only output-length estimate for tracing (see
     *  Scheduler::peekPrediction). */
    TokenCount peekPrediction(RequestId id, TokenCount generated_len,
                              TokenCount max_new_tokens)
    {
        return admission_->peekPrediction(id, generated_len,
                                          max_new_tokens);
    }

    /** The prediction audit's peek (see
     *  Scheduler::peekWithHorizon). */
    PredictionPeek peekWithHorizon(RequestSlot slot, RequestId id,
                                   TokenCount generated_len,
                                   TokenCount max_new_tokens)
    {
        return admission_->peekWithHorizon(slot, id, generated_len,
                                           max_new_tokens);
    }

    /** Slot recycling (forwarded, see Scheduler::onSlotReleased). */
    void onSlotReleased(RequestSlot slot, RequestId id)
    {
        admission_->onSlotReleased(slot, id);
    }

    /**
     * Report label: the admission policy's name, suffixed with the
     * queue policy's when it is not FCFS (so seed reports are
     * unchanged under the compatibility adapter).
     */
    virtual std::string name() const;

    Scheduler &admission() { return *admission_; }
    QueuePolicy &queue() { return *queue_; }

  private:
    std::unique_ptr<Scheduler> admission_;
    std::unique_ptr<QueuePolicy> queue_;

    /** Ordering scratch reused across rounds. */
    std::vector<std::size_t> orderScratch_;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_SCHEDULING_POLICY_HH
