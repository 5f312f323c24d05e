/**
 * @file
 * The scheduling pipeline: context → scheduler-node tree →
 * admission policy → decision.
 *
 * A SchedulingPolicy composes a SchedNode tree (which order the
 * waiting queue is considered in) with a Scheduler (whether each
 * candidate fits in memory) and produces an explicit
 * SchedulingDecision. The engine is the executor: it validates and
 * applies the decision with its recompute/swap mechanics.
 *
 * There is one pipeline shape. A flat policy is a tree whose root
 * is itself a leaf wrapping one QueuePolicy; a tenant tree is a
 * fair root over per-tenant leaves built from a SchedNodeConfig.
 * Either way a round enqueues the waiting indices into the leaves,
 * each leaf orders its index list in place, and admission walks the
 * tree peek → tryAdmit → pop until the first reject.
 *
 * With the FCFS queue policy the flat pipeline is a compatibility
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

#include "base/flat_id_table.hh"
#include "core/queue_policy.hh"
#include "core/sched_node.hh"
#include "core/scheduler.hh"
#include "core/scheduling_decision.hh"

namespace lightllm {
namespace core {

/** Queue ordering + memory feasibility → scheduling decisions. */
class SchedulingPolicy
{
  public:
    /**
     * Flat pipeline: the root is one leaf wrapping `queue`.
     *
     * @param admission Memory-feasibility policy (owned).
     * @param queue Queue-ordering policy (owned); nullptr means
     *        FCFS.
     */
    SchedulingPolicy(std::unique_ptr<Scheduler> admission,
                     std::unique_ptr<QueuePolicy> queue = nullptr);

    /**
     * Tree pipeline: the root is built from `tree`, whose leaves
     * carry the per-tenant queue orderings. A config without
     * children is a one-leaf tree, i.e. a flat pipeline.
     */
    SchedulingPolicy(std::unique_ptr<Scheduler> admission,
                     const SchedNodeConfig &tree);

    virtual ~SchedulingPolicy() = default;

    /**
     * One scheduling round: route the queue into the tree's
     * leaves, then feasibility-test candidates in the order the
     * tree yields them (stopping at the first reject — head-of-line
     * semantics under the chosen order), and emit the admissions.
     * When the system is idle (empty running batch) and nothing
     * fits, the tree's next candidate is force-admitted (rate gates
     * ignored) so the engine always makes progress, as real
     * frameworks do.
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
     * first. The engine evicts from the front until the step fits.
     * A flat policy ranks with its queue policy's victimOrder,
     * whose front is bit-exact with the historical first-minimal
     * scan. A tree ranks by admission order within a tenant
     * (whatever its leaves' queue policies), then moves the tenants
     * most over their weight-normalised share of resident KV to the
     * front.
     */
    virtual void victimOrder(const SchedulerContext &ctx,
                             VictimOrder tie_break,
                             std::vector<RequestId> &out);

    /** Completion feed: admission history, then the leaf that
     *  served the request (decode charge + SJF predictor). */
    void onRequestFinished(RequestId id, TokenCount output_len);

    /** Eviction notification (forwarded to the admission policy). */
    void onRequestEvicted(RequestId id);

    /** Routing-signal estimate (forwarded, see Scheduler). */
    TokenCount estimateLoad(const SchedulerContext &ctx);

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
     * flat queue policy's when it is not FCFS (so seed reports are
     * unchanged under the compatibility adapter), or with
     * "+tenant-tree" for a tree.
     */
    std::string name() const;

    Scheduler &admission() { return *admission_; }

    /** The flat pipeline's queue policy (a tree has one per
     *  leaf). */
    const QueuePolicy &queue() const { return root_.queue(); }

  private:
    /** Admit ctx.waiting[index] from `leaf`, charging the tree. */
    void admit(const SchedulerContext &ctx, std::size_t index,
               SchedNode &leaf, SchedulingDecision &out);

    std::unique_ptr<Scheduler> admission_;
    SchedNode root_;

    /** Tree: the leaf that admitted each unfinished request
     *  (finish notifications only carry the request id). */
    FlatIdTable<SchedNode *> leafOf_;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_SCHEDULING_POLICY_HH
