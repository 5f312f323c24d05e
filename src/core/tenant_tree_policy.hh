/**
 * @file
 * Scheduling pipeline backed by a scheduler-node tree.
 *
 * TreeSchedulingPolicy replaces the flat "order the whole queue
 * with one QueuePolicy" step with a SchedNode tree: each waiting
 * request is routed to its tenant's leaf, and the admission loop
 * alternates peek / tryAdmit / pop against the tree, so fair
 * weights and token-rate budgets decide which tenant supplies the
 * next candidate. Admission feasibility itself is unchanged — the
 * same Scheduler policies (conservative, aggressive, past-future,
 * oracle) test each candidate. The policy remembers the leaf that
 * admitted each request, so the finish charge walks up from that
 * leaf.
 *
 * Eviction stays on the shared victimOrder path, refined to be
 * fairness-aware: victims are ranked by their tenant's
 * weight-normalised resident KV usage (most over its share first),
 * with the flat queue-policy ranking as the within-tenant order.
 */

#ifndef LIGHTLLM_CORE_TENANT_TREE_POLICY_HH
#define LIGHTLLM_CORE_TENANT_TREE_POLICY_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sched_node.hh"
#include "core/scheduling_policy.hh"

namespace lightllm {
namespace core {

/** SchedulingPolicy whose queue is a scheduler-node tree. */
class TreeSchedulingPolicy final : public SchedulingPolicy
{
  public:
    /**
     * @param admission Memory-feasibility policy (owned).
     * @param tree Declarative node tree; leaves carry the
     *        per-tenant queue orderings.
     */
    TreeSchedulingPolicy(std::unique_ptr<Scheduler> admission,
                         const SchedNodeConfig &tree);

    void decideInto(const SchedulerContext &ctx,
                    SchedulingDecision &out) override;
    void victimOrder(const SchedulerContext &ctx,
                     VictimOrder tie_break,
                     std::vector<RequestId> &out) override;
    void onRequestFinished(RequestId id,
                           TokenCount output_len) override;
    std::string name() const override;

    /** Fair weight of `tenant`'s leaf (for shedding / reports). */
    double tenantWeight(base::TenantId tenant) const;

  private:
    /** Admit `index` from `leaf`, charging the tree. */
    void commitAdmit(const SchedulerContext &ctx, std::size_t index,
                     SchedNode &leaf, SchedulingDecision &decision);

    SchedNode root_;

    /** Leaf that admitted each unfinished request (finish
     *  notifications only carry the request id). */
    std::unordered_map<RequestId, SchedNode *> leafOf_;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_TENANT_TREE_POLICY_HH
