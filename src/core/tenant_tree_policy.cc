#include "core/tenant_tree_policy.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {
namespace core {

TreeSchedulingPolicy::TreeSchedulingPolicy(
    std::unique_ptr<Scheduler> admission,
    const SchedNodeConfig &tree)
    : SchedulingPolicy(std::move(admission)), root_(tree)
{
}

double
TreeSchedulingPolicy::tenantWeight(base::TenantId tenant) const
{
    return root_.route(tenant).weight();
}

void
TreeSchedulingPolicy::commitAdmit(const SchedulerContext &ctx,
                                  std::size_t index, SchedNode &leaf,
                                  SchedulingDecision &decision)
{
    const WaitingView &candidate = ctx.waiting[index];
    // The pop charge is the candidate's prefill footprint; decode
    // output is post-paid through finish().
    leaf.pop(candidate.promptLen + candidate.generatedLen);
    leafOf_[candidate.id] = &leaf;
    decision.admit.push_back(candidate.id);
}

void
TreeSchedulingPolicy::decideInto(const SchedulerContext &ctx,
                                 SchedulingDecision &out)
{
    out.admit.clear();
    out.evict.clear();
    if (ctx.waiting.empty())
        return;

    root_.beginRound(ctx);
    for (std::size_t i = 0; i < ctx.waiting.size(); ++i)
        root_.route(ctx.waiting[i].cls.tenant).enqueue(i);

    admission().beginAdmissionRound(ctx);
    std::size_t index = 0;
    while (SchedNode *leaf = root_.peek(ctx.now, /*force=*/false,
                                        index)) {
        if (!admission().tryAdmit(ctx.waiting[index]))
            break;
        commitAdmit(ctx, index, *leaf, out);
    }

    if (out.admit.empty() && ctx.running.empty()) {
        // Idle backstop, as on the flat path — but through the
        // tree (force ignores rate gates) so the tree's accounting
        // still sees the admit.
        SchedNode *leaf = root_.peek(ctx.now, /*force=*/true, index);
        LIGHTLLM_ASSERT(leaf != nullptr,
                        "tree lost the queue's requests");
        commitAdmit(ctx, index, *leaf, out);
    }
}

void
TreeSchedulingPolicy::victimOrder(const SchedulerContext &ctx,
                                  VictimOrder tie_break,
                                  std::vector<RequestId> &out)
{
    // Flat ranking first: within a tenant, victims keep the queue
    // policy's order (and its tie-break bit-exactness).
    SchedulingPolicy::victimOrder(ctx, tie_break, out);

    // Weight-normalised resident KV per tenant; the most
    // over-share tenant loses requests first.
    std::unordered_map<base::TenantId, double> normalized;
    std::unordered_map<RequestId, base::TenantId> tenantOfId;
    for (const RunningView &view : ctx.running) {
        const auto resident = static_cast<double>(
            view.promptLen + view.generatedLen);
        normalized[view.cls.tenant] +=
            resident / tenantWeight(view.cls.tenant);
        tenantOfId.emplace(view.id, view.cls.tenant);
    }
    std::stable_sort(
        out.begin(), out.end(),
        [&](RequestId a, RequestId b) {
            return normalized[tenantOfId[a]] >
                normalized[tenantOfId[b]];
        });
}

void
TreeSchedulingPolicy::onRequestFinished(RequestId id,
                                        TokenCount output_len)
{
    SchedulingPolicy::onRequestFinished(id, output_len);
    auto it = leafOf_.find(id);
    if (it == leafOf_.end())
        return;
    it->second->finish(id, output_len);
    leafOf_.erase(it);
}

std::string
TreeSchedulingPolicy::name() const
{
    return SchedulingPolicy::name() + "+tenant-tree";
}

} // namespace core
} // namespace lightllm
