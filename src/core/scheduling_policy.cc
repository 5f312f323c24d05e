#include "core/scheduling_policy.hh"

#include <algorithm>
#include <unordered_map>

#include "base/logging.hh"

namespace lightllm {
namespace core {

SchedulingPolicy::SchedulingPolicy(
    std::unique_ptr<Scheduler> admission,
    std::unique_ptr<QueuePolicy> queue)
    : admission_(std::move(admission)), root_(std::move(queue))
{
    LIGHTLLM_ASSERT(admission_ != nullptr,
                    "scheduling policy needs an admission policy");
}

SchedulingPolicy::SchedulingPolicy(
    std::unique_ptr<Scheduler> admission,
    const SchedNodeConfig &tree)
    : admission_(std::move(admission)), root_(tree)
{
    LIGHTLLM_ASSERT(admission_ != nullptr,
                    "scheduling policy needs an admission policy");
}

void
SchedulingPolicy::admit(const SchedulerContext &ctx,
                        std::size_t index, SchedNode &leaf,
                        SchedulingDecision &out)
{
    const WaitingView &candidate = ctx.waiting[index];
    // The pop charge is the candidate's prefill footprint; decode
    // output is post-paid through finish().
    leaf.pop(candidate.promptLen + candidate.generatedLen);
    if (!root_.isLeaf())
        leafOf_.insertOrAssign(candidate.id, &leaf);
    out.admit.push_back(candidate.id);
}

void
SchedulingPolicy::decideInto(const SchedulerContext &ctx,
                             SchedulingDecision &out)
{
    out.admit.clear();
    out.evict.clear();
    if (ctx.waiting.empty())
        return;

    root_.beginRound(ctx);
    if (root_.isLeaf()) {
        for (std::size_t i = 0; i < ctx.waiting.size(); ++i)
            root_.enqueue(i);
    } else {
        for (std::size_t i = 0; i < ctx.waiting.size(); ++i)
            root_.route(ctx.waiting[i].cls.tenant).enqueue(i);
    }

    admission_->beginAdmissionRound(ctx);
    std::size_t index = 0;
    while (out.admit.size() < ctx.admitRoom) {
        SchedNode *leaf = root_.peek(ctx.now, /*force=*/false, index);
        if (leaf == nullptr || !admission_->tryAdmit(ctx.waiting[index]))
            break;
        admit(ctx, index, *leaf, out);
    }

    if (out.admit.empty() && ctx.running.empty() && ctx.admitRoom > 0) {
        // The system is idle yet the policy refuses the head-of-
        // order request (e.g. conservative with prompt +
        // max_new_tokens beyond capacity). Real frameworks always
        // run at least one request; force progress through the tree
        // (force ignores rate gates) so its accounting sees the
        // admit.
        SchedNode *leaf = root_.peek(ctx.now, /*force=*/true, index);
        LIGHTLLM_ASSERT(leaf != nullptr,
                        "tree lost the queue's requests");
        admit(ctx, index, *leaf, out);
    }
}

void
SchedulingPolicy::victimOrder(const SchedulerContext &ctx,
                              VictimOrder tie_break,
                              std::vector<RequestId> &out)
{
    LIGHTLLM_ASSERT(!ctx.running.empty(),
                    "victim ranking over an empty batch");
    if (root_.isLeaf()) {
        root_.queue().victimOrder(ctx, tie_break, out);
        LIGHTLLM_ASSERT(out.size() == ctx.running.size(),
                        "victim ranking must cover the whole batch");
        return;
    }

    // Within a tenant, victims rank by admission order.
    admissionOrderVictims(ctx, tie_break, out);

    // Weight-normalised resident KV per tenant; the most
    // over-share tenant loses requests first.
    std::unordered_map<base::TenantId, double> normalized;
    std::unordered_map<RequestId, base::TenantId> tenantOfId;
    for (const RunningView &view : ctx.running) {
        const auto resident = static_cast<double>(
            view.promptLen + view.generatedLen);
        normalized[view.cls.tenant] +=
            resident / root_.route(view.cls.tenant).weight();
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
SchedulingPolicy::onRequestFinished(RequestId id,
                                    TokenCount output_len)
{
    admission_->onRequestFinished(id, output_len);
    if (root_.isLeaf()) {
        root_.finish(id, output_len);
        return;
    }
    SchedNode **leaf = leafOf_.find(id);
    if (leaf == nullptr)
        return;
    (*leaf)->finish(id, output_len);
    leafOf_.erase(id);
}

void
SchedulingPolicy::onRequestEvicted(RequestId id)
{
    admission_->onRequestEvicted(id);
}

TokenCount
SchedulingPolicy::estimateLoad(const SchedulerContext &ctx)
{
    return admission_->estimateLoad(ctx);
}

std::string
SchedulingPolicy::name() const
{
    if (!root_.isLeaf())
        return admission_->name() + "+tenant-tree";
    const QueuePolicy &queue = root_.queue();
    if (queue.kind() == QueuePolicyKind::Fcfs)
        return admission_->name();
    return admission_->name() + "+" + queue.name();
}

} // namespace core
} // namespace lightllm
