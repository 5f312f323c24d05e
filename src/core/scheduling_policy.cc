#include "core/scheduling_policy.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "base/logging.hh"

namespace lightllm {
namespace core {

SchedulingPolicy::SchedulingPolicy(
    std::unique_ptr<Scheduler> admission,
    std::unique_ptr<QueuePolicy> queue)
    : admission_(std::move(admission)), queues_(1)
{
    LIGHTLLM_ASSERT(admission_ != nullptr,
                    "scheduling policy needs an admission policy");
    queues_.front().policy =
        queue != nullptr ? std::move(queue) : makeQueuePolicy({});
}

SchedulingPolicy::SchedulingPolicy(
    std::unique_ptr<Scheduler> admission, const TenantTreeSpec &spec,
    const QueuePolicyConfig &queue)
    : admission_(std::move(admission)),
      queues_(std::max(spec.numTenants, spec.weights.size())),
      tenantTree_(true)
{
    LIGHTLLM_ASSERT(admission_ != nullptr,
                    "scheduling policy needs an admission policy");
    LIGHTLLM_ASSERT(!queues_.empty(), "tenant tree needs >= 1 tenant");
    const double burst = spec.burstTokens > 0
        ? static_cast<double>(spec.burstTokens)
        : std::ceil(spec.tokensPerSecond);
    for (std::size_t t = 0; t < queues_.size(); ++t) {
        TenantQueue &q = queues_[t];
        q.policy = makeQueuePolicy(queue);
        q.weight = t < spec.weights.size() ? spec.weights[t] : 1.0;
        q.rate = spec.tokensPerSecond;
        q.burst = burst;
        q.credit = burst;
        LIGHTLLM_ASSERT(q.weight > 0.0, "tenant ", t,
                        " needs a positive weight");
        LIGHTLLM_ASSERT(q.rate >= 0.0, "tenant ", t,
                        " rate must not be negative");
        LIGHTLLM_ASSERT(q.rate == 0.0 || q.burst > 0.0, "tenant ", t,
                        " rate gate needs a positive burst");
    }
}

bool
SchedulingPolicy::peekQueue(const SchedulerContext &ctx,
                            TenantQueue &queue, bool force,
                            std::size_t &index)
{
    if (queue.cursor >= queue.pending.size())
        return false;
    index = queue.pending[queue.cursor];
    if (queue.rate == 0.0)
        return true;
    // Refill only once the queue has a candidate. The candidate is
    // eligible only when the bucket covers its prefill footprint,
    // so tokens dequeued in any window of length W never exceed
    // burst + rate*W.
    if (ctx.now > queue.lastRefill) {
        queue.credit = std::min(
            queue.burst,
            queue.credit +
                queue.rate * ticksToSeconds(ctx.now - queue.lastRefill));
    }
    queue.lastRefill = std::max(queue.lastRefill, ctx.now);
    const WaitingView &view = ctx.waiting[index];
    return force ||
        queue.credit >= static_cast<double>(view.promptLen +
                                            view.generatedLen);
}

SchedulingPolicy::TenantQueue *
SchedulingPolicy::peek(const SchedulerContext &ctx, bool force,
                       std::size_t &index)
{
    if (queues_.size() == 1) {
        TenantQueue &only = queues_.front();
        return peekQueue(ctx, only, force, index) ? &only : nullptr;
    }
    double min_runnable = std::numeric_limits<double>::infinity();
    TenantQueue *chosen = nullptr;
    for (TenantQueue &queue : queues_) {
        std::size_t candidate = 0;
        if (!peekQueue(ctx, queue, force, candidate)) {
            queue.wasRunnable = false;
            continue;
        }
        if (!queue.wasRunnable) {
            queue.vruntime = std::max(queue.vruntime, floor_);
            queue.wasRunnable = true;
        }
        min_runnable = std::min(min_runnable, queue.vruntime);
        if (chosen == nullptr || queue.vruntime < chosen->vruntime) {
            chosen = &queue;
            index = candidate;
        }
    }
    if (chosen != nullptr)
        floor_ = std::max(floor_, min_runnable);
    return chosen;
}

void
SchedulingPolicy::charge(TenantQueue &queue, TokenCount tokens)
{
    const auto cost = static_cast<double>(tokens);
    queue.vruntime += cost / queue.weight;
    if (queue.rate != 0.0)
        queue.credit -= cost;
}

void
SchedulingPolicy::admit(const SchedulerContext &ctx,
                        std::size_t index, TenantQueue &queue,
                        SchedulingDecision &out)
{
    const WaitingView &candidate = ctx.waiting[index];
    // The pop charge is the candidate's prefill footprint; decode
    // output is post-paid through onRequestFinished().
    ++queue.cursor;
    charge(queue, candidate.promptLen + candidate.generatedLen);
    if (tenantTree_)
        queueOfId_.insertOrAssign(candidate.id, &queue);
    out.admit.push_back(candidate.id);
}

void
SchedulingPolicy::decideInto(const SchedulerContext &ctx,
                             SchedulingDecision &out)
{
    out.admit.clear();
    if (ctx.waiting.empty())
        return;

    for (TenantQueue &queue : queues_) {
        queue.pending.clear();
        queue.cursor = 0;
    }
    if (queues_.size() == 1) {
        std::vector<std::size_t> &pending = queues_.front().pending;
        for (std::size_t i = 0; i < ctx.waiting.size(); ++i)
            pending.push_back(i);
    } else {
        for (std::size_t i = 0; i < ctx.waiting.size(); ++i)
            queueOf(ctx.waiting[i].cls.tenant).pending.push_back(i);
    }

    admission_->beginAdmissionRound(ctx);
    if (ctx.admitRoom == 0)
        return;
    for (TenantQueue &queue : queues_)
        queue.policy->order(ctx, queue.pending);

    std::size_t index = 0;
    while (out.admit.size() < ctx.admitRoom) {
        TenantQueue *queue = peek(ctx, /*force=*/false, index);
        if (queue == nullptr ||
            !admission_->tryAdmit(ctx.waiting[index]))
            break;
        admit(ctx, index, *queue, out);
    }

    if (out.admit.empty() && ctx.running.empty()) {
        // The system is idle yet the policy refuses the head-of-
        // order request (e.g. conservative with prompt +
        // max_new_tokens beyond capacity). Real frameworks always
        // run at least one request; force progress through the
        // queues (force ignores rate gates) so their accounting
        // sees the admit.
        TenantQueue *queue = peek(ctx, /*force=*/true, index);
        LIGHTLLM_ASSERT(queue != nullptr,
                        "tenant queues lost the waiting requests");
        admit(ctx, index, *queue, out);
    }
}

void
SchedulingPolicy::victimOrder(const SchedulerContext &ctx,
                              VictimOrder tie_break,
                              std::vector<RequestId> &out)
{
    LIGHTLLM_ASSERT(!ctx.running.empty(),
                    "victim ranking over an empty batch");
    if (!tenantTree_) {
        queue().victimOrder(ctx, tie_break, out);
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
            resident / queueOf(view.cls.tenant).weight;
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
    TenantQueue *queue = &queues_.front();
    if (tenantTree_) {
        TenantQueue **admitting = queueOfId_.find(id);
        if (admitting == nullptr)
            return;
        queue = *admitting;
        queueOfId_.erase(id);
    }
    charge(*queue, output_len);
    queue->policy->onRequestFinished(id, output_len);
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
    if (tenantTree_)
        return admission_->name() + "+tenant-tree";
    if (queue().kind() == QueuePolicyKind::Fcfs)
        return admission_->name();
    return admission_->name() + "+" + queue().name();
}

} // namespace core
} // namespace lightllm
