#include "core/sched_node.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace lightllm {
namespace core {

SchedNode::SchedNode(const SchedNodeConfig &config)
    : SchedNode(config, nullptr, nullptr)
{
}

SchedNode::SchedNode(std::unique_ptr<QueuePolicy> queue)
    : SchedNode(SchedNodeConfig{}, nullptr, std::move(queue))
{
}

SchedNode::SchedNode(const SchedNodeConfig &config, SchedNode *parent,
                     std::unique_ptr<QueuePolicy> queue)
    : name_(config.name), weight_(config.weight), parent_(parent),
      rate_(config.tokensPerSecond),
      burst_(static_cast<double>(config.burstTokens)),
      credit_(static_cast<double>(config.burstTokens))
{
    LIGHTLLM_ASSERT(weight_ > 0.0, "node ", name_,
                    " needs a positive weight");
    LIGHTLLM_ASSERT(rate_ >= 0.0, "node ", name_,
                    " rate must not be negative");
    LIGHTLLM_ASSERT(rate_ == 0.0 || burst_ > 0.0, "node ", name_,
                    " rate gate needs a positive burst");

    SchedNode *root = this;
    while (root->parent_ != nullptr)
        root = root->parent_;
    if (config.children.empty()) {
        queue_ = queue != nullptr ? std::move(queue)
                                  : makeQueuePolicy(config.queue);
        tenants_ = config.tenants;
        root->leaves_.push_back(this);
        if (tenants_.empty() && root->catchAll_ == nullptr)
            root->catchAll_ = this;
        for (base::TenantId tenant : tenants_)
            root->routes_.emplace(tenant, this);
        return;
    }
    LIGHTLLM_ASSERT(config.tenants.empty(), "node ", name_,
                    " has children, so only its leaves serve tenants");
    children_.reserve(config.children.size());
    for (const SchedNodeConfig &child : config.children)
        children_.push_back(
            std::unique_ptr<SchedNode>(
                new SchedNode(child, this, nullptr)));
}

const QueuePolicy &
SchedNode::queue() const
{
    LIGHTLLM_ASSERT(isLeaf(), "queue() on inner node ", name_);
    return *queue_;
}

SchedNode &
SchedNode::route(base::TenantId tenant) const
{
    LIGHTLLM_ASSERT(!leaves_.empty(), "route() on non-root ", name_);
    auto it = routes_.find(tenant);
    if (it != routes_.end())
        return *it->second;
    if (catchAll_ != nullptr)
        return *catchAll_;
    return *leaves_[tenant % leaves_.size()];
}

void
SchedNode::beginRound(const SchedulerContext &ctx)
{
    ctx_ = &ctx;
    for (auto &child : children_)
        child->beginRound(ctx);
    pending_.clear();
    cursor_ = 0;
    sealed_ = false;
}

void
SchedNode::enqueue(std::size_t index)
{
    LIGHTLLM_ASSERT(isLeaf() && !sealed_, "node ", name_,
                    " enqueued while not an open leaf");
    pending_.push_back(index);
}

SchedNode *
SchedNode::peek(Tick now, bool force, std::size_t &index)
{
    SchedNode *leaf =
        isLeaf() ? peekQueue(index) : peekChildren(now, force, index);
    if (leaf == nullptr || rate_ == 0.0)
        return leaf;
    // Refill only once the subtree has a candidate. The candidate
    // is eligible only when the bucket covers its prefill
    // footprint, so tokens dequeued in any window of length W
    // never exceed burst + rate*W.
    refill(now);
    const WaitingView &view = ctx_->waiting[index];
    if (!force &&
        credit_ < static_cast<double>(view.promptLen + view.generatedLen))
        return nullptr;
    return leaf;
}

SchedNode *
SchedNode::peekQueue(std::size_t &index)
{
    if (!sealed_) {
        queue_->order(*ctx_, pending_);
        sealed_ = true;
    }
    if (cursor_ >= pending_.size())
        return nullptr;
    index = pending_[cursor_];
    return this;
}

SchedNode *
SchedNode::peekChildren(Tick now, bool force, std::size_t &index)
{
    double min_runnable = std::numeric_limits<double>::infinity();
    SchedNode *chosen = nullptr;
    SchedNode *chosen_leaf = nullptr;
    for (auto &child : children_) {
        std::size_t candidate = 0;
        SchedNode *leaf = child->peek(now, force, candidate);
        if (leaf == nullptr) {
            child->wasRunnable_ = false;
            continue;
        }
        if (!child->wasRunnable_) {
            child->vruntime_ = std::max(child->vruntime_, floor_);
            child->wasRunnable_ = true;
        }
        min_runnable = std::min(min_runnable, child->vruntime_);
        if (chosen == nullptr || child->vruntime_ < chosen->vruntime_) {
            chosen = child.get();
            chosen_leaf = leaf;
            index = candidate;
        }
    }
    if (chosen != nullptr)
        floor_ = std::max(floor_, min_runnable);
    return chosen_leaf;
}

void
SchedNode::pop(TokenCount cost)
{
    LIGHTLLM_ASSERT(sealed_ && cursor_ < pending_.size(),
                    "pop without a preceding peek on leaf ", name_);
    ++cursor_;
    charge(cost);
}

void
SchedNode::charge(TokenCount tokens)
{
    const auto cost = static_cast<double>(tokens);
    for (SchedNode *node = this; node != nullptr; node = node->parent_) {
        node->vruntime_ += cost / node->weight_;
        if (node->rate_ != 0.0)
            node->credit_ -= cost;
    }
}

void
SchedNode::finish(RequestId id, TokenCount output_len)
{
    charge(output_len);
    queue_->onRequestFinished(id, output_len);
}

void
SchedNode::refill(Tick now)
{
    if (now > lastRefill_) {
        credit_ = std::min(
            burst_, credit_ + rate_ * ticksToSeconds(now - lastRefill_));
    }
    lastRefill_ = std::max(lastRefill_, now);
}

SchedNodeConfig
tenantFairTree(const TenantTreeSpec &spec,
               const QueuePolicyConfig &queue)
{
    const std::size_t tenants =
        std::max(spec.numTenants, spec.weights.size());
    LIGHTLLM_ASSERT(tenants >= 1, "tenant tree needs >= 1 tenant");

    SchedNodeConfig root;
    root.name = "tenants";
    root.children.resize(tenants);
    for (std::size_t t = 0; t < tenants; ++t) {
        SchedNodeConfig &leaf = root.children[t];
        leaf.name = "tenant-" + std::to_string(t);
        leaf.weight = t < spec.weights.size() ? spec.weights[t] : 1.0;
        leaf.tokensPerSecond = spec.tokensPerSecond;
        leaf.burstTokens = spec.burstTokens > 0
            ? spec.burstTokens
            : static_cast<TokenCount>(std::ceil(spec.tokensPerSecond));
        leaf.queue = queue;
        leaf.tenants = {static_cast<base::TenantId>(t)};
    }
    return root;
}

} // namespace core
} // namespace lightllm
