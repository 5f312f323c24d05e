/**
 * @file
 * Settings-driven scheduler-node tree over the waiting queue — the
 * ordering stage of the one scheduling pipeline (SchedulingPolicy).
 *
 * The tree composes queue orderings hierarchically, the mechanism
 * ClickHouse uses for workload isolation (UnifiedSchedulerNode
 * configured by SchedulingSettings). There is one node type; its
 * settings decide what it does:
 *
 *  - shape: a node without children is a leaf that wraps a
 *    QueuePolicy, so fcfs / predicted-sjf / edf still order
 *    requests *within* its tenants. A flat pipeline is a root that
 *    is itself such a leaf. A node with children picks among them
 *    by weighted fair queueing over vruntime — each pop charges the
 *    served child cost / weight, and the runnable child with the
 *    smallest virtual time runs next, so long-run service shares
 *    converge to the weights under saturation;
 *  - rate: a node with tokensPerSecond > 0 gates its own subtree
 *    with a token bucket over the sim clock (credit accrues at the
 *    rate up to burstTokens; a candidate is eligible only when
 *    credit covers its cost, and decode usage is post-paid through
 *    charge(), driving credit negative).
 *
 * A round is: beginRound(ctx), enqueue each waiting index into its
 * leaf (route().enqueue(), or the root leaf directly), then
 * alternate peek / pop until the admission policy rejects. A leaf
 * orders its own list of ctx.waiting indices in place on its first
 * peek. Every charge — the pop of a candidate,
 * and the decode output when it finishes — walks from the leaf
 * that served the request up through its parents to the root.
 */

#ifndef LIGHTLLM_CORE_SCHED_NODE_HH
#define LIGHTLLM_CORE_SCHED_NODE_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/request_class.hh"
#include "base/types.hh"
#include "core/queue_policy.hh"
#include "core/scheduler.hh"

namespace lightllm {
namespace core {

/** Declarative description of one node (and its subtree). */
struct SchedNodeConfig
{
    /** Report / debug label. */
    std::string name = "node";

    /** Service share under the parent (> 0). */
    double weight = 1.0;

    /** Token-rate gate over the subtree (tokens/sec; 0 = none). */
    double tokensPerSecond = 0.0;

    /** Bucket capacity (burst credit), tokens; must be > 0 when
     *  the node has a rate. */
    TokenCount burstTokens = 0;

    /** Leaf: the in-tenant ordering. */
    QueuePolicyConfig queue;

    /** Leaf: tenants routed to this leaf. Empty = catch-all. */
    std::vector<base::TenantId> tenants;

    /** Subtrees; none makes the node a leaf. */
    std::vector<SchedNodeConfig> children;
};

/** One node of the scheduler tree (and, built from a config, the
 *  owner of its subtree). */
class SchedNode
{
  public:
    /**
     * Build the tree described by `config`, with this node as the
     * root. Fatal on malformed configs (non-positive weight,
     * negative rate, rate without burst, tenants on a non-leaf).
     */
    explicit SchedNode(const SchedNodeConfig &config);

    /** A one-leaf tree wrapping `queue` (nullptr means FCFS): the
     *  flat pipeline's root. */
    explicit SchedNode(std::unique_ptr<QueuePolicy> queue);

    SchedNode(const SchedNode &) = delete;
    SchedNode &operator=(const SchedNode &) = delete;

    const std::string &name() const { return name_; }
    double weight() const { return weight_; }
    bool isLeaf() const { return children_.empty(); }

    /** Leaf: the in-tenant ordering. */
    const QueuePolicy &queue() const;

    /**
     * The leaf serving `tenant`: the first leaf that lists it, else
     * the first catch-all leaf, else a deterministic spill (tenant
     * mod leaf count) so a misconfigured workload still schedules.
     * Call on the root.
     */
    SchedNode &route(base::TenantId tenant) const;

    /** Reset per-round state down the subtree. The context stays
     *  alive for the whole round. */
    void beginRound(const SchedulerContext &ctx);

    /** Leaf: queue one ctx.waiting index for the current round. */
    void enqueue(std::size_t index);

    /**
     * Report the next candidate of the subtree as an index into
     * the round's ctx.waiting.
     *
     * @param force Ignore rate gates — the idle force-admit
     *        backstop, which must always find a candidate when any
     *        leaf is non-empty.
     * @return The leaf holding the candidate; null when the subtree
     *         is empty or gated.
     */
    SchedNode *peek(Tick now, bool force, std::size_t &index);

    /**
     * Leaf: pop the candidate the immediately preceding peek()
     * reported, charging `cost` tokens (its prefill footprint).
     */
    void pop(TokenCount cost);

    /**
     * Charge `tokens` of service to this node and every ancestor:
     * each advances its vruntime by tokens / weight, and each rate
     * gate spends the tokens from its bucket (credit may go
     * negative).
     */
    void charge(TokenCount tokens);

    /** Leaf: a request it served finished with `output_len`
     *  tokens. Post-pays the decode through charge() and feeds the
     *  queue policy (SJF predictors). */
    void finish(RequestId id, TokenCount output_len);

  private:
    SchedNode(const SchedNodeConfig &config, SchedNode *parent,
              std::unique_ptr<QueuePolicy> queue);

    /** Leaf: the next candidate of the queue, which the first
     *  peek of a round orders in place. */
    SchedNode *peekQueue(std::size_t &index);

    /** Inner: the next candidate of the child with the smallest
     *  vruntime. */
    SchedNode *peekChildren(Tick now, bool force, std::size_t &index);

    /** Accrue bucket credit up to `now`. */
    void refill(Tick now);

    std::string name_;
    double weight_;
    SchedNode *parent_;
    const SchedulerContext *ctx_ = nullptr;

    /** Fair share under the parent. A child that was idle
     *  re-enters at the parent's ratcheted floor so it cannot
     *  spend credit hoarded while idle (CFS-style min_vruntime). */
    double vruntime_ = 0.0;
    bool wasRunnable_ = false;

    /** Inner: subtrees and the vruntime floor over them. */
    std::vector<std::unique_ptr<SchedNode>> children_;
    double floor_ = 0.0;

    /** Rate gate (rate_ == 0: none). */
    double rate_;
    double burst_;
    double credit_;
    Tick lastRefill_ = 0;

    /** Leaf: the ordering and this round's queue (ctx.waiting
     *  indices, ordered in place once sealed). */
    std::unique_ptr<QueuePolicy> queue_;
    std::vector<base::TenantId> tenants_;
    std::vector<std::size_t> pending_;
    std::size_t cursor_ = 0;
    bool sealed_ = false;

    /** Root: the routing table route() reads. */
    std::unordered_map<base::TenantId, SchedNode *> routes_;
    SchedNode *catchAll_ = nullptr;
    std::vector<SchedNode *> leaves_;
};

/** Canonical per-tenant node shape for the fair tenant tree. */
struct TenantTreeSpec
{
    /** Per-tenant fair weights; index = tenant id. Tenants beyond
     *  the vector (or an empty vector) get weight 1.0. */
    std::vector<double> weights;

    /** Number of tenant nodes (>= 1). When weights is larger, its
     *  size wins. */
    std::size_t numTenants = 1;

    /** Per-tenant token-rate budget (0 = no rate gate). */
    double tokensPerSecond = 0.0;

    /** Rate-gate burst credit (defaults to one second of rate,
     *  rounded up to whole tokens). */
    TokenCount burstTokens = 0;
};

/**
 * Fair root over one leaf per tenant, each carrying the tenant's
 * weight, the optional rate gate and the queue ordering. The
 * canonical tree the --tenant-tree CLI path builds.
 */
SchedNodeConfig tenantFairTree(const TenantTreeSpec &spec,
                               const QueuePolicyConfig &queue);

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_SCHED_NODE_HH
