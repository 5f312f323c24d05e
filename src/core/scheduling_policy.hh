/**
 * @file
 * The scheduling pipeline: context → tenant queues → admission
 * policy → decision.
 *
 * A SchedulingPolicy composes a table of tenant queues (which order
 * the waiting queue is considered in) with a Scheduler (whether each
 * candidate fits in memory) and produces an explicit
 * SchedulingDecision of admissions. The engine is the executor: it
 * validates and applies the decision.
 *
 * There is one pipeline shape. A flat policy is one queue wrapping
 * one QueuePolicy; a tenant tree is one queue per tenant built from
 * a TenantTreeSpec, each with a fair-share weight, an optional
 * token-rate gate and its own QueuePolicy. Either way a round puts
 * each waiting index into its tenant's queue, each queue orders its
 * index list in place, and admission takes candidates peek →
 * tryAdmit → pop until the first reject. With several queues the
 * runnable queue with the smallest virtual time serves next
 * (weighted fair queueing, DESIGN.md §6).
 *
 * With the FCFS queue policy the flat pipeline emits exactly the
 * FCFS-prefix decisions of a count-based admission walk (same
 * candidates tested in the same order, so even the Past-Future
 * scheduler's RNG consumption is bit-identical); the goldens and
 * the count-path lockstep of test_scheduling_golden, against the
 * reference walk in tests/test_fixtures.hh, pin this. See
 * DESIGN.md §2 for the pipeline walk-through and a worked EDF
 * example.
 */

#ifndef LIGHTLLM_CORE_SCHEDULING_POLICY_HH
#define LIGHTLLM_CORE_SCHEDULING_POLICY_HH

#include <memory>
#include <string>
#include <vector>

#include "base/flat_id_table.hh"
#include "core/queue_policy.hh"
#include "core/scheduler.hh"
#include "core/scheduling_decision.hh"

namespace lightllm {
namespace core {

/** Shape of the per-tenant queue table (`--tenant-tree`). */
struct TenantTreeSpec
{
    /** Per-tenant fair weights; index = tenant id. Tenants beyond
     *  the vector (or an empty vector) get weight 1.0. */
    std::vector<double> weights;

    /** Number of tenant queues (>= 1). When weights is larger, its
     *  size wins. */
    std::size_t numTenants = 1;

    /** Per-tenant token-rate budget (0 = no rate gate). */
    double tokensPerSecond = 0.0;

    /** Rate-gate burst credit (defaults to one second of rate,
     *  rounded up to whole tokens). */
    TokenCount burstTokens = 0;
};

/** Queue ordering + memory feasibility → scheduling decisions. */
class SchedulingPolicy
{
  public:
    /**
     * Flat pipeline: one queue wrapping `queue`.
     *
     * @param admission Memory-feasibility policy (owned).
     * @param queue Queue-ordering policy (owned); nullptr means
     *        FCFS.
     */
    SchedulingPolicy(std::unique_ptr<Scheduler> admission,
                     std::unique_ptr<QueuePolicy> queue = nullptr);

    /**
     * Tenant tree: one queue per tenant of `spec`, each with the
     * tenant's weight, the spec's rate gate and a `queue`
     * ordering. Panics on a non-positive weight, a negative rate or
     * a rate without a positive burst.
     */
    SchedulingPolicy(std::unique_ptr<Scheduler> admission,
                     const TenantTreeSpec &spec,
                     const QueuePolicyConfig &queue);

    virtual ~SchedulingPolicy() = default;

    /**
     * One scheduling round: put the waiting requests into their
     * tenants' queues, then feasibility-test candidates in the
     * order the queues yield them (stopping at the first reject —
     * head-of-line semantics under the chosen order), and emit the
     * admissions. When the system is idle (empty running batch) and
     * nothing fits, the next candidate is force-admitted (rate
     * gates ignored) so the engine always makes progress, as real
     * frameworks do.
     *
     * `out` is reset before filling; callers reuse one decision
     * object across rounds so the hot path allocates nothing once
     * its vectors have warmed up.
     */
    virtual void decideInto(const SchedulerContext &ctx,
                            SchedulingDecision &out);

    /**
     * Reactive eviction: fill `out` with ctx.running (all entries
     * must be evictable, i.e. not prefilling) ranked most-evictable
     * first. The engine evicts from the front until the step fits.
     * A flat policy ranks with its queue policy's victimOrder,
     * whose front is bit-exact with the historical first-minimal
     * scan. A tree ranks by admission order within a tenant
     * (whatever its queues' policies), then moves the tenants
     * most over their weight-normalised share of resident KV to the
     * front.
     */
    virtual void victimOrder(const SchedulerContext &ctx,
                             VictimOrder tie_break,
                             std::vector<RequestId> &out);

    /** Completion feed: admission history, then the queue that
     *  admitted the request (decode charge + SJF predictor). */
    void onRequestFinished(RequestId id, TokenCount output_len);

    /** Eviction notification (forwarded to the admission policy). */
    void onRequestEvicted(RequestId id);

    /** Routing-signal estimate (forwarded, see Scheduler). */
    TokenCount estimateLoad(const SchedulerContext &ctx);

    /** The prediction peek of the audit and the flight recorder
     *  (see Scheduler::peekWithHorizon). */
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

    /** The flat pipeline's queue policy (a tree has one per
     *  tenant). */
    const QueuePolicy &queue() const { return *queues_.front().policy; }

  private:
    /** One tenant's queue: its ordering, fair share and rate gate,
     *  and this round's ctx.waiting indices. */
    struct TenantQueue
    {
        std::unique_ptr<QueuePolicy> policy;
        double weight = 1.0;

        /** Rate gate (rate == 0: none): credit accrues at `rate`
         *  tokens/s up to `burst`; decode is post-paid, so credit
         *  may go negative. */
        double rate = 0.0;
        double burst = 0.0;
        double credit = 0.0;
        Tick lastRefill = 0;

        /** Fair share among the queues. A queue that was idle
         *  re-enters at the ratcheted floor so it cannot spend
         *  credit hoarded while idle (CFS-style min_vruntime). */
        double vruntime = 0.0;
        bool wasRunnable = false;

        std::vector<std::size_t> pending;
        std::size_t cursor = 0;
    };

    /** The queue serving `tenant`: its own, or the spill queue
     *  tenant mod N. */
    TenantQueue &
    queueOf(base::TenantId tenant)
    {
        return queues_[tenant % queues_.size()];
    }

    /**
     * The queue holding the next candidate (its index into
     * ctx.waiting in `index`): the only queue, or the runnable one
     * with the smallest vruntime, lowest index on ties. Null when
     * every queue is empty or gated; `force` ignores rate gates.
     */
    TenantQueue *peek(const SchedulerContext &ctx, bool force,
                      std::size_t &index);

    /** Whether `queue` has a candidate its gate lets through. */
    static bool peekQueue(const SchedulerContext &ctx,
                          TenantQueue &queue, bool force,
                          std::size_t &index);

    /** Charge `tokens` of service to `queue`: vruntime advances by
     *  tokens / weight and a rate gate spends them. */
    static void charge(TenantQueue &queue, TokenCount tokens);

    /** Admit ctx.waiting[index] from `queue`, charging it. */
    void admit(const SchedulerContext &ctx, std::size_t index,
               TenantQueue &queue, SchedulingDecision &out);

    std::unique_ptr<Scheduler> admission_;
    std::vector<TenantQueue> queues_;
    bool tenantTree_ = false;

    /** Ratcheting vruntime floor a waking queue is clamped up to. */
    double floor_ = 0.0;

    /** Tree: the queue that admitted each unfinished request
     *  (finish notifications only carry the request id). */
    FlatIdTable<TenantQueue *> queueOfId_;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_SCHEDULING_POLICY_HH
