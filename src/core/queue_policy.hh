/**
 * @file
 * Pluggable waiting-queue ordering policies.
 *
 * The scheduling pipeline separates *which order the queue is
 * considered in* (this file) from *whether each candidate fits in
 * memory* (the Scheduler admission round). Each tenant queue of
 * the pipeline wraps one policy and hands it the queue's list of
 * ctx.waiting indices to reorder in place. Orderings:
 *
 *  - FCFS: queue order, Algorithm 1's baseline (evicted requests
 *    re-queue at the front and so retain their head position);
 *  - Predicted-SJF: shortest predicted remaining output first,
 *    using the same past-window length distribution that drives
 *    Past-Future admission ("Efficient Interactive LLM Serving with
 *    Proxy Model-based Sequence Length Prediction" argues the win);
 *  - EDF: earliest TTFT deadline (arrival + ttftDeadline) first
 *    ("SLO-Aware Scheduling for Large Language Model Inferences");
 *  - Priority: higher RequestSpec priority class first, FCFS within
 *    a class.
 *
 * A policy may also rank eviction victims (victimOrder); the
 * default reproduces the engine's admission-order LIFO/FIFO scan,
 * and the priority policy shields higher classes from eviction.
 */

#ifndef LIGHTLLM_CORE_QUEUE_POLICY_HH
#define LIGHTLLM_CORE_QUEUE_POLICY_HH

#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "core/length_predictor.hh"
#include "core/scheduler.hh"

namespace lightllm {
namespace core {

/** Which queue ordering to build. */
enum class QueuePolicyKind
{
    Fcfs,
    PredictedSjf,
    Edf,
    Priority,
};

/** Tie-break direction for eviction-victim ranking: the engine's
 *  eviction policy (`--eviction-policy` lifo = NewestFirst, fifo =
 *  OldestFirst). */
enum class VictimOrder
{
    /** Most recently admitted first (vLLM-style recompute). */
    NewestFirst,

    /** Oldest admission first. */
    OldestFirst,
};

/** Declarative queue-policy configuration. */
struct QueuePolicyConfig
{
    QueuePolicyKind kind = QueuePolicyKind::Fcfs;

    /** Predicted-SJF: past-window size of the length predictor. */
    std::size_t predictorWindow = kPaperWindowSize;

    /** Predicted-SJF: cold-start seed length (0 disables), as for
     *  the Past-Future scheduler's window. */
    TokenCount seedOutputLen = 0;

    /** EDF: base TTFT budget; a request's deadline is arrival +
     *  ttftDeadline / 2^priority (higher classes get tighter
     *  deadlines). 0 degenerates to arrival order. */
    Tick ttftDeadline = 0;
};

/** Abstract waiting-queue ordering (and victim-ranking) policy. */
class QueuePolicy
{
  public:
    virtual ~QueuePolicy() = default;

    virtual QueuePolicyKind kind() const = 0;

    /**
     * Reorder `indices` (distinct indices into ctx.waiting, any
     * subset) in place into the order admission should consider
     * them. Stable and deterministic: ties keep their order in
     * `indices`, so ordering a subset equals ordering a copy of
     * just those views and mapping the result back.
     */
    virtual void order(const SchedulerContext &ctx,
                       std::vector<std::size_t> &indices) = 0;

    /**
     * Fill `out` with the ids of ctx.running ranked most-evictable
     * first (callers pass only evictable, i.e. non-prefilling,
     * entries). The default ranks purely by admission order per
     * `tie_break`; the priority policy shields higher classes.
     * Ranking is stable over ctx.running order, so the front
     * element is exactly the victim the historical first-minimal
     * scan selected.
     */
    virtual void victimOrder(const SchedulerContext &ctx,
                             VictimOrder tie_break,
                             std::vector<RequestId> &out) const;

    /** Completion feed (the predicted-SJF past window). */
    virtual void onRequestFinished(RequestId id,
                                   TokenCount output_len);

    /** Human-readable policy name for reports. */
    virtual std::string name() const = 0;
};

/**
 * Fill `out` with the ids of ctx.running ranked purely by admission
 * order per `tie_break` — the default QueuePolicy::victimOrder.
 */
void admissionOrderVictims(const SchedulerContext &ctx,
                           VictimOrder tie_break,
                           std::vector<RequestId> &out);

/** Instantiate the configured queue policy. */
std::unique_ptr<QueuePolicy>
makeQueuePolicy(const QueuePolicyConfig &config);

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_QUEUE_POLICY_HH
