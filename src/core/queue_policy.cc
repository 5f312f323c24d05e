#include "core/queue_policy.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {
namespace core {

namespace {

/** Admission-order comparator behind every victim tie-break. */
bool
admitOrderEvictsBefore(const RunningView &a, const RunningView &b,
                       VictimOrder tie_break)
{
    return tie_break == VictimOrder::NewestFirst
        ? a.admitSeq > b.admitSeq
        : a.admitSeq < b.admitSeq;
}

/**
 * Victim ranking over ctx.running: `before(a, b)` is the strict
 * "evict a before b" relation. Indices are sorted directly inside
 * `out` (RequestId is wide enough to hold any batch index) and then
 * mapped to ids in place, so ranking allocates nothing once `out`
 * has warmed up. Every ranking comparator bottoms out in the unique
 * admitSeq, making the relation a strict total order — plain
 * std::sort therefore yields the same permutation a stable sort
 * would, and out.front() still equals the first-minimal element a
 * linear evictBefore scan would have picked.
 */
template <typename Before>
void
rankVictims(const SchedulerContext &ctx, Before before,
            std::vector<RequestId> &out)
{
    out.resize(ctx.running.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<RequestId>(i);
    std::sort(out.begin(), out.end(),
              [&ctx, &before](RequestId a, RequestId b) {
                  return before(
                      ctx.running[static_cast<std::size_t>(a)],
                      ctx.running[static_cast<std::size_t>(b)]);
              });
    for (RequestId &entry : out)
        entry = ctx.running[static_cast<std::size_t>(entry)].id;
}

} // namespace

void
admissionOrderVictims(const SchedulerContext &ctx,
                      VictimOrder tie_break,
                      std::vector<RequestId> &out)
{
    rankVictims(ctx,
                [tie_break](const RunningView &a,
                            const RunningView &b) {
                    return admitOrderEvictsBefore(a, b, tie_break);
                },
                out);
}

void
QueuePolicy::victimOrder(const SchedulerContext &ctx,
                         VictimOrder tie_break,
                         std::vector<RequestId> &out) const
{
    admissionOrderVictims(ctx, tie_break, out);
}

void
QueuePolicy::onRequestFinished(RequestId, TokenCount)
{
}

namespace {

/** Queue order — Algorithm 1's baseline. */
class FcfsQueuePolicy final : public QueuePolicy
{
  public:
    QueuePolicyKind
    kind() const override
    {
        return QueuePolicyKind::Fcfs;
    }

    void
    order(const SchedulerContext &,
          std::vector<std::size_t> &) override
    {
    }

    std::string
    name() const override
    {
        return "FCFS";
    }
};

/** Shortest predicted remaining output first. */
class PredictedSjfQueuePolicy final : public QueuePolicy
{
  public:
    explicit PredictedSjfQueuePolicy(const QueuePolicyConfig &config)
        : predictor_(config.predictorWindow, config.seedOutputLen)
    {
    }

    QueuePolicyKind
    kind() const override
    {
        return QueuePolicyKind::PredictedSjf;
    }

    void
    order(const SchedulerContext &ctx,
          std::vector<std::size_t> &indices) override
    {
        // Predicted remaining service: the recompute prefill the
        // request still owes (prompt + already-generated tokens)
        // plus its predicted remaining decode E[l | l > l_t] - l_t.
        // The prompt term is what differentiates fresh requests —
        // their conditional tails are identical, so a pure output
        // prediction would collapse into FCFS. Ties keep list
        // order (stable sort). Keys are indexed by waiting index.
        keys_.resize(ctx.waiting.size());
        for (std::size_t i : indices) {
            const WaitingView &candidate = ctx.waiting[i];
            keys_[i] = candidate.promptLen +
                predictor_.expectedOutput(candidate.generatedLen,
                                          candidate.maxNewTokens);
        }
        std::stable_sort(indices.begin(), indices.end(),
                         [this](std::size_t a, std::size_t b) {
                             return keys_[a] < keys_[b];
                         });
    }

    void
    onRequestFinished(RequestId, TokenCount output_len) override
    {
        predictor_.observe(output_len);
    }

    std::string
    name() const override
    {
        return "Predicted-SJF";
    }

  private:
    LengthPredictor predictor_;
    std::vector<TokenCount> keys_;
};

/** Earliest TTFT deadline (arrival + class budget) first. */
class EdfQueuePolicy final : public QueuePolicy
{
  public:
    explicit EdfQueuePolicy(Tick ttft_deadline)
        : ttftDeadline_(ttft_deadline)
    {
        LIGHTLLM_ASSERT(ttft_deadline >= 0,
                        "TTFT deadline must be non-negative");
    }

    QueuePolicyKind
    kind() const override
    {
        return QueuePolicyKind::Edf;
    }

    void
    order(const SchedulerContext &ctx,
          std::vector<std::size_t> &indices) override
    {
        std::stable_sort(
            indices.begin(), indices.end(),
            [&ctx, this](std::size_t a, std::size_t b) {
                return deadline(ctx.waiting[a]) <
                    deadline(ctx.waiting[b]);
            });
    }

    std::string
    name() const override
    {
        return "EDF";
    }

  private:
    /**
     * Deadline = arrival + TTFT budget, the budget halving per
     * priority class (class p gets budget / 2^p) — with one class
     * every request has the same budget and EDF reduces to arrival
     * order, so differentiated SLOs are what give EDF its teeth.
     */
    Tick
    deadline(const WaitingView &view) const
    {
        const int shift =
            std::clamp(view.cls.priority, 0, kMaxBudgetShift);
        return view.arrival + (ttftDeadline_ >> shift);
    }

    static constexpr int kMaxBudgetShift = 20;

    Tick ttftDeadline_;
};

/** Higher priority class first, FCFS within a class. */
class PriorityQueuePolicy final : public QueuePolicy
{
  public:
    QueuePolicyKind
    kind() const override
    {
        return QueuePolicyKind::Priority;
    }

    void
    order(const SchedulerContext &ctx,
          std::vector<std::size_t> &indices) override
    {
        std::stable_sort(indices.begin(), indices.end(),
                         [&ctx](std::size_t a, std::size_t b) {
                             return ctx.waiting[a].cls.priority >
                                 ctx.waiting[b].cls.priority;
                         });
    }

    void
    victimOrder(const SchedulerContext &ctx, VictimOrder tie_break,
                std::vector<RequestId> &out) const override
    {
        // Shield higher classes: evict the lowest priority first,
        // admission order within a class.
        rankVictims(ctx,
                    [tie_break](const RunningView &a,
                                const RunningView &b) {
                        if (a.cls.priority != b.cls.priority)
                            return a.cls.priority < b.cls.priority;
                        return admitOrderEvictsBefore(a, b,
                                                      tie_break);
                    },
                    out);
    }

    std::string
    name() const override
    {
        return "Priority";
    }
};

} // namespace

std::unique_ptr<QueuePolicy>
makeQueuePolicy(const QueuePolicyConfig &config)
{
    switch (config.kind) {
      case QueuePolicyKind::Fcfs:
        return std::make_unique<FcfsQueuePolicy>();
      case QueuePolicyKind::PredictedSjf:
        return std::make_unique<PredictedSjfQueuePolicy>(config);
      case QueuePolicyKind::Edf:
        return std::make_unique<EdfQueuePolicy>(config.ttftDeadline);
      case QueuePolicyKind::Priority:
        return std::make_unique<PriorityQueuePolicy>();
    }
    panic("unknown queue policy kind");
}

} // namespace core
} // namespace lightllm
