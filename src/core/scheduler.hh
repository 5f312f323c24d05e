/**
 * @file
 * Request-scheduler interface for continuous batching.
 *
 * Once per engine iteration the scheduler is shown the running batch
 * and the waiting queue and decides which queued requests fit in
 * memory. The interface is an *incremental admission round*: the
 * caller opens a round over the context, then feasibility-tests
 * candidates one at a time in whatever order the queue policy
 * dictates (see scheduling_policy.hh). Each accepted candidate is
 * committed into the round's running state so later tests see it as
 * admitted. Algorithm 1's FCFS-prefix semantics — walk S_q in order
 * and stop at the first request that does not fit — is the FCFS
 * queue policy's round.
 */

#ifndef LIGHTLLM_CORE_SCHEDULER_HH
#define LIGHTLLM_CORE_SCHEDULER_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>

#include "base/request_class.hh"
#include "base/types.hh"

namespace lightllm {
namespace core {

/** Scheduler's view of one request in the running batch. */
struct RunningView
{
    RequestId id = kInvalidRequestId;

    /** Prompt length l_p. */
    TokenCount promptLen = 0;

    /** Tokens generated so far, l_t. */
    TokenCount generatedLen = 0;

    /** Generation cap for this request. */
    TokenCount maxNewTokens = 0;

    /**
     * Ground-truth output length. Only the oracle ("theoretical
     * optimum") scheduler may read this; real schedulers must not.
     */
    TokenCount trueOutputLen = 0;

    /** Admission-order stamp (monotone; for eviction-victim
     *  policies: largest = most recently admitted). */
    std::uint64_t admitSeq = 0;

    /** Scheduling class (tenant, priority, SLO tier). */
    base::RequestClass cls;

    /** Admitted but still prefilling — holds KV and will generate,
     *  but is not an eligible eviction victim. */
    bool prefilling = false;

    /**
     * Prompt tokens resident in *shared* prefix-cache blocks. They
     * cost no private memory, so memory-exact policies charge
     * promptLen - cachedPrefixLen for this request's resident
     * prompt (0 when prefix caching is off, so the charge is
     * promptLen).
     * After an eviction the shared prefix can also cover generated
     * tokens, so it may exceed promptLen (never promptLen +
     * generatedLen).
     */
    TokenCount cachedPrefixLen = 0;

    /** The engine's handle of this request's state; keys
     *  per-request scheduler state (a Past-Future StickySample
     *  prediction asserts it is set). */
    RequestSlot slot = kInvalidSlot;
};

/** Scheduler's view of one queued request. */
struct WaitingView
{
    RequestId id = kInvalidRequestId;

    /** Prompt length l_p. */
    TokenCount promptLen = 0;

    /**
     * Tokens already generated before an eviction (> 0 only for
     * re-queued requests, whose recompute prefill must cover
     * prompt + generated tokens).
     */
    TokenCount generatedLen = 0;

    /** Generation cap for this request. */
    TokenCount maxNewTokens = 0;

    /** Arrival tick (for age-based policies). */
    Tick arrival = 0;

    /** Ground-truth output length; oracle use only. */
    TokenCount trueOutputLen = 0;

    /** Scheduling class (tenant, priority, SLO tier). */
    base::RequestClass cls;

    /**
     * Prompt tokens the prefix cache would cover if this request
     * were admitted now — an estimate, like the output-length
     * predictions: concurrent prefills can warm the cache further,
     * and a reclaim triggered by an earlier admission in the same
     * round can cool it. Admission charges only the uncached
     * suffix, promptLen + generatedLen - cachedPrefixLen; the
     * engine's allocation remains the safety backstop when the
     * actual match is smaller.
     */
    TokenCount cachedPrefixLen = 0;

    /** The engine's handle of this request's state; keys
     *  per-request scheduler state (a Past-Future StickySample
     *  prediction asserts it is set). */
    RequestSlot slot = kInvalidSlot;
};

/** A prediction peek and how long it holds. */
struct PredictionPeek
{
    /** peekPrediction at the peeked generated length. */
    TokenCount predicted = 0;

    /**
     * Horizon H (> the peeked generated length l_t): until the
     * scheduler next observes a finished request, a peek at any
     * length in (l_t, H) the request grows to returns `predicted`.
     * A request that has not grown is peeked afresh. `predicted`
     * must be at least H - 1, so max(predicted, length) holds too
     * (the engine's decode runs rely on it and assert it).
     */
    TokenCount horizon = 0;
};

/**
 * The peek of a scheduler without a predictor: the default
 * peekPrediction, max(l_t, cap), which holds until the request
 * reaches its cap, so H = max(l_t + 1, cap).
 */
PredictionPeek capPeek(TokenCount generated_len,
                       TokenCount max_new_tokens);

/** Everything a scheduler may inspect when deciding admissions. */
struct SchedulerContext
{
    /** Current simulation tick. */
    Tick now = 0;

    /** Total KV token capacity of the system. */
    TokenCount capacityTokens = 0;

    /** KV token slots currently allocated. */
    TokenCount usedTokens = 0;

    /**
     * Worst-case token overhead per resident request beyond its
     * logical footprint (paged-allocator block rounding plus the
     * slot the admission prefill emits into). Memory-exact policies
     * must budget `overhead * batch_size` on top of Eq. 4's M*.
     */
    TokenCount perRequestOverhead = 0;

    /**
     * Admissions this round may make at most (the engine's batch
     * cap less its active requests); the pipeline stops popping
     * candidates there, so none past the room is scored or charged.
     */
    std::size_t admitRoom = std::numeric_limits<std::size_t>::max();

    /** Running batch, arbitrary order. */
    std::span<const RunningView> running;

    /** Waiting queue, front (next to admit) first. */
    std::span<const WaitingView> waiting;
};

/**
 * Abstract memory-feasibility (admission) policy.
 *
 * Implementations are stateful within one admission round: an
 * accepted candidate raises the committed footprint that subsequent
 * candidates are tested against. Rounds must be deterministic given
 * the construction-time seed and the order of tryAdmit calls.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Open an admission round over `ctx`: reset incremental state
     * and charge the running batch's (predicted) footprint.
     */
    virtual void beginAdmissionRound(const SchedulerContext &ctx) = 0;

    /**
     * Feasibility-test `candidate` against the round's committed
     * state; on success the candidate is committed as admitted.
     * `candidate` must refer to an entry of the round's
     * ctx.waiting.
     */
    virtual bool tryAdmit(const WaitingView &candidate) = 0;

    /**
     * Notification that request `id` finished with `output_len`
     * generated tokens (feeds the historical distribution).
     */
    virtual void onRequestFinished(RequestId id,
                                   TokenCount output_len);

    /** Notification that a request was evicted from the batch. */
    virtual void onRequestEvicted(RequestId id);

    /**
     * Notification that the engine recycled `slot`: request `id`
     * left it (finished, drained, stolen or handed off), so any
     * per-request state keyed by the slot must go. The default does
     * nothing.
     */
    virtual void onSlotReleased(RequestSlot slot, RequestId id);

    /**
     * Read-only estimate of request `id`'s final output length —
     * the introspection twin of the internal prediction, for
     * callers that name a request by id alone; the default
     * peekWithHorizon, which the flight recorder and the prediction
     * audit call, answers with it.
     * Implementations MUST NOT mutate observable scheduler state
     * (no RNG draws, no per-request bookkeeping), so calling this
     * any number of times leaves a run bit-identical to one that
     * never called it. Memoising a pure function of (history
     * window, id, generated_len) is allowed: a cache that returns
     * what recomputation would is not observable. The default
     * returns the generation cap.
     */
    virtual TokenCount peekPrediction(RequestId id,
                                      TokenCount generated_len,
                                      TokenCount max_new_tokens);

    /**
     * peekPrediction for the request in `slot`, plus the horizon
     * the value holds to (see PredictionPeek). A caller re-peeks a
     * request only when its length reaches the horizon, after
     * onRequestFinished, or at a length it has not grown from; so a
     * scheduler must pick a horizon no other call can cut short (a
     * request whose next predict may create per-request state gets
     * generated_len + 1). The default promises nothing past this
     * length: peekPrediction with H = generated_len + 1.
     */
    virtual PredictionPeek peekWithHorizon(RequestSlot slot,
                                           RequestId id,
                                           TokenCount generated_len,
                                           TokenCount max_new_tokens);

    /**
     * Estimated total memory load of this instance in tokens —
     * the signal the paper's future-work section proposes for
     * routing requests across service instances. The default is the
     * current resident footprint plus the queued prompts; the
     * Past-Future scheduler overrides it with its predicted future
     * peak plus predicted queue footprints.
     */
    virtual TokenCount estimateLoad(const SchedulerContext &ctx);

    /** Human-readable policy name for reports. */
    virtual std::string name() const = 0;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_SCHEDULER_HH
