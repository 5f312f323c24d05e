/**
 * @file
 * The Past-Future scheduler (Algorithm 1) — the paper's contribution.
 *
 * Past: maintain the output-length distribution P(l) of the last
 * `windowSize` finished requests (Eq. 1). Future: before admitting a
 * queued request, predict every request's final output length, then
 * compute the batch's future required memory M* (Eqs. 2-4) and admit
 * only when M* fits within capacity minus a reserved margin that
 * absorbs prediction error from distribution drift.
 *
 * Prediction draws from P(l) for queued requests and from the
 * conditional tail P(l | l > l_t) for requests that have already
 * generated l_t tokens, so predictions always stay ahead of what has
 * actually been generated (§3.2). The diversity of the sampled
 * predictions is what lets Eq. 3 model staggered completions —
 * identical point predictions would degenerate M* into "everyone
 * finishes at once".
 */

#ifndef LIGHTLLM_CORE_PAST_FUTURE_SCHEDULER_HH
#define LIGHTLLM_CORE_PAST_FUTURE_SCHEDULER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "core/future_memory.hh"
#include "core/length_predictor.hh"
#include "core/scheduler.hh"

namespace lightllm {
namespace core {

/**
 * How request output lengths are predicted from P(l).
 *
 * StickySample (default) implements Algorithm 1's per-step tail
 * update by inverse-CDF coupling: each request freezes a uniform
 * variate u at first sight, and its prediction at any step is the
 * u-quantile of the *current* conditional tail P(l | l > l_t). With
 * u uniform this has exactly the per-step re-sampling law the paper
 * specifies (so Eq. 3 sees a properly staggered batch), yet the
 * prediction evolves deterministically and monotonically as l_t
 * grows — eliminating two biases of literal re-sampling at scale:
 * the admission lottery (a queued candidate re-rolling every step is
 * admitted on its most under-estimating draw) and the survivor bias
 * of freezing raw lengths (a request that outlives an old draw keeps
 * a prediction from a stale, smaller tail).
 *
 * PerStepSample is Algorithm 1 verbatim (kept for the ablation
 * bench). The deterministic modes (TailMean / TailQuantile) replace
 * draws with point estimates; they lose the completion stagger and
 * degenerate towards a mean-based conservative scheduler — also
 * ablations.
 */
enum class PredictionMode
{
    StickySample,
    PerStepSample,
    TailMean,
    TailQuantile,
};

/** Tunables of the Past-Future scheduler. */
struct PastFutureParams
{
    /** History window size w of Eq. 1 (the paper uses 1000). */
    std::size_t windowSize = 1000;

    /** Output-length prediction mode (see PredictionMode). */
    PredictionMode predictionMode = PredictionMode::StickySample;

    /** Tail quantile used by PredictionMode::TailQuantile. */
    double tailQuantile = 0.85;

    /** Fraction of capacity held back for prediction error
     *  (Table 1 evaluates 3%, 5%, 10%). */
    double reservedRatio = 0.03;

    /** Cold-start: seed the window with this output length
     *  (normally the service's max_new_tokens; 0 disables). */
    TokenCount seedOutputLen = 0;

    /** Number of seeded entries at cold start. */
    std::size_t seedCount = 32;

    /**
     * Warm-start: pre-populate the window with these observed output
     * lengths (e.g. the previous measurement window of the same
     * service — the adjacent-window similarity of Figure 3 is
     * precisely why this is predictive). Applied after the
     * max_new_tokens seed, so real history takes precedence.
     */
    std::vector<TokenCount> initialHistory;

    /**
     * Admission-check trials (StickySample mode): M* is evaluated
     * over this many sampled batches (trial 0 = the sticky
     * predictions, the rest = fresh redraws of every request from
     * its conditional tail) and the candidate is admitted when
     * mean + riskFactor * stddev of the trial peaks fits. This is a
     * variance-adaptive safety margin: negligible for narrow output
     * distributions, substantial for heavy-tailed ones.
     */
    int admissionTrials = 8;

    /** Standard deviations of estimator spread added to M* before
     *  the admission comparison. */
    double riskFactor = 1.0;

    /** Below this running-batch size sampling is repeated
     *  (PerStepSample mode only — §4's small-batch rule). */
    std::size_t smallBatchSize = 16;

    /** Sampling trials for small batches (max M* across trials;
     *  PerStepSample mode only). */
    int smallBatchTrials = 4;

    /** RNG seed for prediction sampling. */
    std::uint64_t seed = 0x9afeull;
};

/** Past-Future admission policy. */
class PastFutureScheduler : public Scheduler
{
  public:
    explicit PastFutureScheduler(PastFutureParams params = {});

    void beginAdmissionRound(const SchedulerContext &ctx) override;

    bool tryAdmit(const WaitingView &candidate) override;

    void onRequestFinished(RequestId id,
                           TokenCount output_len) override;

    /** Drop the slot's sticky sample (a request that leaves without
     *  finishing would otherwise keep it forever). */
    void onSlotReleased(RequestSlot slot, RequestId id) override;

    /**
     * Read-only twin of predict(): reuses the frozen sticky
     * variate when the request has one, falls back to the
     * conditional tail mean otherwise. Never creates a sample and
     * never draws from the RNG, so tracing and audit can call it
     * freely without steering the run; it only advances the
     * sample's tail-start memo, a cache of a pure function.
     */
    TokenCount peekPrediction(RequestId id,
                              TokenCount generated_len,
                              TokenCount max_new_tokens) override;

    /**
     * peekPrediction with its horizon. Every mode predicts from the
     * conditional tail P(l | l > l_t), which stays the same set
     * while l_t is below the tail's smallest length, and every
     * prediction is at least that length: so H is that length,
     * capped at max_new_tokens (the cap when the tail or the window
     * is empty). A StickySample request without a sample gets
     * l_t + 1: its next predict() creates one.
     */
    PredictionPeek peekWithHorizon(RequestSlot slot, RequestId id,
                                   TokenCount generated_len,
                                   TokenCount max_new_tokens) override;

    /** Predicted future peak of the batch plus predicted footprints
     *  of the queue (cross-instance routing signal). */
    TokenCount estimateLoad(const SchedulerContext &ctx) override;

    std::string name() const override;

    /**
     * Predicted future required memory M* of the current running
     * batch alone (no admissions) — exposed for introspection,
     * tests, and the Fig 1 bench.
     */
    TokenCount estimateFutureMemory(const SchedulerContext &ctx);

    const PastFutureParams &params() const { return params_; }

    /** Live sticky samples (tests: every departed request's sample
     *  must be gone). */
    std::size_t stickySampleCount() const
    {
        return slotOf_.size() + byId_.size();
    }

    /** Observed historical window (for tests / introspection). */
    const HistoryWindow &history() const
    {
        return predictor_.window();
    }

  private:
    /** Draw/look up a prediction for (request, generated, cap). */
    TokenCount predict(RequestSlot slot, RequestId id,
                       TokenCount generated_len,
                       TokenCount max_new_tokens);

    /** predict(), also setting `tail_start` to the conditional-tail
     *  start it drew from, distribution().tailStart(generated_len)
     *  (0 when the window is empty); StickySample mode finds it
     *  through the request's sample cursor. */
    TokenCount predict(RequestSlot slot, RequestId id,
                       TokenCount generated_len,
                       TokenCount max_new_tokens,
                       std::size_t &tail_start);

    /** Fresh conditional-tail draw that bypasses the sticky map
     *  (perturbation trials of the admission check); `tail_start`
     *  is distribution().tailStart(generated_len). */
    TokenCount samplePerturbed(std::size_t tail_start,
                               TokenCount generated_len,
                               TokenCount max_new_tokens);

    /** Trials to use for the given running-batch size. */
    int trialsFor(std::size_t batch_size) const;

    /** One request's StickySample state. */
    struct StickySample
    {
        /** The frozen uniform variate. */
        double u = 0.0;

        /** Memoised conditional-tail start of the last lookup. */
        LengthPredictor::TailCursor tail;
    };

    /** A sample held by a slot. */
    struct SlotSample
    {
        /** The handle the sample belongs to; kInvalidSlot when the
         *  entry is free. */
        RequestSlot owner = kInvalidSlot;
        RequestId id = kInvalidRequestId;
        StickySample sample;
    };

    /** The request's sample; null when it has none. */
    StickySample *findSample(RequestSlot slot, RequestId id);

    /** The request's sample, drawing a fresh variate when it has
     *  none. */
    StickySample &sampleFor(RequestSlot slot, RequestId id);

    /** Free a slotted sample entry (and its id index). */
    void dropSlotSample(SlotSample &entry);

    PastFutureParams params_;

    /** The "past" half: window + cached distribution. */
    LengthPredictor predictor_;

    Rng rng_;

    /**
     * Frozen per-request samples (StickySample mode), indexed by
     * the engine's request slot: a prediction on the step path
     * resolves its sample without hashing.
     */
    std::vector<SlotSample> bySlot_;

    /** Slot of each live slotted sample, by request id: serves
     *  callers that name a request by id alone (finish, wrappers
     *  forwarding peekPrediction). Touched once per request. */
    std::unordered_map<RequestId, RequestSlot> slotOf_;

    /** Samples of requests predicted without a slot (schedulers
     *  driven outside an engine). */
    std::unordered_map<RequestId, StickySample> byId_;

    // Admission-round state: one entry vector per trial (running
    // batch predictions + incrementally committed candidates), each
    // kept in Eq. 2 order so a candidate costs one merged scan.
    std::vector<std::vector<BatchEntry>> trialEntries_;
    std::vector<BatchEntry> candidateEntries_;
    /** Conditional-tail start of each running request this round
     *  (trial 0 sets it, the perturbation trials draw from it). */
    std::vector<std::size_t> tailStarts_;
    /** estimateFutureMemory scratch (routing/introspection path). */
    std::vector<BatchEntry> loadScratch_;
    std::vector<double> peaks_;
    TokenCount limit_ = 0;
    TokenCount perRequestOverhead_ = 0;
    std::size_t runningSize_ = 0;
    std::size_t admitted_ = 0;
    int trials_ = 1;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_PAST_FUTURE_SCHEDULER_HH
