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
#include <vector>

#include "base/flat_id_table.hh"
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

/** Tail quantile used by PredictionMode::TailQuantile. */
inline constexpr double kTailQuantile = 0.85;

/** Sampling trials for small batches (max M* across trials;
 *  PerStepSample mode only). */
inline constexpr int kSmallBatchTrials = 4;

/** Tunables of the Past-Future scheduler. */
struct PastFutureParams
{
    /** History window size w of Eq. 1. */
    std::size_t windowSize = kPaperWindowSize;

    /** Output-length prediction mode (see PredictionMode). */
    PredictionMode predictionMode = PredictionMode::StickySample;

    /** Fraction of capacity held back for prediction error
     *  (Table 1 evaluates 3%, 5%, 10%). */
    double reservedRatio = 0.03;

    /** Cold-start: seed the window with kColdStartSeedCount
     *  entries of this output length (normally the service's
     *  max_new_tokens; 0 disables). */
    TokenCount seedOutputLen = 0;

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
     *
     * A round builds the trial batches only when it must: every
     * trial peak lies in [L, L + R], where L is the batch's resident
     * tokens and R its growth were every request to run to the
     * longest length its tail allows, so a candidate for which
     * L + R + riskFactor * R / 2 fits is admitted without scoring
     * any trial. The redraws are recorded as raw generator outputs
     * and replayed when a candidate first needs the exact test, so
     * decisions and the generator stream are those of building
     * every trial at round open (DESIGN.md §2, "Past-Future
     * admission").
     */
    int admissionTrials = 8;

    /** Standard deviations of estimator spread added to M* before
     *  the admission comparison. */
    double riskFactor = 1.0;

    /** Below this running-batch size sampling is repeated
     *  (PerStepSample mode only — §4's small-batch rule). */
    std::size_t smallBatchSize = 16;

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

    /** Predicted future required memory M* of the running batch
     *  (no admissions) plus the predicted footprints of the queue
     *  (cross-instance routing signal). */
    TokenCount estimateLoad(const SchedulerContext &ctx) override;

    std::string name() const override;

    /** tryAdmit calls the window bound admitted without building
     *  or scoring a trial batch, since construction (tests pin that
     *  light rounds take the bound and tight ones do not). */
    std::uint64_t boundAdmissions() const { return boundAdmissions_; }

    /** The prediction generator (tests: a copy's next draws pin the
     *  stream without advancing it). */
    const Rng &rng() const { return rng_; }

    /** Live sticky samples (tests: every departed request's sample
     *  must be gone). */
    std::size_t stickySampleCount() const { return slotOf_.size(); }

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

    /** A perturbation trial's prediction: the conditional tail at
     *  `tail_start` picked by the raw draw `draw` (ignored when the
     *  tail is empty), clamped as predict() clamps. */
    TokenCount perturbed(std::size_t tail_start, std::uint64_t draw,
                         TokenCount generated_len,
                         TokenCount max_new_tokens);

    /** Largest remaining length any trial can predict for a request
     *  that has generated `generated_len` tokens (the R term of the
     *  window bound). */
    TokenCount maxRemaining(TokenCount generated_len,
                            TokenCount max_new_tokens) const;

    /** True when the window bound proves that a batch with L =
     *  `resident` and R = `growth` passes the exact test. */
    bool boundFits(TokenCount resident, TokenCount growth,
                   TokenCount overhead) const;

    /** Build and sort every trial batch from the recorded round
     *  state and insert the bound-admitted candidates; the round
     *  is exact from then on. */
    void materialise();

    /** Trials to use for the given running-batch size. */
    int trialsFor(std::size_t batch_size) const;

    /** True when predict() would draw for this request: a
     *  StickySample request without a sample, or a PerStepSample
     *  one with a non-empty tail. */
    bool predictDraws(RequestSlot slot, TokenCount generated_len);

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
     *  none; the request must have a slot. */
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

    /** Slot of each live sample, by request id: serves callers
     *  that name a request by id alone (finish, wrappers forwarding
     *  peekPrediction). Touched once per request. */
    FlatIdTable<RequestSlot> slotOf_;

    /** Trial-0 prediction of a member not predicted yet. */
    static constexpr TokenCount kDeferred = -1;

    /** One request of the round whose trial entries are not built
     *  yet: a running member, or a candidate the window bound
     *  admitted. */
    struct PendingEntry
    {
        RequestSlot slot = kInvalidSlot;
        RequestId id = kInvalidRequestId;

        /** Prompt tokens its trial entries charge: l_p net of the
         *  shared prefix for a member; the whole recompute
         *  footprint l_p + l_t net of it for a candidate, whose
         *  entries count generation from zero. */
        TokenCount promptLen = 0;

        TokenCount generatedLen = 0;
        TokenCount maxNewTokens = 0;

        /** Trial-0 prediction, or kDeferred (a member whose
         *  prediction draws nothing waits for materialise()). */
        TokenCount predicted = kDeferred;

        /** Conditional-tail start (valid once predicted). */
        std::size_t tailStart = 0;

        /** A candidate's first raw draw in draws_ (its draws are
         *  consecutive); unused for members, whose draws are
         *  trial-major. */
        std::size_t firstDraw = 0;
    };

    /** A candidate's trial entry for output prediction `predicted`
     *  (resident footprint, generation counted from zero). */
    static BatchEntry
    candidateEntry(const PendingEntry &pending, TokenCount predicted)
    {
        return BatchEntry{pending.promptLen, 0,
                          predicted - pending.generatedLen};
    }

    // Admission-round state. Until a candidate needs the exact test
    // the round keeps only the window bound's sums, its members and
    // the raw perturbation draws; materialise() then builds one
    // entry vector per trial (running batch predictions +
    // incrementally committed candidates), each kept in Eq. 2 order
    // so a candidate costs one merged scan.
    std::vector<PendingEntry> members_;
    std::vector<PendingEntry> boundAdmitted_;
    /** Raw perturbation draws in generator order: the members'
     *  trial-major at round open, then each candidate's. */
    std::vector<std::uint64_t> draws_;
    /** Window bound sums L (resident) and R (growth) over the
     *  members and the bound-admitted candidates. */
    TokenCount boundResident_ = 0;
    TokenCount boundGrowth_ = 0;
    /** Longest length in the window this round (0 when empty). */
    TokenCount longest_ = 0;
    /** Window version the round opened under. */
    std::uint64_t roundVersion_ = 0;
    bool materialised_ = false;
    std::size_t roundSize_ = 0;
    std::uint64_t boundAdmissions_ = 0;
    std::vector<std::vector<BatchEntry>> trialEntries_;
    std::vector<BatchEntry> candidateEntries_;
    /** estimateLoad scratch (routing path). */
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
