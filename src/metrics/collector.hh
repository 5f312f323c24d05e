/**
 * @file
 * Streaming metrics collection during a serving run.
 *
 * The engine reports iteration-level and request-level events; the
 * collector maintains duration-weighted aggregates and assembles the
 * final RunReport.
 */

#ifndef LIGHTLLM_METRICS_COLLECTOR_HH
#define LIGHTLLM_METRICS_COLLECTOR_HH

#include <array>
#include <cstdint>

#include "base/types.hh"
#include "metrics/report.hh"

namespace lightllm {
namespace metrics {

/**
 * Aggregates engine events into a RunReport.
 *
 * Threading contract under sharded co-simulation (DESIGN.md §9):
 * each collector belongs to exactly one engine, and an engine is
 * stepped only by the shard thread that owns it, so collection
 * needs no synchronization. The coordinator calls finish() and
 * feeds each result to a ReportMerger only after the final window
 * barrier, when every shard thread has quiesced; it adds instances
 * in index order, so the merged report is independent of shard
 * count.
 */
class MetricsCollector
{
  public:
    /** @param capacity_tokens KV token capacity (ratio denominator). */
    explicit MetricsCollector(TokenCount capacity_tokens);

    /**
     * One decode iteration completed.
     *
     * The record is buffered and folded in batches of kStepBatch
     * (hot path: a handful of stores, no floating-point work); the
     * fold replays the records in order with the exact arithmetic
     * the unbatched path used, so aggregates are bit-identical at
     * every finish() point.
     *
     * @param batch_size Requests decoded this step.
     * @param used_tokens KV tokens allocated during the step.
     * @param true_future_tokens Exact future required memory of the
     *        running batch (computed with ground-truth lengths).
     * @param predicted_future_tokens The scheduler's read-only
     *        future-memory estimate for the same batch (prediction
     *        audit; pass used/true when no predictor exists).
     * @param duration Step duration in ticks.
     */
    void onDecodeStep(std::int64_t batch_size, TokenCount used_tokens,
                      TokenCount true_future_tokens,
                      TokenCount predicted_future_tokens, Tick duration);

    /** One prefill iteration (or split-fuse chunk) completed. */
    void onPrefill(TokenCount prompt_tokens);

    /** A request was evicted from the running batch. */
    void onEviction(bool first_eviction_of_request);

    /** A KV swap transfer (either direction) of `tokens` slots. */
    void onSwap(TokenCount tokens);

    /**
     * A prefix-cache lookup at admission: `prompt_tokens` were
     * needed, `hit_tokens` of them were served from cached blocks
     * (only cache-participating requests report).
     */
    void onPrefixLookup(TokenCount prompt_tokens,
                        TokenCount hit_tokens);

    /** A request finished; `record` must be fully populated. */
    void onRequestFinished(const RequestRecord &record);

    /**
     * Discard everything observed so far and start measuring from
     * `now` (end-of-warmup boundary for steady-state measurement).
     */
    void resetMeasurement(Tick now);

    /** Finalize into a report; `makespan` is the end-of-run tick.
     *  Folds any buffered step records first. */
    RunReport finish(std::string scheduler_name, Tick makespan);

  private:
    /** Records pre-reserved at construction (collection touches the
     *  allocator only when a run outgrows this slab). */
    static constexpr std::size_t kRecordSlabReserve = 1024;

    /** Decode-step records folded per flush. */
    static constexpr std::size_t kStepBatch = 64;

    /** One buffered onDecodeStep call (POD, stored by value). */
    struct StepRecord
    {
        std::int64_t batchSize;
        TokenCount usedTokens;
        TokenCount trueFutureTokens;
        TokenCount predictedFutureTokens;
        Tick duration;
    };

    /** Fresh state over `slab`, a cleared record vector whose
     *  capacity is kept (resetMeasurement's slab hand-over). */
    MetricsCollector(TokenCount capacity_tokens,
                     std::vector<RequestRecord> slab);

    /** Fold buffered step records into the aggregates (in record
     *  order, with the unbatched path's exact arithmetic). */
    void flushSteps();

    TokenCount capacity_;
    Tick measureStart_ = 0;

    std::int64_t decodeSteps_ = 0;
    std::int64_t prefillIterations_ = 0;
    std::int64_t evictionEvents_ = 0;
    std::size_t requestsEvicted_ = 0;
    std::int64_t swapEvents_ = 0;
    TokenCount swappedTokens_ = 0;
    TokenCount totalOutputTokens_ = 0;
    TokenCount totalPrefillTokens_ = 0;
    std::int64_t prefixLookups_ = 0;
    TokenCount prefixPromptTokens_ = 0;
    TokenCount prefixHitTokens_ = 0;

    double consumedWeighted_ = 0.0;
    double futureWeighted_ = 0.0;
    double batchWeighted_ = 0.0;
    double decodeDuration_ = 0.0;

    // Prediction audit (folded with the step batches).
    std::int64_t predictedEvictionSteps_ = 0;
    double futureErrorAbsSum_ = 0.0;
    std::array<std::int64_t, RunReport::kFutureErrorBins>
        futureErrorHistogram_{};

    std::array<StepRecord, kStepBatch> stepBuffer_{};
    std::size_t stepsBuffered_ = 0;

    std::vector<RequestRecord> requests_;
};

} // namespace metrics
} // namespace lightllm

#endif // LIGHTLLM_METRICS_COLLECTOR_HH
