#include "core/past_future_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/str_util.hh"

namespace lightllm {
namespace core {

PastFutureScheduler::PastFutureScheduler(PastFutureParams params)
    : params_(params), predictor_(params.windowSize),
      rng_(params.seed)
{
    LIGHTLLM_ASSERT(params_.reservedRatio >= 0.0 &&
                        params_.reservedRatio < 1.0,
                    "reserved ratio must be in [0, 1)");
    LIGHTLLM_ASSERT(params_.smallBatchTrials >= 1,
                    "need at least one sampling trial");
    LIGHTLLM_ASSERT(params_.tailQuantile > 0.0 &&
                        params_.tailQuantile <= 1.0,
                    "tail quantile must be in (0, 1]");
    LIGHTLLM_ASSERT(params_.riskFactor >= 0.0,
                    "risk factor must be non-negative");
    if (params_.seedOutputLen > 0)
        predictor_.seed(params_.seedOutputLen, params_.seedCount);
    for (TokenCount length : params_.initialHistory)
        predictor_.observe(length);
}

void
PastFutureScheduler::onRequestFinished(RequestId id,
                                       TokenCount output_len)
{
    predictor_.observe(output_len);
    const auto it = slotOf_.find(id);
    if (it != slotOf_.end())
        dropSlotSample(bySlot_[slotIndex(it->second)]);
    byId_.erase(id);
}

void
PastFutureScheduler::onSlotReleased(RequestSlot slot, RequestId)
{
    const std::uint32_t index = slotIndex(slot);
    if (index < bySlot_.size() && bySlot_[index].owner == slot)
        dropSlotSample(bySlot_[index]);
}

void
PastFutureScheduler::dropSlotSample(SlotSample &entry)
{
    const auto it = slotOf_.find(entry.id);
    if (it != slotOf_.end() && it->second == entry.owner)
        slotOf_.erase(it);
    entry.owner = kInvalidSlot;
}

PastFutureScheduler::StickySample *
PastFutureScheduler::findSample(RequestSlot slot, RequestId id)
{
    if (slot == kInvalidSlot) {
        const auto slotted = slotOf_.find(id);
        if (slotted != slotOf_.end())
            slot = slotted->second;
        else {
            const auto it = byId_.find(id);
            return it == byId_.end() ? nullptr : &it->second;
        }
    }
    const std::uint32_t index = slotIndex(slot);
    if (index >= bySlot_.size() || bySlot_[index].owner != slot)
        return nullptr;
    return &bySlot_[index].sample;
}

PastFutureScheduler::StickySample &
PastFutureScheduler::sampleFor(RequestSlot slot, RequestId id)
{
    if (slot == kInvalidSlot) {
        auto [it, inserted] = byId_.try_emplace(id);
        if (inserted)
            it->second.u = rng_.uniformDouble();
        return it->second;
    }
    const std::uint32_t index = slotIndex(slot);
    if (index >= bySlot_.size())
        bySlot_.resize(static_cast<std::size_t>(index) + 1);
    SlotSample &entry = bySlot_[index];
    if (entry.owner != slot) {
        // An earlier generation never released (a wrapper that
        // does not forward onSlotReleased) gives way.
        if (entry.owner != kInvalidSlot)
            dropSlotSample(entry);
        entry.owner = slot;
        entry.id = id;
        entry.sample = StickySample{rng_.uniformDouble(), {}};
        slotOf_.insert_or_assign(id, slot);
    }
    return entry.sample;
}

TokenCount
PastFutureScheduler::predict(RequestSlot slot, RequestId id,
                             TokenCount generated_len,
                             TokenCount max_new_tokens)
{
    std::size_t tail_start = 0;
    return predict(slot, id, generated_len, max_new_tokens, tail_start);
}

TokenCount
PastFutureScheduler::predict(RequestSlot slot, RequestId id,
                             TokenCount generated_len,
                             TokenCount max_new_tokens,
                             std::size_t &tail_start)
{
    const LengthDistribution &distribution =
        predictor_.distribution();
    TokenCount predicted = 0;
    tail_start = 0;
    if (distribution.empty()) {
        predicted = max_new_tokens;
    } else {
        switch (params_.predictionMode) {
          case PredictionMode::StickySample:
          {
            // Quantile coupling: freeze u per request, evaluate the
            // current conditional tail at u. For fresh requests
            // l_t = 0 and the tail is the full distribution P(l).
            // The sample's cursor replaces the tail's binary search
            // while the window is unchanged and l_t only grows.
            StickySample &sample = sampleFor(slot, id);
            tail_start = predictor_.tailStart(sample.tail, generated_len);
            predicted = distribution.sampleTailFrom(sample.u, tail_start,
                                                    max_new_tokens);
            break;
          }
          case PredictionMode::PerStepSample:
            tail_start = distribution.tailStart(generated_len);
            predicted = distribution.sampleTailFrom(rng_, tail_start,
                                                    max_new_tokens);
            break;
          case PredictionMode::TailMean:
            tail_start = distribution.tailStart(generated_len);
            predicted = distribution.tailMeanFrom(tail_start,
                                                  max_new_tokens);
            break;
          case PredictionMode::TailQuantile:
            tail_start = distribution.tailStart(generated_len);
            predicted = distribution.tailQuantileFrom(
                tail_start, params_.tailQuantile, max_new_tokens);
            break;
        }
    }
    predicted = std::min(predicted, max_new_tokens);
    // A request that has generated l_t tokens will emit at least one
    // more before the engine can observe it finishing.
    return std::max(predicted, generated_len);
}

TokenCount
PastFutureScheduler::peekPrediction(RequestId id,
                                    TokenCount generated_len,
                                    TokenCount max_new_tokens)
{
    return peekWithHorizon(kInvalidSlot, id, generated_len,
                           max_new_tokens)
        .predicted;
}

PredictionPeek
PastFutureScheduler::peekWithHorizon(RequestSlot slot, RequestId id,
                                     TokenCount generated_len,
                                     TokenCount max_new_tokens)
{
    // Materialising the lazy distribution here is safe: it is
    // bit-identical to the incrementally maintained one (see
    // length_predictor.hh), and nothing else below touches state.
    const LengthDistribution &distribution =
        predictor_.distribution();
    TokenCount predicted = max_new_tokens;
    TokenCount horizon = max_new_tokens;
    if (!distribution.empty()) {
        StickySample *sample =
            params_.predictionMode == PredictionMode::StickySample
            ? findSample(slot, id)
            : nullptr;
        std::size_t start = 0;
        if (sample != nullptr) {
            start = predictor_.tailStart(sample->tail, generated_len);
            predicted = distribution.sampleTailFrom(sample->u, start,
                                                    max_new_tokens);
        } else {
            start = distribution.tailStart(generated_len);
            predicted = params_.predictionMode ==
                    PredictionMode::TailQuantile
                ? distribution.tailQuantileFrom(
                      start, params_.tailQuantile, max_new_tokens)
                : distribution.tailMeanFrom(start, max_new_tokens);
        }
        horizon = std::min(
            distribution.tailMin(start, max_new_tokens),
            max_new_tokens);
        if (sample == nullptr &&
            params_.predictionMode == PredictionMode::StickySample) {
            horizon = generated_len + 1;
        }
    }
    predicted = std::min(predicted, max_new_tokens);
    return PredictionPeek{std::max(predicted, generated_len),
                          std::max(horizon, generated_len + 1)};
}

TokenCount
PastFutureScheduler::samplePerturbed(std::size_t tail_start,
                                     TokenCount generated_len,
                                     TokenCount max_new_tokens)
{
    const LengthDistribution &distribution =
        predictor_.distribution();
    TokenCount predicted = distribution.empty()
        ? max_new_tokens
        : distribution.sampleTailFrom(rng_, tail_start,
                                      max_new_tokens);
    predicted = std::min(predicted, max_new_tokens);
    return std::max(predicted, generated_len);
}

int
PastFutureScheduler::trialsFor(std::size_t batch_size) const
{
    switch (params_.predictionMode) {
      case PredictionMode::StickySample:
        return params_.admissionTrials;
      case PredictionMode::PerStepSample:
        return batch_size < params_.smallBatchSize
            ? params_.smallBatchTrials
            : 1;
      case PredictionMode::TailMean:
      case PredictionMode::TailQuantile:
        return 1;  // deterministic predictions need no repetition
    }
    return 1;
}

void
PastFutureScheduler::beginAdmissionRound(const SchedulerContext &ctx)
{
    limit_ = static_cast<TokenCount>(
        static_cast<double>(ctx.capacityTokens) *
        (1.0 - params_.reservedRatio));
    perRequestOverhead_ = ctx.perRequestOverhead;
    runningSize_ = ctx.running.size();
    admitted_ = 0;
    trials_ = trialsFor(ctx.running.size());

    // One entry vector per trial; each trial independently draws
    // its own predictions for the running batch, then candidates
    // are appended incrementally as they are accepted. (With
    // deterministic predictions there is exactly one trial.) The
    // per-trial vectors are cleared, not reassigned, so their
    // capacity survives across rounds and steady-state admission
    // allocates nothing.
    const auto trials = static_cast<std::size_t>(trials_);
    if (trialEntries_.size() < trials)
        trialEntries_.resize(trials);
    // Trial 0 records where each request's conditional tail starts
    // (a tail start draws no RNG), and every perturbation trial
    // redraws the request from that same tail.
    tailStarts_.resize(ctx.running.size());
    for (std::size_t t = 0; t < trials; ++t) {
        auto &entries = trialEntries_[t];
        entries.clear();
        entries.reserve(ctx.running.size() + ctx.waiting.size());
        for (std::size_t i = 0; i < ctx.running.size(); ++i) {
            const RunningView &request = ctx.running[i];
            // Trial 0 uses the official (sticky / per-step / point)
            // predictions; perturbation trials redraw every request
            // to probe the upside risk of the batch peak.
            const TokenCount predicted = t == 0
                ? predict(request.slot, request.id,
                          request.generatedLen, request.maxNewTokens,
                          tailStarts_[i])
                : samplePerturbed(tailStarts_[i],
                                  request.generatedLen,
                                  request.maxNewTokens);
            // Shared prefix blocks cost no private memory: charge
            // the uncached prompt suffix only.
            entries.push_back(BatchEntry{
                request.promptLen - request.cachedPrefixLen,
                request.generatedLen, predicted});
        }
        // Sorted once per round: every candidate is then scored by
        // a merged scan and committed by an ordered insert.
        sortByRemaining(entries);
    }
    peaks_.resize(trials);
}

bool
PastFutureScheduler::tryAdmit(const WaitingView &candidate)
{
    const auto trials = static_cast<std::size_t>(trials_);
    candidateEntries_.resize(trials);
    std::size_t tail_start = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        const TokenCount predicted = t == 0
            ? predict(candidate.slot, candidate.id,
                      candidate.generatedLen, candidate.maxNewTokens,
                      tail_start)
            : samplePerturbed(tail_start, candidate.generatedLen,
                              candidate.maxNewTokens);
        // The recompute prefill re-materialises prompt +
        // generated tokens, so that is the candidate's resident
        // footprint at admission — minus whatever prefix the cache
        // already holds; the remainder is its future growth.
        candidateEntries_[t] = BatchEntry{
            candidate.promptLen + candidate.generatedLen -
                candidate.cachedPrefixLen,
            0, predicted - candidate.generatedLen};
        peaks_[t] = static_cast<double>(
            mergedPeak(trialEntries_[t], candidateEntries_[t]));
    }

    // Aggregate the trial peaks. PerStepSample keeps the
    // paper's worst-case rule; StickySample uses the estimated
    // riskFactor-sigma exceedance level, which adapts the
    // safety margin to the workload's variance.
    double estimate = 0.0;
    if (params_.predictionMode == PredictionMode::PerStepSample) {
        for (double peak : peaks_)
            estimate = std::max(estimate, peak);
    } else {
        double mean = 0.0;
        for (double peak : peaks_)
            mean += peak;
        mean /= static_cast<double>(peaks_.size());
        double variance = 0.0;
        for (double peak : peaks_) {
            variance += (peak - mean) * (peak - mean);
        }
        variance /= static_cast<double>(peaks_.size());
        estimate = mean + params_.riskFactor * std::sqrt(variance);
    }

    // Paged-allocator block rounding plus the admission slot.
    const TokenCount overhead = perRequestOverhead_ *
        static_cast<TokenCount>(runningSize_ + admitted_ + 1);
    if (static_cast<TokenCount>(estimate) + overhead > limit_)
        return false;
    for (std::size_t t = 0; t < trials; ++t)
        insertSorted(trialEntries_[t], candidateEntries_[t]);
    ++admitted_;
    return true;
}

TokenCount
PastFutureScheduler::estimateFutureMemory(const SchedulerContext &ctx)
{
    loadScratch_.clear();
    loadScratch_.reserve(ctx.running.size());
    for (const auto &request : ctx.running) {
        loadScratch_.push_back(BatchEntry{
            request.promptLen - request.cachedPrefixLen,
            request.generatedLen,
            predict(request.slot, request.id,
                    request.generatedLen, request.maxNewTokens)});
    }
    return futureRequiredMemory(loadScratch_);
}

TokenCount
PastFutureScheduler::estimateLoad(const SchedulerContext &ctx)
{
    TokenCount total = estimateFutureMemory(ctx);
    for (const auto &candidate : ctx.waiting) {
        total += candidate.promptLen - candidate.cachedPrefixLen +
            predict(candidate.slot, candidate.id,
                    candidate.generatedLen, candidate.maxNewTokens);
    }
    return total;
}

std::string
PastFutureScheduler::name() const
{
    return "Past-Future(reserved=" +
        formatPercent(params_.reservedRatio, 0) + ")";
}

} // namespace core
} // namespace lightllm
