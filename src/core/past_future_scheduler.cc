#include "core/past_future_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/str_util.hh"

namespace lightllm {
namespace core {

PastFutureScheduler::PastFutureScheduler(PastFutureParams params)
    : params_(params),
      predictor_(params.windowSize, params.seedOutputLen),
      rng_(params.seed)
{
    LIGHTLLM_ASSERT(params_.reservedRatio >= 0.0 &&
                        params_.reservedRatio < 1.0,
                    "reserved ratio must be in [0, 1)");
    LIGHTLLM_ASSERT(params_.riskFactor >= 0.0,
                    "risk factor must be non-negative");
    for (TokenCount length : params_.initialHistory)
        predictor_.observe(length);
}

void
PastFutureScheduler::onRequestFinished(RequestId id,
                                       TokenCount output_len)
{
    predictor_.observe(output_len);
    if (const RequestSlot *slot = slotOf_.find(id))
        dropSlotSample(bySlot_[slotIndex(*slot)]);
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
    const RequestSlot *slot = slotOf_.find(entry.id);
    if (slot != nullptr && *slot == entry.owner)
        slotOf_.erase(entry.id);
    entry.owner = kInvalidSlot;
}

PastFutureScheduler::StickySample *
PastFutureScheduler::findSample(RequestSlot slot, RequestId id)
{
    if (slot == kInvalidSlot) {
        const RequestSlot *slotted = slotOf_.find(id);
        if (slotted == nullptr)
            return nullptr;
        slot = *slotted;
    }
    const std::uint32_t index = slotIndex(slot);
    if (index >= bySlot_.size() || bySlot_[index].owner != slot)
        return nullptr;
    return &bySlot_[index].sample;
}

PastFutureScheduler::StickySample &
PastFutureScheduler::sampleFor(RequestSlot slot, RequestId id)
{
    LIGHTLLM_ASSERT(slot != kInvalidSlot, "request ", id,
                    " needs a slot for its sticky sample");
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
        slotOf_.insertOrAssign(id, slot);
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
                tail_start, kTailQuantile, max_new_tokens);
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
                      start, kTailQuantile, max_new_tokens)
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
PastFutureScheduler::perturbed(std::size_t tail_start,
                               std::uint64_t draw,
                               TokenCount generated_len,
                               TokenCount max_new_tokens)
{
    const LengthDistribution &distribution =
        predictor_.distribution();
    TokenCount predicted = tail_start < distribution.size()
        ? distribution.tailAtDraw(draw, tail_start)
        : max_new_tokens;
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
            ? kSmallBatchTrials
            : 1;
      case PredictionMode::TailMean:
      case PredictionMode::TailQuantile:
        return 1;  // deterministic predictions need no repetition
    }
    return 1;
}

bool
PastFutureScheduler::predictDraws(RequestSlot slot,
                                  TokenCount generated_len)
{
    if (predictor_.distribution().empty())
        return false;  // an empty window predicts the cap
    switch (params_.predictionMode) {
      case PredictionMode::StickySample:
        // Mirrors sampleFor's lookup: no sample, one variate.
        return slotIndex(slot) >= bySlot_.size() ||
            bySlot_[slotIndex(slot)].owner != slot;
      case PredictionMode::PerStepSample:
        return generated_len < longest_;
      case PredictionMode::TailMean:
      case PredictionMode::TailQuantile:
        return false;
    }
    return false;
}

TokenCount
PastFutureScheduler::maxRemaining(TokenCount generated_len,
                                  TokenCount max_new_tokens) const
{
    // Every mode predicts an element (or the mean) of the tail
    // P(l | l > l_t), so at most the window's longest length, or
    // the cap when the tail is empty; predict() then clamps to
    // [l_t, cap].
    const TokenCount ceiling = generated_len < longest_
        ? std::min(max_new_tokens, longest_)
        : max_new_tokens;
    return std::max<TokenCount>(0, ceiling - generated_len);
}

bool
PastFutureScheduler::boundFits(TokenCount resident, TokenCount growth,
                               TokenCount overhead) const
{
    // Every trial peak lies in [L, L + R] (DESIGN.md §2): the
    // worst-case rule's maximum and a single trial's peak are at
    // most L + R, and a mean plus riskFactor standard deviations of
    // values in that range is at most L + R + riskFactor * R / 2
    // (Popoviciu). The exact test's double arithmetic can land a
    // hair above the true estimate: 4 tokens cover the truncation
    // and this comparison's rounding, the relative term the mean
    // and deviation sums' rounding at any trial count below 2^18.
    const double high = static_cast<double>(resident + growth);
    double bound = high;
    if (params_.predictionMode != PredictionMode::PerStepSample &&
        trials_ > 1)
        bound += params_.riskFactor * static_cast<double>(growth) / 2.0;
    const double slack = 4.0 + std::ldexp(bound, -32);
    return bound + slack <= static_cast<double>(limit_ - overhead);
}

void
PastFutureScheduler::beginAdmissionRound(const SchedulerContext &ctx)
{
    limit_ = static_cast<TokenCount>(
        static_cast<double>(ctx.capacityTokens) *
        (1.0 - params_.reservedRatio));
    perRequestOverhead_ = ctx.perRequestOverhead;
    runningSize_ = ctx.running.size();
    roundSize_ = ctx.running.size() + ctx.waiting.size();
    admitted_ = 0;
    trials_ = trialsFor(ctx.running.size());
    longest_ = predictor_.distribution().maxLength();
    roundVersion_ = predictor_.version();
    materialised_ = false;
    boundAdmitted_.clear();
    draws_.clear();

    // Trial 0 draws (sample-less StickySample requests, PerStepSample
    // requests) happen here in member order, as building the trials
    // now would; the rest wait for materialise(). The bound's sums
    // need only lengths.
    members_.resize(ctx.running.size());
    boundResident_ = 0;
    boundGrowth_ = 0;
    std::size_t tails = 0;
    for (std::size_t i = 0; i < ctx.running.size(); ++i) {
        const RunningView &request = ctx.running[i];
        PendingEntry &member = members_[i];
        // Shared prefix blocks cost no private memory: charge the
        // uncached prompt suffix only.
        member = PendingEntry{request.slot, request.id,
                              request.promptLen - request.cachedPrefixLen,
                              request.generatedLen, request.maxNewTokens};
        LIGHTLLM_ASSERT(request.generatedLen >= 0 &&
                            member.promptLen + request.generatedLen >= 0,
                        "negative resident footprint");
        if (predictDraws(request.slot, request.generatedLen)) {
            member.predicted =
                predict(request.slot, request.id, request.generatedLen,
                        request.maxNewTokens, member.tailStart);
        }
        boundResident_ += member.promptLen + request.generatedLen;
        boundGrowth_ +=
            maxRemaining(request.generatedLen, request.maxNewTokens);
        if (request.generatedLen < longest_)
            ++tails;
    }
    // Each perturbation trial redraws every request with a non-empty
    // tail, trial-major: one raw value per draw, mapped when (if)
    // the trials are built.
    draws_.reserve((static_cast<std::size_t>(trials_) - 1) * tails);
    for (int t = 1; t < trials_; ++t) {
        for (const PendingEntry &member : members_) {
            if (member.generatedLen < longest_)
                draws_.push_back(rng_.nextU64());
        }
    }
}

void
PastFutureScheduler::materialise()
{
    materialised_ = true;
    const auto trials = static_cast<std::size_t>(trials_);
    if (trialEntries_.size() < trials)
        trialEntries_.resize(trials);
    // The per-trial vectors are cleared, not reassigned, so their
    // capacity survives across rounds and steady-state admission
    // allocates nothing.
    for (std::size_t t = 0; t < trials; ++t) {
        trialEntries_[t].clear();
        trialEntries_[t].reserve(roundSize_);
    }
    // Trial 0: the official (sticky / per-step / point)
    // predictions; the ones that draw nothing are made now.
    for (PendingEntry &member : members_) {
        if (member.predicted == kDeferred) {
            member.predicted =
                predict(member.slot, member.id, member.generatedLen,
                        member.maxNewTokens, member.tailStart);
        }
        trialEntries_[0].push_back(BatchEntry{
            member.promptLen, member.generatedLen, member.predicted});
    }
    // Perturbation trials redraw every request from its tail, in
    // the order the draws were recorded.
    std::size_t next = 0;
    for (std::size_t t = 1; t < trials; ++t) {
        for (const PendingEntry &member : members_) {
            const bool tail = member.generatedLen < longest_;
            trialEntries_[t].push_back(BatchEntry{
                member.promptLen, member.generatedLen,
                perturbed(member.tailStart, tail ? draws_[next++] : 0,
                          member.generatedLen, member.maxNewTokens)});
        }
    }
    // Sorted once per round: every candidate is then scored by a
    // merged scan and committed by an ordered insert, the
    // bound-admitted ones first, in admission order.
    for (std::size_t t = 0; t < trials; ++t)
        sortByRemaining(trialEntries_[t]);
    for (const PendingEntry &admitted : boundAdmitted_) {
        const bool tail = admitted.generatedLen < longest_;
        insertSorted(trialEntries_[0],
                     candidateEntry(admitted, admitted.predicted));
        for (std::size_t t = 1; t < trials; ++t) {
            const TokenCount predicted = perturbed(
                admitted.tailStart,
                tail ? draws_[admitted.firstDraw + t - 1] : 0,
                admitted.generatedLen, admitted.maxNewTokens);
            insertSorted(trialEntries_[t],
                         candidateEntry(admitted, predicted));
        }
    }
    peaks_.resize(trials);
}

bool
PastFutureScheduler::tryAdmit(const WaitingView &candidate)
{
    LIGHTLLM_ASSERT(predictor_.version() == roundVersion_,
                    "history window changed inside an admission round");
    const auto trials = static_cast<std::size_t>(trials_);
    // The recompute prefill re-materialises prompt + generated
    // tokens, so that is the candidate's resident footprint at
    // admission — minus whatever prefix the cache already holds;
    // the remainder is its future growth.
    PendingEntry pending{candidate.slot, candidate.id,
                         candidate.promptLen + candidate.generatedLen -
                             candidate.cachedPrefixLen,
                         candidate.generatedLen, candidate.maxNewTokens};
    pending.predicted =
        predict(candidate.slot, candidate.id, candidate.generatedLen,
                candidate.maxNewTokens, pending.tailStart);
    pending.firstDraw = draws_.size();
    const bool tail = candidate.generatedLen < longest_;
    if (tail) {
        for (std::size_t t = 1; t < trials; ++t)
            draws_.push_back(rng_.nextU64());
    }

    // Paged-allocator block rounding plus the admission slot.
    const TokenCount overhead = perRequestOverhead_ *
        static_cast<TokenCount>(runningSize_ + admitted_ + 1);
    if (!materialised_) {
        const TokenCount resident = boundResident_ + pending.promptLen;
        const TokenCount growth = boundGrowth_ +
            maxRemaining(candidate.generatedLen, candidate.maxNewTokens);
        if (boundFits(resident, growth, overhead)) {
            boundResident_ = resident;
            boundGrowth_ = growth;
            boundAdmitted_.push_back(pending);
            ++boundAdmissions_;
            ++admitted_;
            return true;
        }
        materialise();
    }

    candidateEntries_.resize(trials);
    for (std::size_t t = 0; t < trials; ++t) {
        const TokenCount predicted = t == 0
            ? pending.predicted
            : perturbed(pending.tailStart,
                        tail ? draws_[pending.firstDraw + t - 1] : 0,
                        candidate.generatedLen, candidate.maxNewTokens);
        candidateEntries_[t] = candidateEntry(pending, predicted);
        peaks_[t] = static_cast<double>(
            mergedPeak(trialEntries_[t], candidateEntries_[t]));
    }
    // An exact round maps each candidate's draws at once.
    draws_.clear();

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

    if (static_cast<TokenCount>(estimate) + overhead > limit_)
        return false;
    for (std::size_t t = 0; t < trials; ++t)
        insertSorted(trialEntries_[t], candidateEntries_[t]);
    ++admitted_;
    return true;
}

TokenCount
PastFutureScheduler::estimateLoad(const SchedulerContext &ctx)
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
    TokenCount total = futureRequiredMemory(loadScratch_);
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
