#include "metrics/collector.hh"

#include <cmath>
#include <utility>

#include "base/logging.hh"

namespace lightllm {
namespace metrics {

MetricsCollector::MetricsCollector(TokenCount capacity_tokens)
    : MetricsCollector(capacity_tokens, {})
{
}

MetricsCollector::MetricsCollector(TokenCount capacity_tokens,
                                   std::vector<RequestRecord> slab)
    : capacity_(capacity_tokens), requests_(std::move(slab))
{
    LIGHTLLM_ASSERT(capacity_tokens > 0, "capacity must be positive");
    // Pre-reserve the record slab so steady-state collection stays
    // off the allocator until a run outgrows it (then the vector
    // doubles as usual). resetMeasurement hands the slab over.
    if (requests_.capacity() < kRecordSlabReserve)
        requests_.reserve(kRecordSlabReserve);
}

void
MetricsCollector::onDecodeStep(std::int64_t batch_size,
                               TokenCount used_tokens,
                               TokenCount true_future_tokens,
                               TokenCount predicted_future_tokens,
                               Tick duration)
{
    stepBuffer_[stepsBuffered_++] =
        StepRecord{batch_size, used_tokens, true_future_tokens,
                   predicted_future_tokens, duration};
    if (stepsBuffered_ == kStepBatch)
        flushSteps();
}

void
MetricsCollector::flushSteps()
{
    const double capacity = static_cast<double>(capacity_);
    for (std::size_t i = 0; i < stepsBuffered_; ++i) {
        const StepRecord &record = stepBuffer_[i];
        ++decodeSteps_;
        const double weight = static_cast<double>(record.duration);
        const double consumed =
            static_cast<double>(record.usedTokens) / capacity;
        const double future =
            static_cast<double>(record.trueFutureTokens) / capacity;
        consumedWeighted_ += consumed * weight;
        futureWeighted_ += future * weight;
        batchWeighted_ +=
            static_cast<double>(record.batchSize) * weight;
        decodeDuration_ += weight;

        // Prediction audit: |predicted - true| futureRequiredRatio
        // per step, plus the steps where the prediction alone
        // forecast an eviction (predicted M* above capacity).
        const double predicted =
            static_cast<double>(record.predictedFutureTokens) /
            capacity;
        const double error = std::fabs(predicted - future);
        futureErrorAbsSum_ += error;
        auto bin = static_cast<std::size_t>(
            error / RunReport::kFutureErrorBinWidth);
        if (bin >= futureErrorHistogram_.size())
            bin = futureErrorHistogram_.size() - 1;
        ++futureErrorHistogram_[bin];
        if (record.predictedFutureTokens > capacity_)
            ++predictedEvictionSteps_;
    }
    stepsBuffered_ = 0;
}

void
MetricsCollector::onPrefill(TokenCount prompt_tokens)
{
    ++prefillIterations_;
    totalPrefillTokens_ += prompt_tokens;
}

void
MetricsCollector::onEviction(bool first_eviction_of_request)
{
    ++evictionEvents_;
    if (first_eviction_of_request)
        ++requestsEvicted_;
}

void
MetricsCollector::onSwap(TokenCount tokens)
{
    ++swapEvents_;
    swappedTokens_ += tokens;
}

void
MetricsCollector::onPrefixLookup(TokenCount prompt_tokens,
                                 TokenCount hit_tokens)
{
    ++prefixLookups_;
    prefixPromptTokens_ += prompt_tokens;
    prefixHitTokens_ += hit_tokens;
}

void
MetricsCollector::onRequestFinished(const RequestRecord &record)
{
    totalOutputTokens_ += record.outputTokens;
    requests_.push_back(record);
}

void
MetricsCollector::resetMeasurement(Tick now)
{
    // Reset by value, keeping only the record slab's capacity: a
    // field added later cannot carry warm-up data past this point.
    std::vector<RequestRecord> slab = std::move(requests_);
    slab.clear();
    *this = MetricsCollector(capacity_, std::move(slab));
    measureStart_ = now;
}

RunReport
MetricsCollector::finish(std::string scheduler_name, Tick makespan)
{
    flushSteps();
    RunReport report;
    report.schedulerName = std::move(scheduler_name);
    report.numFinished = requests_.size();
    report.decodeSteps = decodeSteps_;
    report.prefillIterations = prefillIterations_;
    report.evictionEvents = evictionEvents_;
    report.requestsEvicted = requestsEvicted_;
    report.swapEvents = swapEvents_;
    report.swappedTokens = swappedTokens_;
    report.totalOutputTokens = totalOutputTokens_;
    report.totalPrefillTokens = totalPrefillTokens_;
    report.prefixLookups = prefixLookups_;
    report.prefixPromptTokens = prefixPromptTokens_;
    report.prefixHitTokens = prefixHitTokens_;
    report.predictedEvictionSteps = predictedEvictionSteps_;
    report.futureErrorAbsSum = futureErrorAbsSum_;
    report.futureErrorHistogram = futureErrorHistogram_;
    report.makespan = makespan - measureStart_;
    if (decodeDuration_ > 0.0) {
        report.avgConsumedMemory =
            consumedWeighted_ / decodeDuration_;
        report.avgFutureRequired = futureWeighted_ / decodeDuration_;
        report.avgBatchSize = batchWeighted_ / decodeDuration_;
    }
    report.requests = requests_;
    return report;
}

} // namespace metrics
} // namespace lightllm
