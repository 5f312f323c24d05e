#include "metrics/report.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "base/str_util.hh"
#include "stats/percentile.hh"

namespace lightllm {
namespace metrics {

double
RunReport::throughputTokensPerSec() const
{
    if (makespan <= 0)
        return 0.0;
    return static_cast<double>(totalOutputTokens) /
        ticksToSeconds(makespan);
}

double
RunReport::goodputTokensPerSec(const SlaSpec &sla) const
{
    if (makespan <= 0)
        return 0.0;
    TokenCount good_tokens = 0;
    for (const auto &record : requests) {
        if (sla.compliant(record))
            good_tokens += record.outputTokens;
    }
    return static_cast<double>(good_tokens) /
        ticksToSeconds(makespan);
}

double
RunReport::slaCompliantFraction(const SlaSpec &sla) const
{
    if (requests.empty())
        return 0.0;
    std::size_t good = 0;
    for (const auto &record : requests) {
        if (sla.compliant(record))
            ++good;
    }
    return static_cast<double>(good) /
        static_cast<double>(requests.size());
}

double
RunReport::evictedReqRatio() const
{
    if (numFinished == 0)
        return 0.0;
    return static_cast<double>(evictionEvents) /
        static_cast<double>(numFinished);
}

double
RunReport::prefixHitRate() const
{
    if (prefixPromptTokens == 0)
        return 0.0;
    return static_cast<double>(prefixHitTokens) /
        static_cast<double>(prefixPromptTokens);
}

double
RunReport::futureErrorMean() const
{
    if (decodeSteps == 0)
        return 0.0;
    return futureErrorAbsSum / static_cast<double>(decodeSteps);
}

double
RunReport::futureErrorP99() const
{
    std::int64_t total = 0;
    for (std::int64_t count : futureErrorHistogram)
        total += count;
    if (total == 0)
        return 0.0;
    // Nearest-rank p99 over the binned samples; the estimate is
    // the matching bin's upper edge (conservative to one bin).
    const auto rank = static_cast<std::int64_t>(
        std::ceil(0.99 * static_cast<double>(total)));
    std::int64_t seen = 0;
    for (std::size_t bin = 0; bin < futureErrorHistogram.size();
         ++bin) {
        seen += futureErrorHistogram[bin];
        if (seen >= rank) {
            return static_cast<double>(bin + 1) *
                kFutureErrorBinWidth;
        }
    }
    return static_cast<double>(futureErrorHistogram.size()) *
        kFutureErrorBinWidth;
}

double
RunReport::shedRate() const
{
    if (offeredRequests <= 0)
        return 0.0;
    return static_cast<double>(shedRequests) /
        static_cast<double>(offeredRequests);
}

RunReport::LatencyDigest
RunReport::latencyDigest() const
{
    LatencyDigest digest;
    digest.ttftSeconds.reserve(requests.size());
    digest.mtpotSeconds.reserve(requests.size());
    // The means sum in record order, before the sort: the printed
    // mean's last digit depends on the summation order.
    double ttft_sum = 0.0;
    double tpot_sum = 0.0;
    for (const auto &record : requests) {
        const double ttft = ticksToSeconds(record.ttft());
        digest.ttftSeconds.push_back(ttft);
        digest.mtpotSeconds.push_back(
            ticksToSeconds(record.maxGap));
        ttft_sum += ttft;
        tpot_sum += record.avgTpotSeconds();
    }
    if (!requests.empty()) {
        const auto n = static_cast<double>(requests.size());
        digest.meanTtft = ttft_sum / n;
        digest.meanTpot = tpot_sum / n;
    }
    std::sort(digest.ttftSeconds.begin(),
              digest.ttftSeconds.end());
    std::sort(digest.mtpotSeconds.begin(),
              digest.mtpotSeconds.end());
    return digest;
}

double
RunReport::LatencyDigest::ttftPercentile(double q) const
{
    return stats::percentileSorted(ttftSeconds, q);
}

double
RunReport::LatencyDigest::mtpotPercentile(double q) const
{
    return stats::percentileSorted(mtpotSeconds, q);
}

double
RunReport::ttftAttainment(const SlaSpec &sla) const
{
    if (requests.empty())
        return 0.0;
    std::size_t met = 0;
    for (const auto &record : requests) {
        if (record.ttft() < sla.ttftLimit)
            ++met;
    }
    return static_cast<double>(met) /
        static_cast<double>(requests.size());
}

ReportMerger::ReportMerger(std::string name)
{
    merged_.schedulerName = std::move(name);
}

void
ReportMerger::add(const RunReport &report)
{
    merged_.numFinished += report.numFinished;
    merged_.decodeSteps += report.decodeSteps;
    merged_.prefillIterations += report.prefillIterations;
    merged_.evictionEvents += report.evictionEvents;
    merged_.requestsEvicted += report.requestsEvicted;
    merged_.swapEvents += report.swapEvents;
    merged_.swappedTokens += report.swappedTokens;
    merged_.totalOutputTokens += report.totalOutputTokens;
    merged_.totalPrefillTokens += report.totalPrefillTokens;
    merged_.prefixLookups += report.prefixLookups;
    merged_.prefixPromptTokens += report.prefixPromptTokens;
    merged_.prefixHitTokens += report.prefixHitTokens;
    merged_.predictedEvictionSteps += report.predictedEvictionSteps;
    merged_.futureErrorAbsSum += report.futureErrorAbsSum;
    for (std::size_t bin = 0; bin < merged_.futureErrorHistogram.size();
         ++bin) {
        merged_.futureErrorHistogram[bin] +=
            report.futureErrorHistogram[bin];
    }
    merged_.shedRequests += report.shedRequests;
    merged_.offeredRequests += report.offeredRequests;
    merged_.instanceSeconds += report.instanceSeconds;
    merged_.instanceCost += report.instanceCost;
    merged_.scaleUpEvents += report.scaleUpEvents;
    merged_.scaleDownEvents += report.scaleDownEvents;
    merged_.peakInstances =
        std::max(merged_.peakInstances, report.peakInstances);
    merged_.makespan = std::max(merged_.makespan, report.makespan);
    const auto weight = static_cast<double>(report.decodeSteps);
    consumedWeighted_ += report.avgConsumedMemory * weight;
    futureWeighted_ += report.avgFutureRequired * weight;
    batchWeighted_ += report.avgBatchSize * weight;
    totalSteps_ += weight;
    merged_.requests.insert(merged_.requests.end(),
                            report.requests.begin(),
                            report.requests.end());
}

RunReport
ReportMerger::finish()
{
    if (totalSteps_ > 0.0) {
        merged_.avgConsumedMemory = consumedWeighted_ / totalSteps_;
        merged_.avgFutureRequired = futureWeighted_ / totalSteps_;
        merged_.avgBatchSize = batchWeighted_ / totalSteps_;
    }
    return std::move(merged_);
}

std::string
RunReport::summary(const SlaSpec &sla) const
{
    const LatencyDigest digest = latencyDigest();
    std::ostringstream oss;
    oss << schedulerName << ": " << numFinished << " reqs, "
        << formatDouble(throughputTokensPerSec(), 1)
        << " tok/s throughput, "
        << formatDouble(goodputTokensPerSec(sla), 1)
        << " tok/s goodput, p99 TTFT "
        << formatDouble(digest.ttftPercentile(0.99), 2)
        << " s, p99 MTPOT "
        << formatDouble(digest.mtpotPercentile(0.99), 2)
        << " s, evicted "
        << formatPercent(evictedReqRatio(), 2) << ", mem "
        << formatPercent(avgConsumedMemory, 2);
    return oss.str();
}

} // namespace metrics
} // namespace lightllm
