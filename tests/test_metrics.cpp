/**
 * @file
 * Unit tests for SLA metrics, the streaming collector, and report
 * derivations, against hand-computed values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "base/rng.hh"
#include "metrics/collector.hh"
#include "metrics/report.hh"
#include "metrics/report_io.hh"
#include "metrics/sla.hh"
#include "test_fixtures.hh"

namespace lightllm {
namespace metrics {
namespace {

using testfx::bernoulli;

RequestRecord
record(Tick arrival, Tick first, Tick finish, Tick max_gap,
       TokenCount tokens)
{
    RequestRecord r;
    r.id = 1;
    r.arrival = arrival;
    r.firstToken = first;
    r.finish = finish;
    r.maxGap = max_gap;
    r.outputTokens = tokens;
    return r;
}

TEST(RequestRecordTest, TtftIsFirstTokenMinusArrival)
{
    const auto r = record(secondsToTicks(2.0), secondsToTicks(5.0),
                          secondsToTicks(9.0), 100, 10);
    EXPECT_EQ(r.ttft(), secondsToTicks(3.0));
}

TEST(RequestRecordTest, AvgTpotDividesByGapCount)
{
    // 9 gaps over 4.5 seconds -> 0.5 s per output token.
    const auto r = record(0, secondsToTicks(1.0),
                          secondsToTicks(5.5), 0, 10);
    EXPECT_DOUBLE_EQ(r.avgTpotSeconds(), 0.5);
}

TEST(RequestRecordTest, SingleTokenHasZeroTpot)
{
    const auto r = record(0, secondsToTicks(1.0),
                          secondsToTicks(1.0), 0, 1);
    EXPECT_DOUBLE_EQ(r.avgTpotSeconds(), 0.0);
}

TEST(SlaSpecTest, CompliantRequiresBothLimits)
{
    const SlaSpec sla = SlaSpec::small7b13b();
    // TTFT 9.9s, MTPOT 1.4s: compliant.
    EXPECT_TRUE(sla.compliant(record(0, secondsToTicks(9.9),
                                     secondsToTicks(20.0),
                                     secondsToTicks(1.4), 10)));
    // TTFT violated.
    EXPECT_FALSE(sla.compliant(record(0, secondsToTicks(10.1),
                                      secondsToTicks(20.0),
                                      secondsToTicks(0.5), 10)));
    // MTPOT violated.
    EXPECT_FALSE(sla.compliant(record(0, secondsToTicks(1.0),
                                      secondsToTicks(20.0),
                                      secondsToTicks(1.6), 10)));
}

TEST(SlaSpecTest, PresetsMatchThePaper)
{
    EXPECT_EQ(SlaSpec::small7b13b().ttftLimit, secondsToTicks(10.0));
    EXPECT_EQ(SlaSpec::small7b13b().mtpotLimit, secondsToTicks(1.5));
    EXPECT_EQ(SlaSpec::large70b().ttftLimit, secondsToTicks(15.0));
    EXPECT_EQ(SlaSpec::large70b().mtpotLimit, secondsToTicks(5.0));
}

TEST(CollectorTest, DurationWeightedMemoryAverages)
{
    MetricsCollector collector(1000);
    // Step 1: 500/1000 used for 30 ticks; step 2: 900/1000 for 10.
    collector.onDecodeStep(4, 500, 600, 600, 30);
    collector.onDecodeStep(4, 900, 950, 950, 10);
    const auto report = collector.finish("test", 40);
    EXPECT_NEAR(report.avgConsumedMemory,
                (0.5 * 30 + 0.9 * 10) / 40.0, 1e-12);
    EXPECT_NEAR(report.avgFutureRequired,
                (0.6 * 30 + 0.95 * 10) / 40.0, 1e-12);
    EXPECT_EQ(report.decodeSteps, 2);
    EXPECT_DOUBLE_EQ(report.avgBatchSize, 4.0);
}

TEST(CollectorTest, EvictionCountsSplitFirstFromRepeat)
{
    MetricsCollector collector(1000);
    collector.onEviction(true);
    collector.onEviction(false);
    collector.onEviction(true);
    const auto report = collector.finish("test", 10);
    EXPECT_EQ(report.evictionEvents, 3);
    EXPECT_EQ(report.requestsEvicted, 2u);
}

TEST(CollectorTest, ResetMeasurementDiscardsHistory)
{
    MetricsCollector collector(1000);
    collector.onDecodeStep(2, 500, 500, 500, 10);
    collector.onRequestFinished(record(0, 1, 2, 1, 100));
    collector.onEviction(true);
    collector.resetMeasurement(50);
    collector.onDecodeStep(8, 800, 800, 800, 10);
    collector.onRequestFinished(record(50, 60, 70, 1, 40));
    const auto report = collector.finish("test", 150);
    EXPECT_EQ(report.numFinished, 1u);
    EXPECT_EQ(report.totalOutputTokens, 40);
    EXPECT_EQ(report.evictionEvents, 0);
    EXPECT_DOUBLE_EQ(report.avgBatchSize, 8.0);
    // Makespan excludes the warmup portion.
    EXPECT_EQ(report.makespan, 100);
}

/** Feeds a deterministic mix of every collector event; `offset`
 *  shifts the record ticks. */
void
feedEvents(MetricsCollector &collector, std::uint64_t seed,
           Tick offset, int steps)
{
    Rng rng(seed);
    for (int i = 0; i < steps; ++i) {
        const TokenCount used = rng.uniformInt(100, 900);
        collector.onDecodeStep(rng.uniformInt(1, 32), used,
                               used + rng.uniformInt(0, 300),
                               used + rng.uniformInt(0, 600),
                               rng.uniformInt(1, 50));
        if (i % 7 == 0)
            collector.onEviction(i % 14 == 0);
        if (i % 11 == 0)
            collector.onSwap(rng.uniformInt(16, 256));
        if (i % 5 == 0)
            collector.onPrefill(rng.uniformInt(10, 500));
        if (i % 9 == 0)
            collector.onPrefixLookup(200, rng.uniformInt(0, 200));
        if (i % 3 == 0) {
            const Tick first = offset + i + rng.uniformInt(1, 100);
            RequestRecord r = record(offset + i, first, first + 400,
                                     rng.uniformInt(1, 90),
                                     rng.uniformInt(1, 60));
            r.id = i;
            r.inputLen = rng.uniformInt(10, 500);
            r.evictions = i % 4;
            collector.onRequestFinished(r);
        }
    }
}

/**
 * A collector fed A, reset, then fed B equals a fresh collector fed
 * only B: on every report field and on the JSON and CSV bytes. A
 * leaves some steps buffered (100 = one folded batch of 64 + 36) so
 * the reset must drop those too.
 */
TEST(CollectorTest, ResetEqualsFreshCollector)
{
    constexpr Tick kResetAt = 5000;
    MetricsCollector reset(1000);
    feedEvents(reset, 1, 0, 100);
    reset.resetMeasurement(kResetAt);
    feedEvents(reset, 2, kResetAt, 150);
    const RunReport a = reset.finish("run", kResetAt + 9000);

    MetricsCollector fresh(1000);
    feedEvents(fresh, 2, kResetAt, 150);
    const RunReport b = fresh.finish("run", 9000);

    EXPECT_EQ(a.schedulerName, b.schedulerName);
    EXPECT_EQ(a.numFinished, b.numFinished);
    EXPECT_EQ(a.decodeSteps, b.decodeSteps);
    EXPECT_EQ(a.prefillIterations, b.prefillIterations);
    EXPECT_EQ(a.evictionEvents, b.evictionEvents);
    EXPECT_EQ(a.requestsEvicted, b.requestsEvicted);
    EXPECT_EQ(a.swapEvents, b.swapEvents);
    EXPECT_EQ(a.swappedTokens, b.swappedTokens);
    EXPECT_EQ(a.totalOutputTokens, b.totalOutputTokens);
    EXPECT_EQ(a.totalPrefillTokens, b.totalPrefillTokens);
    EXPECT_EQ(a.prefixLookups, b.prefixLookups);
    EXPECT_EQ(a.prefixPromptTokens, b.prefixPromptTokens);
    EXPECT_EQ(a.prefixHitTokens, b.prefixHitTokens);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.avgConsumedMemory, b.avgConsumedMemory);
    EXPECT_EQ(a.avgFutureRequired, b.avgFutureRequired);
    EXPECT_EQ(a.avgBatchSize, b.avgBatchSize);
    EXPECT_EQ(a.predictedEvictionSteps, b.predictedEvictionSteps);
    EXPECT_EQ(a.futureErrorAbsSum, b.futureErrorAbsSum);
    EXPECT_EQ(a.futureErrorHistogram, b.futureErrorHistogram);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const RequestRecord &x = a.requests[i];
        const RequestRecord &y = b.requests[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.inputLen, y.inputLen);
        EXPECT_EQ(x.outputTokens, y.outputTokens);
        EXPECT_EQ(x.arrival, y.arrival);
        EXPECT_EQ(x.firstToken, y.firstToken);
        EXPECT_EQ(x.finish, y.finish);
        EXPECT_EQ(x.maxGap, y.maxGap);
        EXPECT_EQ(x.evictions, y.evictions);
    }
    // The streams are busy enough to exercise every field.
    EXPECT_EQ(b.decodeSteps, 150);
    EXPECT_GT(b.swapEvents, 0);
    EXPECT_GT(b.prefixHitTokens, 0);
    EXPECT_GT(b.requestsEvicted, 0u);

    const SlaSpec sla = SlaSpec::small7b13b();
    std::ostringstream bytes_a;
    std::ostringstream bytes_b;
    writeSummaryJson(bytes_a, a, sla);
    writeRequestsCsv(bytes_a, a, sla);
    writeSummaryJson(bytes_b, b, sla);
    writeRequestsCsv(bytes_b, b, sla);
    EXPECT_EQ(bytes_a.str(), bytes_b.str());
}

RunReport
twoRequestReport()
{
    RunReport report;
    report.makespan = secondsToTicks(10.0);
    // Compliant: 300 tokens. Non-compliant (TTFT 12s): 700 tokens.
    report.requests.push_back(record(0, secondsToTicks(1.0),
                                     secondsToTicks(8.0),
                                     secondsToTicks(0.1), 300));
    report.requests.push_back(record(0, secondsToTicks(12.0),
                                     secondsToTicks(19.0),
                                     secondsToTicks(0.1), 700));
    report.totalOutputTokens = 1000;
    report.numFinished = 2;
    return report;
}

TEST(RunReportTest, ThroughputCountsEverything)
{
    const auto report = twoRequestReport();
    EXPECT_DOUBLE_EQ(report.throughputTokensPerSec(), 100.0);
}

TEST(RunReportTest, GoodputCountsCompliantOnly)
{
    const auto report = twoRequestReport();
    const auto sla = SlaSpec::small7b13b();
    EXPECT_DOUBLE_EQ(report.goodputTokensPerSec(sla), 30.0);
    EXPECT_DOUBLE_EQ(report.slaCompliantFraction(sla), 0.5);
}

TEST(RunReportTest, EvictedRatioCanExceedOne)
{
    RunReport report;
    report.numFinished = 10;
    report.evictionEvents = 15;
    EXPECT_DOUBLE_EQ(report.evictedReqRatio(), 1.5);
}

TEST(RunReportTest, EmptyReportIsAllZero)
{
    const RunReport report;
    const auto sla = SlaSpec::small7b13b();
    EXPECT_DOUBLE_EQ(report.throughputTokensPerSec(), 0.0);
    EXPECT_DOUBLE_EQ(report.goodputTokensPerSec(sla), 0.0);
    EXPECT_DOUBLE_EQ(report.slaCompliantFraction(sla), 0.0);
    EXPECT_DOUBLE_EQ(report.evictedReqRatio(), 0.0);
    const auto digest = report.latencyDigest();
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(digest.mtpotPercentile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(digest.meanTtft, 0.0);
    EXPECT_DOUBLE_EQ(digest.meanTpot, 0.0);
}

TEST(RunReportTest, P99UsesNearestRank)
{
    RunReport report;
    report.makespan = 1;
    for (int i = 1; i <= 100; ++i) {
        report.requests.push_back(
            record(0, secondsToTicks(static_cast<double>(i)),
                   secondsToTicks(200.0), secondsToTicks(0.1), 1));
    }
    EXPECT_DOUBLE_EQ(report.latencyDigest().ttftPercentile(0.99), 99.0);
}

TEST(RunReportTest, PercentileFamilyIsConsistent)
{
    RunReport report;
    report.makespan = 1;
    for (int i = 1; i <= 100; ++i) {
        report.requests.push_back(record(
            0, secondsToTicks(static_cast<double>(i)),
            secondsToTicks(200.0),
            secondsToTicks(static_cast<double>(i) / 10.0), 1));
    }
    const auto digest = report.latencyDigest();
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(0.90), 90.0);
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(digest.mtpotPercentile(0.50), 5.0);
    EXPECT_DOUBLE_EQ(digest.mtpotPercentile(0.90), 9.0);
    EXPECT_DOUBLE_EQ(digest.mtpotPercentile(0.99), 9.9);
    EXPECT_DOUBLE_EQ(digest.meanTtft, 50.5);
}

/**
 * The digest's means sum in record order, not in the sorted order
 * its percentile vectors hold: these three TTFTs round differently
 * in the two orders, which moves a printed mean's last digit.
 */
TEST(RunReportTest, DigestMeansSumInRecordOrder)
{
    RunReport report;
    const double ttfts[] = {0.1, 0.7, 0.3};
    for (const double ttft : ttfts) {
        report.requests.push_back(record(0, secondsToTicks(ttft),
                                         secondsToTicks(5.0), 0, 11));
    }
    const double in_record_order =
        ((0.0 + ttfts[0]) + ttfts[1]) + ttfts[2];
    const double in_sorted_order =
        ((0.0 + ttfts[0]) + ttfts[2]) + ttfts[1];
    ASSERT_NE(in_record_order / 3.0, in_sorted_order / 3.0);
    const auto digest = report.latencyDigest();
    EXPECT_EQ(digest.meanTtft, in_record_order / 3.0);
    double tpot_sum = 0.0;
    for (const RequestRecord &r : report.requests)
        tpot_sum += r.avgTpotSeconds();
    EXPECT_EQ(digest.meanTpot, tpot_sum / 3.0);
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(0.0), 0.1);
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(1.0), 0.7);
}

TEST(RunReportTest, TtftAttainmentIgnoresMtpot)
{
    const auto sla = SlaSpec::small7b13b();
    RunReport report;
    // TTFT fine, MTPOT violated: attains TTFT, not the full SLA.
    report.requests.push_back(record(0, secondsToTicks(1.0),
                                     secondsToTicks(30.0),
                                     secondsToTicks(9.0), 10));
    // TTFT violated.
    report.requests.push_back(record(0, secondsToTicks(11.0),
                                     secondsToTicks(30.0),
                                     secondsToTicks(0.1), 10));
    EXPECT_DOUBLE_EQ(report.ttftAttainment(sla), 0.5);
    EXPECT_DOUBLE_EQ(report.slaCompliantFraction(sla), 0.0);
}

TEST(RunReportTest, ShedRateOverOfferedRequests)
{
    RunReport report;
    EXPECT_DOUBLE_EQ(report.shedRate(), 0.0);
    report.offeredRequests = 200;
    report.shedRequests = 50;
    EXPECT_DOUBLE_EQ(report.shedRate(), 0.25);
}

TEST(RunReportTest, MergePreservesPercentilesAndFleetCounters)
{
    RunReport a;
    a.numFinished = 1;
    a.makespan = secondsToTicks(10.0);
    a.shedRequests = 2;
    a.offeredRequests = 10;
    a.instanceSeconds = 30.0;
    a.scaleUpEvents = 1;
    a.peakInstances = 3;
    a.requests.push_back(record(0, secondsToTicks(1.0),
                                secondsToTicks(5.0),
                                secondsToTicks(0.2), 10));
    RunReport b;
    b.numFinished = 1;
    b.makespan = secondsToTicks(8.0);
    b.shedRequests = 1;
    b.offeredRequests = 5;
    b.instanceSeconds = 12.5;
    b.scaleDownEvents = 2;
    b.peakInstances = 2;
    b.requests.push_back(record(0, secondsToTicks(3.0),
                                secondsToTicks(5.0),
                                secondsToTicks(0.4), 10));

    ReportMerger merger("fleet");
    merger.add(a);
    merger.add(b);
    const auto merged = merger.finish();
    // Percentiles come from the concatenated records, so cluster
    // reports expose the same p50/p90 family as engines.
    const auto digest = merged.latencyDigest();
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(0.50), 1.0);
    EXPECT_DOUBLE_EQ(digest.ttftPercentile(0.90), 3.0);
    EXPECT_EQ(merged.shedRequests, 3);
    EXPECT_EQ(merged.offeredRequests, 15);
    EXPECT_DOUBLE_EQ(merged.instanceSeconds, 42.5);
    EXPECT_EQ(merged.scaleUpEvents, 1);
    EXPECT_EQ(merged.scaleDownEvents, 2);
    EXPECT_EQ(merged.peakInstances, 3u);
}

/**
 * Reference: the all-at-once merge fleets ran before the streaming
 * merger, over a vector holding every instance's report.
 */
RunReport
batchMerge(const std::vector<RunReport> &reports, std::string name)
{
    RunReport merged;
    merged.schedulerName = std::move(name);
    double consumed = 0.0;
    double future = 0.0;
    double batch = 0.0;
    double steps = 0.0;
    for (const auto &report : reports) {
        merged.numFinished += report.numFinished;
        merged.decodeSteps += report.decodeSteps;
        merged.prefillIterations += report.prefillIterations;
        merged.evictionEvents += report.evictionEvents;
        merged.requestsEvicted += report.requestsEvicted;
        merged.swapEvents += report.swapEvents;
        merged.swappedTokens += report.swappedTokens;
        merged.totalOutputTokens += report.totalOutputTokens;
        merged.totalPrefillTokens += report.totalPrefillTokens;
        merged.prefixLookups += report.prefixLookups;
        merged.prefixPromptTokens += report.prefixPromptTokens;
        merged.prefixHitTokens += report.prefixHitTokens;
        merged.predictedEvictionSteps += report.predictedEvictionSteps;
        merged.futureErrorAbsSum += report.futureErrorAbsSum;
        for (std::size_t bin = 0;
             bin < merged.futureErrorHistogram.size(); ++bin) {
            merged.futureErrorHistogram[bin] +=
                report.futureErrorHistogram[bin];
        }
        merged.shedRequests += report.shedRequests;
        merged.offeredRequests += report.offeredRequests;
        merged.instanceSeconds += report.instanceSeconds;
        merged.instanceCost += report.instanceCost;
        merged.scaleUpEvents += report.scaleUpEvents;
        merged.scaleDownEvents += report.scaleDownEvents;
        merged.peakInstances =
            std::max(merged.peakInstances, report.peakInstances);
        merged.makespan = std::max(merged.makespan, report.makespan);
        const auto weight = static_cast<double>(report.decodeSteps);
        consumed += report.avgConsumedMemory * weight;
        future += report.avgFutureRequired * weight;
        batch += report.avgBatchSize * weight;
        steps += weight;
        merged.requests.insert(merged.requests.end(),
                               report.requests.begin(),
                               report.requests.end());
    }
    if (steps > 0.0) {
        merged.avgConsumedMemory = consumed / steps;
        merged.avgFutureRequired = future / steps;
        merged.avgBatchSize = batch / steps;
    }
    return merged;
}

/** An instance report with every merged field set at random. */
RunReport
randomInstanceReport(Rng &rng)
{
    RunReport report;
    report.schedulerName = "instance";
    report.decodeSteps =
        bernoulli(rng, 0.2) ? 0 : rng.uniformInt(1, 5000);
    report.prefillIterations = rng.uniformInt(0, 400);
    report.evictionEvents = rng.uniformInt(0, 30);
    report.requestsEvicted =
        static_cast<std::size_t>(rng.uniformInt(0, 20));
    report.swapEvents = rng.uniformInt(0, 9);
    report.swappedTokens = rng.uniformInt(0, 9000);
    report.totalOutputTokens = rng.uniformInt(0, 90000);
    report.totalPrefillTokens = rng.uniformInt(0, 90000);
    report.prefixLookups = rng.uniformInt(0, 50);
    report.prefixPromptTokens = rng.uniformInt(0, 5000);
    report.prefixHitTokens = rng.uniformInt(0, 5000);
    report.makespan = rng.uniformInt(0, secondsToTicks(300.0));
    report.avgConsumedMemory = rng.uniformDouble();
    report.avgFutureRequired = 1.3 * rng.uniformDouble();
    report.avgBatchSize = 64.0 * rng.uniformDouble();
    report.predictedEvictionSteps = rng.uniformInt(0, 40);
    report.futureErrorAbsSum = 17.0 * rng.uniformDouble();
    for (auto &bin : report.futureErrorHistogram)
        bin = rng.uniformInt(0, 100);
    report.shedRequests = rng.uniformInt(0, 5);
    report.offeredRequests = rng.uniformInt(5, 500);
    report.instanceSeconds = 100.0 * rng.uniformDouble();
    report.instanceCost = rng.uniformDouble() / 3.0;
    report.scaleUpEvents = rng.uniformInt(0, 3);
    report.scaleDownEvents = rng.uniformInt(0, 3);
    report.peakInstances =
        static_cast<std::size_t>(rng.uniformInt(0, 9));
    const auto finished = rng.uniformInt(0, 6);
    for (std::int64_t i = 0; i < finished; ++i) {
        const Tick arrival = rng.uniformInt(0, secondsToTicks(50.0));
        const Tick first =
            arrival + rng.uniformInt(1, secondsToTicks(5.0));
        RequestRecord r = record(
            arrival, first, first + rng.uniformInt(0, secondsToTicks(9.0)),
            rng.uniformInt(0, secondsToTicks(1.0)),
            rng.uniformInt(1, 300));
        r.id = rng.uniformInt(0, 1'000'000);
        r.evictions = static_cast<int>(rng.uniformInt(0, 2));
        report.requests.push_back(r);
    }
    report.numFinished = report.requests.size();
    return report;
}

/**
 * Feeding reports to ReportMerger one at a time, each a temporary
 * gone before the next is built, equals the all-at-once merge field
 * by field: integer sums, the error histogram, the float sums and
 * the step-weighted averages bit for bit, and the record order.
 */
TEST(RunReportTest, ReportMergerEqualsBatchMerge)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed);
        const auto count = static_cast<std::size_t>(
            seed % 5 == 0 ? 0 : rng.uniformInt(1, 40));
        std::vector<RunReport> reports;
        for (std::size_t i = 0; i < count; ++i)
            reports.push_back(randomInstanceReport(rng));
        const RunReport want = batchMerge(reports, "fleet");

        ReportMerger merger("fleet");
        for (std::size_t i = 0; i < count; ++i)
            merger.add(RunReport(reports[i]));
        const RunReport got = merger.finish();

        EXPECT_EQ(got.schedulerName, want.schedulerName);
        EXPECT_EQ(got.numFinished, want.numFinished);
        EXPECT_EQ(got.decodeSteps, want.decodeSteps);
        EXPECT_EQ(got.prefillIterations, want.prefillIterations);
        EXPECT_EQ(got.evictionEvents, want.evictionEvents);
        EXPECT_EQ(got.requestsEvicted, want.requestsEvicted);
        EXPECT_EQ(got.swapEvents, want.swapEvents);
        EXPECT_EQ(got.swappedTokens, want.swappedTokens);
        EXPECT_EQ(got.totalOutputTokens, want.totalOutputTokens);
        EXPECT_EQ(got.totalPrefillTokens, want.totalPrefillTokens);
        EXPECT_EQ(got.prefixLookups, want.prefixLookups);
        EXPECT_EQ(got.prefixPromptTokens, want.prefixPromptTokens);
        EXPECT_EQ(got.prefixHitTokens, want.prefixHitTokens);
        EXPECT_EQ(got.makespan, want.makespan);
        EXPECT_EQ(got.avgConsumedMemory, want.avgConsumedMemory);
        EXPECT_EQ(got.avgFutureRequired, want.avgFutureRequired);
        EXPECT_EQ(got.avgBatchSize, want.avgBatchSize);
        EXPECT_EQ(got.predictedEvictionSteps,
                  want.predictedEvictionSteps);
        EXPECT_EQ(got.futureErrorAbsSum, want.futureErrorAbsSum);
        EXPECT_EQ(got.futureErrorHistogram, want.futureErrorHistogram);
        EXPECT_EQ(got.futureErrorMean(), want.futureErrorMean());
        EXPECT_EQ(got.futureErrorP99(), want.futureErrorP99());
        EXPECT_EQ(got.shedRequests, want.shedRequests);
        EXPECT_EQ(got.offeredRequests, want.offeredRequests);
        EXPECT_EQ(got.instanceSeconds, want.instanceSeconds);
        EXPECT_EQ(got.instanceCost, want.instanceCost);
        EXPECT_EQ(got.scaleUpEvents, want.scaleUpEvents);
        EXPECT_EQ(got.scaleDownEvents, want.scaleDownEvents);
        EXPECT_EQ(got.peakInstances, want.peakInstances);
        EXPECT_FALSE(got.disaggregated);
        ASSERT_EQ(got.requests.size(), want.requests.size());
        for (std::size_t i = 0; i < got.requests.size(); ++i) {
            EXPECT_EQ(got.requests[i].id, want.requests[i].id);
            EXPECT_EQ(got.requests[i].arrival,
                      want.requests[i].arrival);
            EXPECT_EQ(got.requests[i].firstToken,
                      want.requests[i].firstToken);
            EXPECT_EQ(got.requests[i].finish, want.requests[i].finish);
            EXPECT_EQ(got.requests[i].maxGap, want.requests[i].maxGap);
            EXPECT_EQ(got.requests[i].outputTokens,
                      want.requests[i].outputTokens);
            EXPECT_EQ(got.requests[i].evictions,
                      want.requests[i].evictions);
        }
    }
}

TEST(RunReportTest, SummaryMentionsKeyNumbers)
{
    auto report = twoRequestReport();
    report.schedulerName = "TestSched";
    const auto text = report.summary(SlaSpec::small7b13b());
    EXPECT_NE(text.find("TestSched"), std::string::npos);
    EXPECT_NE(text.find("goodput"), std::string::npos);
    EXPECT_NE(text.find("30.0"), std::string::npos);
}

} // namespace
} // namespace metrics
} // namespace lightllm
