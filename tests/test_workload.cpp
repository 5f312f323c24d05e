/**
 * @file
 * Tests for workload synthesis: length draws, datasets, traces,
 * clients.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/rng.hh"
#include "stats/window_analysis.hh"
#include "test_fixtures.hh"
#include "workload/arrivals.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"
#include "workload/rate_schedule.hh"
#include "workload/session_gen.hh"
#include "workload/trace_gen.hh"
#include "workload/trace_io.hh"

namespace lightllm {
namespace workload {
namespace {

using testfx::throwsWith;

TEST(LengthDrawTest, ClampedLogNormalHitsBothBounds)
{
    Rng rng(3);
    bool hit_lo = false;
    bool hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto value =
            clampedLogNormal(rng, std::log(100.0), 2.0, 50, 400);
        EXPECT_GE(value, 50);
        EXPECT_LE(value, 400);
        hit_lo |= value == 50;
        hit_hi |= value == 400;
    }
    // With sigma 2.0 both clamp bounds must be exercised.
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(DatasetTest, Distribution1MatchesPaperRanges)
{
    const auto dataset = makeDistribution1(2000, 1);
    EXPECT_EQ(dataset.requests.size(), 2000u);
    EXPECT_EQ(dataset.maxNewTokens, 4096);
    for (const auto &request : dataset.requests) {
        EXPECT_GE(request.inputLen, 32);
        EXPECT_LE(request.inputLen, 4096);
        EXPECT_GE(request.outputLen, 2048);
        EXPECT_LE(request.outputLen, 4096);
    }
    // Decode-heavy: mean output exceeds mean input.
    EXPECT_GT(dataset.meanOutputLen(), dataset.meanInputLen());
}

TEST(DatasetTest, Distribution3IsPrefillHeavy)
{
    const auto dataset = makeDistribution3(2000, 2);
    EXPECT_GT(dataset.meanInputLen(), dataset.meanOutputLen());
    for (const auto &request : dataset.requests) {
        EXPECT_GE(request.inputLen, 2048);
        EXPECT_LE(request.outputLen, 4096);
    }
}

TEST(DatasetTest, Distribution2IsBalanced)
{
    const auto dataset = makeDistribution2(2000, 3);
    EXPECT_NEAR(dataset.meanInputLen(), dataset.meanOutputLen(),
                120.0);
}

TEST(DatasetTest, ShareGptO1MatchesPaperAverages)
{
    // The paper's Figure 7 caption: avg input 381, avg output 2160.
    const auto dataset = makeShareGptO1(5000, 4);
    EXPECT_NEAR(dataset.meanInputLen(), 381.0, 60.0);
    EXPECT_NEAR(dataset.meanOutputLen(), 2160.0, 250.0);
}

TEST(DatasetTest, ShareGptUsesMaxNewTokens2048)
{
    const auto dataset = makeShareGpt(1000, 5);
    EXPECT_EQ(dataset.maxNewTokens, 2048);
    for (const auto &request : dataset.requests)
        EXPECT_LE(request.effectiveOutputLen(), 2048);
}

TEST(DatasetTest, IdsAreSequential)
{
    const auto dataset = makeDistribution1(100, 6);
    for (std::size_t i = 0; i < dataset.requests.size(); ++i)
        EXPECT_EQ(dataset.requests[i].id,
                  static_cast<RequestId>(i));
}

TEST(DatasetTest, SameSeedReproduces)
{
    const auto a = makeShareGptO1(200, 7);
    const auto b = makeShareGptO1(200, 7);
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].inputLen, b.requests[i].inputLen);
        EXPECT_EQ(a.requests[i].outputLen, b.requests[i].outputLen);
    }
}

TEST(DatasetTest, TextVqaIncludesImageTokens)
{
    const auto dataset = makeTextVqaLike(500, 576, 8);
    for (const auto &request : dataset.requests) {
        EXPECT_GE(request.inputLen, 576 + 16);
        EXPECT_LE(request.outputLen, 256);
    }
}

TEST(DatasetTest, ConcatRenumbersIds)
{
    const auto a = makeDistribution1(50, 9);
    const auto b = makeDistribution3(50, 10);
    const auto joined = concatDatasets("mix", {a, b});
    EXPECT_EQ(joined.requests.size(), 100u);
    EXPECT_EQ(joined.maxNewTokens, 4096);
    for (std::size_t i = 0; i < joined.requests.size(); ++i)
        EXPECT_EQ(joined.requests[i].id,
                  static_cast<RequestId>(i));
}

TEST(DatasetTest, EffectiveOutputCapsAtMaxNewTokens)
{
    RequestSpec spec;
    spec.outputLen = 5000;
    spec.maxNewTokens = 2048;
    EXPECT_EQ(spec.effectiveOutputLen(), 2048);
    spec.outputLen = 100;
    EXPECT_EQ(spec.effectiveOutputLen(), 100);
}

TEST(TraceGenTest, Figure3SetHasSixNamedTraces)
{
    const auto traces = makeFigure3Traces(3000, 11);
    ASSERT_EQ(traces.size(), 6u);
    for (const auto &trace : traces) {
        EXPECT_EQ(trace.requests.size(), 3000u);
        EXPECT_FALSE(trace.name.empty());
    }
}

TEST(TraceGenTest, TracesCarryTheirServingCap)
{
    // Ids 0..n-1, every request capped at the service's cap: 512
    // for code completion, 2048 for the rest.
    const auto traces = makeFigure3Traces(50, 19);
    const TokenCount caps[] = {2048, 2048, 2048, 2048, 512, 2048};
    for (std::size_t t = 0; t < traces.size(); ++t) {
        EXPECT_EQ(traces[t].maxNewTokens, caps[t]) << traces[t].name;
        for (std::size_t i = 0; i < traces[t].requests.size(); ++i) {
            EXPECT_EQ(traces[t].requests[i].id,
                      static_cast<RequestId>(i));
            EXPECT_EQ(traces[t].requests[i].maxNewTokens, caps[t]);
        }
    }
}

TEST(TraceGenTest, ConversationTraceIsStationary)
{
    const auto trace = makeConversationTrace(12000, 12);
    const auto matrix = stats::windowSimilarityMatrix(
        trace.outputLens(), 1000);
    EXPECT_GT(matrix.globalMean(), 0.85);
}

TEST(TraceGenTest, ApiTraceAdjacentBeatsGlobal)
{
    // The regime-switching mixture must show the paper's diagonal
    // pattern: adjacent windows similar, distant windows diverging.
    const auto trace = makeApiTrace(24000, 13);
    const auto matrix = stats::windowSimilarityMatrix(
        trace.outputLens(), 1000);
    EXPECT_GT(matrix.adjacentMean(), matrix.globalMean() + 0.03);
    EXPECT_GT(matrix.adjacentMean(), 0.75);
}

TEST(TraceGenTest, CodeCompletionHasShortOutputsLongInputs)
{
    const auto trace = makeCodeCompletionTrace(2000, 14);
    double in_sum = 0.0;
    double out_sum = 0.0;
    for (const auto &request : trace.requests) {
        in_sum += static_cast<double>(request.inputLen);
        out_sum += static_cast<double>(request.outputLen);
        EXPECT_LE(request.outputLen, 512);
    }
    EXPECT_GT(in_sum / 2000.0, 5.0 * out_sum / 2000.0);
}

TEST(TraceGenTest, LongDocTraceHasVeryLongInputs)
{
    const auto trace = makeLongDocTrace(1000, 15);
    EXPECT_GT(trace.meanInputLen(), 4000.0);
}

/** Minimal sink capturing submissions. */
class RecordingSink : public RequestSink
{
  public:
    void
    submitAt(const RequestSpec &spec, Tick arrival) override
    {
        submissions.emplace_back(spec.id, arrival);
    }

    std::vector<std::pair<RequestId, Tick>> submissions;
};

TEST(ClientPoolTest, StartSubmitsOnePerClient)
{
    const auto dataset = makeDistribution1(100, 20);
    RecordingSink sink;
    ClosedLoopClientPool pool(8, dataset, sink);
    pool.start();
    EXPECT_EQ(sink.submissions.size(), 8u);
}

TEST(ClientPoolTest, FinishTriggersNextWithThinkTime)
{
    const auto dataset = makeDistribution1(100, 22);
    RecordingSink sink;
    ClosedLoopClientPool pool(2, dataset, sink,
                              secondsToTicks(3.0));
    pool.start();
    pool.onRequestFinished(0, secondsToTicks(10.0));
    ASSERT_EQ(sink.submissions.size(), 3u);
    EXPECT_EQ(sink.submissions[2].second, secondsToTicks(13.0));
}

TEST(ClientPoolTest, ExhaustionStopsSubmissions)
{
    const auto dataset = makeDistribution1(3, 23);
    RecordingSink sink;
    ClosedLoopClientPool pool(2, dataset, sink);
    pool.start();
    EXPECT_EQ(sink.submissions.size(), 2u);
    pool.onRequestFinished(0, 100);
    EXPECT_TRUE(pool.exhausted());
    pool.onRequestFinished(1, 200);  // nothing left to submit
    EXPECT_EQ(sink.submissions.size(), 3u);
}

TEST(ClientPoolTest, MoreClientsThanRequests)
{
    const auto dataset = makeDistribution1(2, 24);
    RecordingSink sink;
    ClosedLoopClientPool pool(10, dataset, sink);
    pool.start();
    EXPECT_EQ(sink.submissions.size(), 2u);
}

TEST(PoissonArrivalsTest, MonotoneAndRateMatched)
{
    const auto dataset = makeDistribution1(4000, 25);
    RecordingSink sink;
    submitPoissonArrivals(dataset, sink, 10.0, 99);
    ASSERT_EQ(sink.submissions.size(), 4000u);
    Tick prev = -1;
    for (const auto &[id, tick] : sink.submissions) {
        EXPECT_GE(tick, prev);
        prev = tick;
    }
    // 4000 arrivals at 10 req/s: makespan near 400 s.
    EXPECT_NEAR(ticksToSeconds(sink.submissions.back().second),
                400.0, 30.0);
}

TEST(DatasetIoTest, CsvRoundTripPreservesEverySpecField)
{
    // Session turns carry every RequestSpec field the shared-prefix
    // subsystem added: segments, outputKey, sessionKey.
    SessionWorkloadConfig config;
    config.numSessions = 4;
    config.turnsPerSession = 3;
    config.seed = 7;
    Dataset dataset;
    dataset.name = "sessions";
    dataset.maxNewTokens = kSessionMaxNewTokens;
    dataset.requests = testfx::sessionTurns(config);
    dataset.requests[1].cls.priority = 2;
    dataset.requests[2].cls.tenant = 17;
    dataset.requests[2].cls.sloTier = 1;

    std::stringstream buffer;
    writeDatasetCsv(buffer, dataset);
    const Dataset loaded = readDatasetCsv(buffer, "sessions");

    ASSERT_EQ(loaded.requests.size(), dataset.requests.size());
    EXPECT_EQ(loaded.maxNewTokens, dataset.maxNewTokens);
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
        const RequestSpec &expected = dataset.requests[i];
        const RequestSpec &actual = loaded.requests[i];
        EXPECT_EQ(actual.id, expected.id);
        EXPECT_EQ(actual.inputLen, expected.inputLen);
        EXPECT_EQ(actual.outputLen, expected.outputLen);
        EXPECT_EQ(actual.maxNewTokens, expected.maxNewTokens);
        EXPECT_EQ(actual.cls, expected.cls);
        EXPECT_EQ(actual.sessionKey, expected.sessionKey);
        EXPECT_EQ(actual.outputKey, expected.outputKey);
        ASSERT_EQ(actual.segments.size(),
                  expected.segments.size());
        for (std::size_t j = 0; j < expected.segments.size();
             ++j) {
            EXPECT_EQ(actual.segments[j].key,
                      expected.segments[j].key);
            EXPECT_EQ(actual.segments[j].len,
                      expected.segments[j].len);
        }
    }
}

TEST(DatasetIoTest, CsvRoundTripPlainDatasetAndFile)
{
    auto dataset = makeShareGpt(64, 11);
    assignPriorityMix(dataset, std::vector<double>{0.7, 0.3}, 5);
    const auto path = std::filesystem::temp_directory_path() /
        "lightllm_dataset_test.csv";
    {
        std::ofstream file(path);
        writeDatasetCsv(file, dataset);
        ASSERT_TRUE(file);
    }
    const Dataset loaded = readDatasetCsvFile(path.string());
    std::filesystem::remove(path);

    ASSERT_EQ(loaded.requests.size(), dataset.requests.size());
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
        EXPECT_EQ(loaded.requests[i].inputLen,
                  dataset.requests[i].inputLen);
        EXPECT_EQ(loaded.requests[i].cls.priority,
                  dataset.requests[i].cls.priority);
        EXPECT_TRUE(loaded.requests[i].segments.empty());
    }
}

TEST(DatasetIoTest, SkipsHeaderAndBlankLines)
{
    std::stringstream buffer(
        "id,input_len,output_len,max_new_tokens,priority,tenant,"
        "slo_tier,session_key,output_key,segments\n\n"
        "0,10,20,100,0,0,0,0,0,\n\n1,30,40,100,0,0,0,0,0,\n");
    const Dataset loaded = readDatasetCsv(buffer, "test");
    ASSERT_EQ(loaded.requests.size(), 2u);
    EXPECT_EQ(loaded.requests[1].outputLen, 40);
}

/** Success when parsing `rows` as dataset "bad" throws a message
 *  containing `message`. */
::testing::AssertionResult
rowsThrow(const std::string &rows, const std::string &message)
{
    std::stringstream buffer(rows);
    return throwsWith<std::invalid_argument>(
        [&] { readDatasetCsv(buffer, "bad"); }, message);
}

TEST(DatasetIoTest, MalformedDatasetRowsThrow)
{
    EXPECT_TRUE(rowsThrow("1,2,3\n", "expected 11 or 10 fields"));
    EXPECT_TRUE(
        rowsThrow("0,10,20,100,0,3,1,0,0,deadbeef-512\n", "segment"));
    // No request at all: an empty file, or a header alone.
    EXPECT_TRUE(rowsThrow("", "dataset bad has no requests"));
    EXPECT_TRUE(rowsThrow("id,input_len,output_len,max_new_tokens,"
                          "priority,tenant,slo_tier,session_key,"
                          "output_key,segments\n",
                          "dataset bad has no requests"));
}

TEST(DatasetIoTest, NonIntegerFieldThrows)
{
    EXPECT_TRUE(rowsThrow("0,a,20,100,0,0,0,0,0,\n", "non-integer"));
    // The trailing-junk check runs outside the parse's own catch,
    // so its message survives.
    EXPECT_TRUE(rowsThrow("0,10x,20,100,0,0,0,0,0,\n",
                          "dataset bad line 1: trailing junk in "
                          "field '10x'"));
}

TEST(DatasetIoTest, RowsNoEngineCanServeThrow)
{
    // Each of these rows once reached the engine, whose submission
    // assertions aborted the run.
    const std::string lengths =
        "input_len, output_len and max_new_tokens must be at least 1";
    EXPECT_TRUE(rowsThrow("-1,10,20,100,0,0,0,0,0,\n",
                          "dataset bad line 1: negative request "
                          "id -1"));
    EXPECT_TRUE(rowsThrow("-7,10,20,100,0,0,0,0,0,\n",
                          "negative request id -7"));
    EXPECT_TRUE(rowsThrow("0,10,20,100,0,0,0,0,0,\n"
                          "0,10,20,100,0,0,0,0,0,\n",
                          "dataset bad line 2: duplicate request "
                          "id 0"));
    EXPECT_TRUE(rowsThrow("0,0,20,100,0,0,0,0,0,\n", lengths));
    EXPECT_TRUE(rowsThrow("0,10,20,0,0,0,0,0,0,\n", lengths));
    EXPECT_TRUE(rowsThrow("0,10,0,100,0,0,0,0,0,\n", lengths));
}

TEST(DatasetIoTest, FileErrorsAreReported)
{
    const std::string missing =
        (std::filesystem::temp_directory_path() / "no_such_dir" /
         "dataset.csv")
            .string();
    EXPECT_TRUE(throwsWith<std::runtime_error>(
        [&] { readDatasetCsvFile(missing); },
        "cannot open dataset file: " + missing));
}

TEST(DatasetIoTest, ArrivalPastTheClockRangeThrows)
{
    // The last arrival the clock can hold parses; one tick more, or
    // an arrival that wrapped the tick sum, is rejected.
    const std::string row = "0,10,20,100,0,0,0,0,0,,";
    const std::string last = std::to_string(kMaxSpanTicks);
    std::stringstream fits(row + last + "\n");
    EXPECT_EQ(readDatasetCsv(fits, "ok").requests[0].arrivalTick,
              kMaxSpanTicks);
    EXPECT_TRUE(rowsThrow(row + std::to_string(kMaxSpanTicks + 1) +
                              "\n",
                          "is past the simulated clock's"));
    EXPECT_TRUE(rowsThrow(row + "9000000000000000000\n",
                          "dataset bad line 1: arrival_us "
                          "9000000000000000000 is past the simulated "
                          "clock's"));
    EXPECT_TRUE(rowsThrow(row + "9223372036854775000\n",
                          "arrival_us 9223372036854775000 is past"));
}

TEST(DatasetIoTest, ArrivalColumnRoundTripsWhenPresent)
{
    auto dataset = makeShareGpt(8, 13);
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
        dataset.requests[i].arrivalTick =
            static_cast<Tick>(i) * secondsToTicks(0.25);
    }

    std::stringstream buffer;
    writeDatasetCsv(buffer, dataset);
    EXPECT_NE(buffer.str().find("arrival_us"), std::string::npos);

    const Dataset loaded = readDatasetCsv(buffer, "trace");
    ASSERT_EQ(loaded.requests.size(), dataset.requests.size());
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
        EXPECT_EQ(loaded.requests[i].arrivalTick,
                  dataset.requests[i].arrivalTick);
    }
}

TEST(DatasetIoTest, NoArrivalsKeepsLegacySchema)
{
    // A dataset without measured arrivals must serialize exactly as
    // before the trace-replay column existed, so goldens pinned on
    // the 10-field schema stay byte-identical.
    const auto dataset = makeShareGpt(4, 13);
    std::stringstream buffer;
    writeDatasetCsv(buffer, dataset);
    EXPECT_EQ(buffer.str().find("arrival_us"), std::string::npos);

    const Dataset loaded = readDatasetCsv(buffer, "plain");
    ASSERT_EQ(loaded.requests.size(), dataset.requests.size());
    for (const RequestSpec &spec : loaded.requests)
        EXPECT_EQ(spec.arrivalTick, -1);
}

TEST(TraceArrivalsTest, ReplaySubmitsAtRecordedTicks)
{
    auto dataset = makeDistribution1(6, 31);
    // Deliberately non-monotone: replay must honor the recorded
    // ticks, not re-sort or re-space them.
    const Tick ticks[] = {500, 100, 100, 9000, 0, 2500};
    for (std::size_t i = 0; i < dataset.requests.size(); ++i)
        dataset.requests[i].arrivalTick = ticks[i];

    RecordingSink sink;
    submitTraceArrivals(dataset, sink, 1000);
    ASSERT_EQ(sink.submissions.size(), dataset.requests.size());
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
        EXPECT_EQ(sink.submissions[i].first,
                  dataset.requests[i].id);
        EXPECT_EQ(sink.submissions[i].second, 1000 + ticks[i]);
    }
}

TEST(TraceArrivalsDeathTest, MissingTimestampIsFatal)
{
    auto dataset = makeDistribution1(2, 31);
    dataset.requests[0].arrivalTick = 10;  // [1] stays unset (-1)
    RecordingSink sink;
    EXPECT_DEATH(submitTraceArrivals(dataset, sink),
                 "arrival timestamp");
}

TEST(RateScheduleTest, SpikeShapeAndRateAt)
{
    const auto schedule = RateSchedule::spike(4.0, 20.0, 30.0,
                                              10.0);
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 0.0), 4.0);
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 29.9), 4.0);
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 30.0), 20.0);
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 39.9), 20.0);
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 40.0), 4.0);
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 1e6), 4.0);
    EXPECT_DOUBLE_EQ(testfx::maxRate(schedule), 20.0);
}

TEST(RateScheduleTest, StepsGetImplicitOpenEndedTail)
{
    const auto schedule = RateSchedule::steps(
        {RateSegment{2.0, 10.0}, RateSegment{6.0, 5.0}});
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 12.0), 6.0);
    // The final closed segment's rate holds forever.
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 1e9), 6.0);
    EXPECT_EQ(schedule.segments().size(), 3u);
}

TEST(RateScheduleTest, DiurnalClampsNegativeRates)
{
    const auto schedule =
        RateSchedule::diurnal(1.0, 5.0, 100.0, 8, 2);
    for (const RateSegment &segment : schedule.segments())
        EXPECT_GE(segment.ratePerSecond, 0.0);
    // 8 steps x 2 cycles + open-ended tail at base.
    EXPECT_EQ(schedule.segments().size(), 17u);
    EXPECT_DOUBLE_EQ(schedule.segments().back().ratePerSecond,
                     1.0);
}

TEST(RateScheduleTest, ParseAllKindsAndErrors)
{
    RateSchedule schedule = RateSchedule::constant(1.0);
    std::string error;
    EXPECT_TRUE(parseRateSchedule("const:5.5", schedule, error));
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 0.0), 5.5);

    EXPECT_TRUE(
        parseRateSchedule("steps:4x30,20x10,4", schedule, error));
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 35.0), 20.0);
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 100.0), 4.0);

    EXPECT_TRUE(
        parseRateSchedule("spike:4,20,30,10", schedule, error));
    EXPECT_DOUBLE_EQ(testfx::rateAt(schedule, 31.0), 20.0);

    EXPECT_TRUE(
        parseRateSchedule("diurnal:2,1,60,12", schedule, error));
    // First half peak.
    EXPECT_GT(testfx::rateAt(schedule, 15.0), 2.0);

    EXPECT_FALSE(parseRateSchedule("5", schedule, error));
    EXPECT_FALSE(parseRateSchedule("const:0", schedule, error));
    EXPECT_FALSE(parseRateSchedule("const:-3", schedule, error));
    EXPECT_FALSE(
        parseRateSchedule("steps:4,20x10", schedule, error));
    EXPECT_FALSE(parseRateSchedule("spike:4,20,30", schedule,
                                   error));
    EXPECT_FALSE(parseRateSchedule("wave:1,2", schedule, error));
    // A zero final rate (timed or open-ended) could never drain a
    // finite dataset: clean parse error, not a panic or a hang.
    EXPECT_FALSE(
        parseRateSchedule("steps:5x10,0x10", schedule, error));
    EXPECT_FALSE(parseRateSchedule("steps:5x10,0", schedule,
                                   error));
    EXPECT_FALSE(error.empty());
}

TEST(RateScheduleTest, ConstantMatchesPoissonBitExactly)
{
    // submitPoissonArrivals is now a constant RateSchedule: the
    // arrival ticks must be identical draw for draw.
    const auto dataset = makeDistribution1(500, 33);
    RecordingSink legacy;
    submitPoissonArrivals(dataset, legacy, 7.5, 99);
    RecordingSink scheduled;
    submitScheduledArrivals(dataset, scheduled,
                            RateSchedule::constant(7.5), 99);
    ASSERT_EQ(legacy.submissions.size(),
              scheduled.submissions.size());
    for (std::size_t i = 0; i < legacy.submissions.size(); ++i)
        EXPECT_EQ(legacy.submissions[i], scheduled.submissions[i]);
}

TEST(RateScheduleTest, SpikeConcentratesArrivals)
{
    const auto dataset = makeDistribution1(4000, 5);
    RecordingSink sink;
    submitScheduledArrivals(
        dataset, sink, RateSchedule::spike(2.0, 40.0, 50.0, 50.0),
        123);
    ASSERT_EQ(sink.submissions.size(), 4000u);
    std::size_t before = 0, during = 0;
    Tick prev = -1;
    for (const auto &[id, tick] : sink.submissions) {
        EXPECT_GE(tick, prev);
        prev = tick;
        const double seconds = ticksToSeconds(tick);
        if (seconds < 50.0)
            ++before;
        else if (seconds < 100.0)
            ++during;
    }
    // ~100 arrivals in the 2/s prelude, ~2000 in the 40/s spike.
    EXPECT_NEAR(static_cast<double>(before), 100.0, 40.0);
    EXPECT_NEAR(static_cast<double>(during), 2000.0, 200.0);
}

TEST(RateScheduleTest, ZeroRateSegmentPausesArrivals)
{
    const auto dataset = makeDistribution1(200, 6);
    RecordingSink sink;
    submitScheduledArrivals(
        dataset, sink,
        RateSchedule::steps({RateSegment{5.0, 10.0},
                             RateSegment{0.0, 20.0},
                             RateSegment{5.0, 0.0}}),
        7);
    for (const auto &[id, tick] : sink.submissions) {
        const double seconds = ticksToSeconds(tick);
        EXPECT_FALSE(seconds >= 10.0 && seconds < 30.0)
            << "arrival inside the dead window at " << seconds;
    }
}

TEST(RateScheduleTest, ArrivalsPastTheClockRangeAreRejected)
{
    // At 1e-300/s the first gap is ~1e300 s: converting it to ticks
    // once wrapped to a negative arrival, and the sink ran the
    // whole dataset as one burst at tick 0.
    const auto dataset = makeDistribution1(8, 3);
    RecordingSink sink;
    try {
        submitScheduledArrivals(dataset, sink,
                                RateSchedule::constant(1e-300), 42);
        ADD_FAILURE() << "accepted a 1e-300/s arrival rate";
    } catch (const std::invalid_argument &error) {
        EXPECT_EQ(std::string(error.what()).rfind(
                      "arrival rate 1e-300/s places request 0 at ", 0),
                  0u)
            << error.what();
    }
    EXPECT_TRUE(sink.submissions.empty());

    // A dead segment past the range stops the schedule there; the
    // arrivals before it stay submitted.
    RecordingSink paused;
    EXPECT_THROW(submitScheduledArrivals(
                     makeDistribution1(200, 6), paused,
                     RateSchedule::steps({RateSegment{5.0, 10.0},
                                          RateSegment{0.0, 1e13},
                                          RateSegment{5.0, 0.0}}),
                     7),
                 std::invalid_argument);
    EXPECT_FALSE(paused.submissions.empty());
    for (const auto &[id, tick] : paused.submissions)
        EXPECT_LT(ticksToSeconds(tick), 10.0);
}

} // namespace
} // namespace workload
} // namespace lightllm
