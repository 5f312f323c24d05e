/**
 * @file
 * Flight-recorder coverage: ring semantics, export validity, the
 * read-only contract (traced reports byte-identical to untraced),
 * determinism across --sim-threads, and the CLI surface.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_scenario.hh"
#include "metrics/report_io.hh"
#include "test_fixtures.hh"
#include "trace/trace_event.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_ring.hh"

namespace lightllm {
namespace {

trace::TraceEvent
makeEvent(Tick tick, std::int64_t a0)
{
    trace::TraceEvent event;
    event.tick = tick;
    event.arg0 = a0;
    event.name = trace::TraceName::BatchSize;
    event.phase = trace::TracePhase::Counter;
    return event;
}

TEST(TraceRing, OverwritesOldestAndCountsDrops)
{
    trace::TraceRing ring(4);
    // Four fit without a drop; the next six overwrite.
    for (std::int64_t i = 0; i < 4; ++i)
        ring.push(makeEvent(i, i));
    EXPECT_EQ(ring.dropped(), 0u);
    for (std::int64_t i = 4; i < 10; ++i)
        ring.push(makeEvent(i, i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 6u);
    // The survivors are the newest four, in recording order.
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i).arg0,
                  static_cast<std::int64_t>(6 + i));
}

TEST(TraceRecorder, SinkCreationFollowsDetail)
{
    trace::TraceRecorder off(trace::TraceConfig{
        trace::TraceDetail::Off, 64});
    EXPECT_EQ(off.createEngine("engine-0"), nullptr);
    EXPECT_EQ(off.createShard("shard-0"), nullptr);

    trace::TraceRecorder requests(trace::TraceConfig{
        trace::TraceDetail::Requests, 64});
    trace::EngineTrace *sink = requests.createEngine("engine-0");
    ASSERT_NE(sink, nullptr);
    EXPECT_FALSE(sink->stepsEnabled());
    EXPECT_EQ(requests.createShard("shard-0"), nullptr);

    trace::TraceRecorder full(trace::TraceConfig{
        trace::TraceDetail::Full, 64});
    ASSERT_NE(full.createEngine("a"), nullptr);
    EXPECT_TRUE(full.createEngine("b")->stepsEnabled());
    EXPECT_NE(full.createShard("coordinator"), nullptr);
}

// --- Scenario helpers ---------------------------------------------

cli::Scenario
smallScenario(std::vector<const char *> args)
{
    args.insert(args.begin(), "pfs_cli");
    cli::CliOptions options;
    const std::string error = cli::parseCliArgs(
        static_cast<int>(args.size()), args.data(), options);
    EXPECT_EQ(error, "");
    return cli::assembleScenario(options);
}

std::string
reportText(const metrics::RunReport &report,
           const metrics::SlaSpec &sla)
{
    std::ostringstream oss;
    metrics::writeSummaryJson(oss, report, sla);
    metrics::writeRequestsCsv(oss, report, sla);
    return oss.str();
}

std::string
chromeJson(const trace::TraceRecorder &recorder)
{
    std::ostringstream oss;
    recorder.writeChromeJson(oss);
    return oss.str();
}

/** Count non-overlapping occurrences of `needle`. */
std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle);
         pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/**
 * Structural JSON validity without a parser: balanced braces and
 * brackets (no trace string contains either), every event line
 * carries the mandatory Chrome fields, and span phases pair up.
 */
void
expectValidChromeJson(const std::string &json)
{
    std::int64_t braces = 0;
    std::int64_t brackets = 0;
    for (const char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        ASSERT_GE(braces, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);

    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""),
              countOccurrences(json, "\"ph\":\"E\""));

    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\"") == std::string::npos)
            continue;
        EXPECT_NE(line.find("\"pid\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"tid\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"name\""), std::string::npos) << line;
        // Every non-metadata event is timestamped.
        if (line.find("\"ph\":\"M\"") == std::string::npos) {
            EXPECT_NE(line.find("\"ts\""), std::string::npos)
                << line;
        }
    }
}

TEST(TraceRun, FullDetailLeavesReportByteIdentical)
{
    const std::vector<const char *> args = {
        "--workload", "dist1", "--requests", "48", "--rate", "30",
        "--split-fuse", "--max-batch", "8"};
    const cli::Scenario scenario = smallScenario(args);

    const metrics::RunReport untraced =
        cli::runScenario(scenario, nullptr);

    // Full detail on a long-output workload emits ~100k events;
    // the ring must hold them all for the CSV row count below.
    trace::TraceRecorder recorder(trace::TraceConfig{
        trace::TraceDetail::Full, 1 << 18});
    const metrics::RunReport traced =
        cli::runScenario(scenario, &recorder);

    // Tracing observes; it must never steer.
    EXPECT_EQ(reportText(untraced, scenario.sla),
              reportText(traced, scenario.sla));

    const std::string json = chromeJson(recorder);
    expectValidChromeJson(json);
    EXPECT_GT(countOccurrences(json, "\"ph\":\"B\""), 0u);
    EXPECT_GT(countOccurrences(json, "\"queued\""), 0u);
    EXPECT_GT(countOccurrences(json, "\"decode\""), 0u);
    // Step detail is on: engine counters must appear.
    EXPECT_GT(countOccurrences(json, "\"ph\":\"C\""), 0u);
    EXPECT_GT(countOccurrences(json, "\"kv_future_pred\""), 0u);

    std::ostringstream csv;
    recorder.writeRequestCsv(csv);
    const std::string timeline = csv.str();
    EXPECT_NE(timeline.find("request_id,engine,queued_us"),
              std::string::npos);
    // Header plus one row per finished request.
    EXPECT_EQ(countOccurrences(timeline, "\n"),
              1u + untraced.numFinished);
}

TEST(TraceRun, FleetTraceIdenticalAcrossSimThreads)
{
    std::vector<const char *> args = {
        "--workload", "dist1", "--requests", "96", "--rate", "60",
        "--instances", "3", "--sim-threads", "1"};
    const cli::Scenario single = smallScenario(args);
    args.back() = "4";
    const cli::Scenario sharded = smallScenario(args);

    // Steps detail: everything but the wall-clock shard profile,
    // which is the one legitimately thread-dependent section.
    trace::TraceRecorder one(trace::TraceConfig{
        trace::TraceDetail::Steps, 1 << 16});
    const metrics::RunReport report_one =
        cli::runScenario(single, &one);
    trace::TraceRecorder four(trace::TraceConfig{
        trace::TraceDetail::Steps, 1 << 16});
    const metrics::RunReport report_four =
        cli::runScenario(sharded, &four);

    EXPECT_EQ(reportText(report_one, single.sla),
              reportText(report_four, sharded.sla));
    EXPECT_EQ(chromeJson(one), chromeJson(four));
}

TEST(TraceRun, ShardProfilerSamplesAppearAtFullDetail)
{
    const cli::Scenario scenario = smallScenario(
        {"--workload", "dist1", "--requests", "48", "--rate", "60",
         "--instances", "4", "--sim-threads", "2"});

    trace::TraceRecorder recorder(trace::TraceConfig{
        trace::TraceDetail::Full, 1 << 16});
    cli::runScenario(scenario, &recorder);

    ASSERT_EQ(recorder.shards().size(), 3u); // coordinator + 2
    EXPECT_EQ(recorder.shards().front().label(), "coordinator");
    const std::string json = chromeJson(recorder);
    expectValidChromeJson(json);
    EXPECT_GT(countOccurrences(json, "\"shard_compute\""), 0u);
    EXPECT_GT(countOccurrences(json, "\"shard_barrier\""), 0u);
    EXPECT_GT(countOccurrences(json, "\"mailbox_commit\""), 0u);
}

TEST(TraceRun, TinyRingWrapsWithoutBreakingExport)
{
    const cli::Scenario scenario = smallScenario(
        {"--workload", "dist1", "--requests", "64", "--rate",
         "40"});

    trace::TraceRecorder recorder(trace::TraceConfig{
        trace::TraceDetail::Full, 128});
    cli::runScenario(scenario, &recorder);

    EXPECT_GT(recorder.totalDropped(), 0u);
    // Wraparound orphans span halves; the exporter must still emit
    // balanced, well-formed JSON.
    expectValidChromeJson(chromeJson(recorder));
}

TEST(TraceRun, RunLimitClosesInFlightSpansAtTheLastTick)
{
    // --max-requests stops the run with requests still queued or
    // running. The export closes each one's open span at the last
    // tick the ring saw (an E without args), so B/E stay paired.
    const cli::Scenario scenario = smallScenario(
        {"--workload", "dist1", "--requests", "64", "--rate", "40",
         "--max-requests", "8"});
    trace::TraceRecorder recorder(trace::TraceConfig{
        trace::TraceDetail::Requests, 1 << 14});
    const metrics::RunReport report =
        cli::runScenario(scenario, &recorder);
    ASSERT_EQ(report.numFinished, 8u);
    ASSERT_EQ(recorder.totalDropped(), 0u);
    const std::string json = chromeJson(recorder);
    expectValidChromeJson(json);

    std::set<std::int64_t> finished;
    for (const metrics::RequestRecord &record : report.requests)
        finished.insert(record.id + 1);  // the request's tid
    const std::regex event(
        R"re(\{"ph":"([BEiC])","pid":\d+,"tid":(\d+),"ts":(\d+))re");
    std::map<std::int64_t, bool> open;  // by request tid
    std::map<std::int64_t, Tick> closed_at_end;
    Tick last_tick = 0;
    std::istringstream lines(json);
    for (std::string line; std::getline(lines, line);) {
        std::smatch match;
        if (!std::regex_search(line, match, event))
            continue;
        const std::int64_t tid = std::stoll(match[2]);
        const Tick ts = std::stoll(match[3]);
        if (match[1] == "i" || match[1] == "C") {
            last_tick = std::max(last_tick, ts);
            continue;
        }
        ASSERT_NE(tid, 0) << line;
        if (match[1] == "B") {
            ASSERT_FALSE(open[tid]) << line;
            open[tid] = true;
            last_tick = std::max(last_tick, ts);
            continue;
        }
        ASSERT_TRUE(open[tid]) << line;
        open[tid] = false;
        if (line.find("\"args\"") == std::string::npos)
            closed_at_end[tid] = ts;
        else
            last_tick = std::max(last_tick, ts);
    }

    std::set<std::int64_t> in_flight;
    for (const auto &[tid, still_open] : open) {
        EXPECT_FALSE(still_open) << tid;
        if (!finished.contains(tid))
            in_flight.insert(tid);
    }
    EXPECT_GT(in_flight.size(), 0u);
    std::set<std::int64_t> closed;
    for (const auto &[tid, ts] : closed_at_end) {
        closed.insert(tid);
        EXPECT_EQ(ts, last_tick) << tid;
    }
    EXPECT_EQ(closed, in_flight);
}

TEST(TraceRun, DisaggAttachCoversBothPools)
{
    const cli::Scenario scenario = smallScenario(
        {"--workload", "dist1", "--requests", "32", "--rate", "40",
         "--disagg", "--prefill-instances", "2",
         "--decode-instances", "2"});

    trace::TraceRecorder recorder(trace::TraceConfig{
        trace::TraceDetail::Requests, 1 << 14});
    cli::runScenario(scenario, &recorder);

    ASSERT_EQ(recorder.engines().size(), 4u);
    EXPECT_EQ(recorder.engines()[0].label(), "prefill-0");
    EXPECT_EQ(recorder.engines()[2].label(), "decode-0");
    const std::string json = chromeJson(recorder);
    expectValidChromeJson(json);
    EXPECT_GT(countOccurrences(json, "\"migrated\""), 0u);
}

/**
 * The trace bytes at steps detail, pinned per scenario. Together the
 * four scenarios emit every event name the engine writes: swap
 * evictions and chunks under memory pressure, recompute evictions,
 * a drain, and a disaggregated handoff.
 */
TEST(TraceRun, StepsDetailBytesArePinned)
{
    struct Cell
    {
        const char *name;
        std::vector<const char *> args;
        std::uint64_t jsonHash;
        std::uint64_t csvHash;
    };
    const std::vector<Cell> cells = {
        {"swap_split_fuse",
         {"--workload", "sharegpt", "--requests", "64", "--rate", "40",
          "--hardware", "rtx4090", "--scheduler", "aggressive",
          "--eviction-mode", "swap", "--split-fuse", "--seed", "5"},
         0x96dc386308819e4full, 0x5ed2bbcf0177f536ull},
        {"recompute",
         {"--workload", "sharegpt", "--requests", "64", "--rate", "40",
          "--hardware", "rtx4090", "--scheduler", "aggressive",
          "--seed", "5"},
         0x454aac4401f75a4ull, 0x9dba601ef0f3d382ull},
        {"fleet_drain",
         {"--workload", "dist1", "--requests", "64", "--rate", "60",
          "--instances", "2", "--drain-at", "1", "--seed", "5"},
         0x7aff381c99ac7775ull, 0x89dd8ef179f62202ull},
        {"disagg",
         {"--workload", "dist1", "--requests", "24", "--rate", "40",
          "--disagg", "--seed", "5"},
         0xdbd7597d8ae908e4ull, 0xf3cfce34d2fe4d15ull},
    };
    using trace::TraceName;
    const std::vector<TraceName> engine_names = {
        TraceName::Queued,         TraceName::Admit,
        TraceName::Prefill,        TraceName::Decode,
        TraceName::AdmissionRound, TraceName::Chunk,
        TraceName::Evict,          TraceName::SwapOut,
        TraceName::SwapIn,         TraceName::Migrated,
        TraceName::Drained,        TraceName::Finish,
        TraceName::BatchSize,      TraceName::KvUsed,
        TraceName::KvFutureTrue,   TraceName::KvFuturePred,
        TraceName::QueueDepth};
    std::vector<bool> seen(static_cast<std::size_t>(
                               TraceName::MailboxCommit) + 1,
                           false);
    for (const Cell &cell : cells) {
        SCOPED_TRACE(cell.name);
        trace::TraceRecorder recorder(trace::TraceConfig{
            trace::TraceDetail::Steps, 1 << 18});
        cli::runScenario(smallScenario(cell.args), &recorder);
        EXPECT_EQ(recorder.totalDropped(), 0u);
        for (const trace::EngineTrace &sink : recorder.engines()) {
            for (std::size_t i = 0; i < sink.ring().size(); ++i)
                seen[static_cast<std::size_t>(sink.ring().at(i).name)] =
                    true;
        }
        std::ostringstream csv;
        recorder.writeRequestCsv(csv);
        EXPECT_EQ(testfx::fnv1a(chromeJson(recorder)), cell.jsonHash);
        EXPECT_EQ(testfx::fnv1a(csv.str()), cell.csvHash);
    }
    for (const TraceName name : engine_names)
        EXPECT_TRUE(seen[static_cast<std::size_t>(name)])
            << trace::traceName(name);
}

// --- CLI surface --------------------------------------------------

std::string
parseArgs(std::vector<const char *> args, cli::CliOptions &options)
{
    args.insert(args.begin(), "pfs_cli");
    return cli::parseCliArgs(static_cast<int>(args.size()),
                             args.data(), options);
}

TEST(TraceCli, FlagValidation)
{
    cli::CliOptions options;
    EXPECT_EQ(parseArgs({"--trace-out", "/tmp/x.json",
                         "--trace-detail", "full",
                         "--trace-limit", "1024"},
                        options),
              "");
    EXPECT_EQ(options.traceOut, "/tmp/x.json");
    EXPECT_EQ(options.traceDetail, "full");
    EXPECT_EQ(options.traceLimit, 1024u);

    cli::CliOptions bad;
    EXPECT_NE(parseArgs({"--trace-out", "/tmp/x.json",
                         "--trace-detail", "verbose"},
                        bad),
              "");
    bad = {};
    // Detail without a destination records into the void.
    EXPECT_NE(parseArgs({"--trace-detail", "steps"}, bad), "");
    bad = {};
    EXPECT_NE(parseArgs({"--trace-limit", "4096"}, bad), "");
    bad = {};
    EXPECT_NE(parseArgs({"--trace-out", "/tmp/x.json",
                         "--trace-limit", "0"},
                        bad),
              "");
    bad = {};
    // "--trace-detail off" is an explicit no-op, not an error.
    EXPECT_EQ(parseArgs({"--trace-detail", "off"}, bad), "");
}

TEST(TraceCli, AssemblyDefaultsAndWiring)
{
    cli::CliOptions options;
    ASSERT_EQ(parseArgs({"--requests", "8", "--trace-out",
                         "/tmp/x.json"},
                        options),
              "");
    const cli::Scenario scenario = cli::assembleScenario(options);
    EXPECT_EQ(scenario.traceOut, "/tmp/x.json");
    // --trace-out alone defaults to request-level capture.
    EXPECT_EQ(scenario.traceDetail, trace::TraceDetail::Requests);
    EXPECT_EQ(scenario.traceLimit, 65536u);

    cli::CliOptions full;
    ASSERT_EQ(parseArgs({"--requests", "8", "--trace-out",
                         "/tmp/x.json", "--trace-detail", "full",
                         "--trace-limit", "2048"},
                        full),
              "");
    const cli::Scenario wired = cli::assembleScenario(full);
    EXPECT_EQ(wired.traceDetail, trace::TraceDetail::Full);
    EXPECT_EQ(wired.traceLimit, 2048u);

    cli::CliOptions off;
    ASSERT_EQ(parseArgs({"--requests", "8"}, off), "");
    EXPECT_EQ(cli::assembleScenario(off).traceDetail,
              trace::TraceDetail::Off);
}

} // namespace
} // namespace lightllm
