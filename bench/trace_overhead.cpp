/**
 * @file
 * Flight-recorder overhead gate: tracing must be observability, not
 * a tax. One fixed closed-loop scenario runs untraced, with a
 * recorder at detail=off, detail=requests, and detail=full; each
 * configuration is repeated and the minimum wall-clock compared
 * against the untraced baseline.
 *
 * Results land in BENCH_trace_overhead.json. When
 * PFS_BENCH_ENFORCE_FLOOR is set (CI, Release builds only), the
 * off-detail run must stay within 1% of baseline (it executes the
 * identical null-pointer hook path, so anything above is noise or a
 * regression) and full detail within 10%. Runs too short to resolve
 * a 1% difference skip the gate with a notice instead of flaking.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "cli_scenario.hh"
#include "trace/trace_recorder.hh"

using namespace lightllm;

namespace {

constexpr double kOffOverheadLimit = 0.01;
constexpr double kFullOverheadLimit = 0.10;

/** Baselines shorter than this cannot resolve the 1% gate. */
constexpr double kMinGateableWallMs = 100.0;

/** Five repeats: the minimum of five converges on the true floor,
 *  so one-sided scheduler noise cannot fake an overhead. */
constexpr int kRepeats = 5;

cli::Scenario
benchScenario()
{
    cli::CliOptions options;
    options.workload = "sharegpt";
    // Sized so even the smoke baseline clears kMinGateableWallMs
    // and the 1% off-gate resolves above timer noise.
    options.requests = bench::smokeSize(16384, 4096);
    options.clients = 32;
    options.seed = 42;
    return cli::assembleScenario(options);
}

struct ConfigResult
{
    std::string name;
    double wallMillisMin = 0.0;
    double overheadPct = 0.0;
    double eventsRetained = 0.0;
    double eventsDropped = 0.0;
};

/** Minimum wall-clock of kRepeats runs (min rejects scheduler and
 *  frequency noise better than the mean), recorded at `detail`;
 *  no detail runs untraced. */
ConfigResult
runConfig(const cli::Scenario &scenario, const std::string &name,
          std::optional<trace::TraceDetail> detail)
{
    ConfigResult result;
    result.name = name;
    for (int rep = 0; rep < kRepeats; ++rep) {
        std::unique_ptr<trace::TraceRecorder> recorder;
        if (detail) {
            recorder = std::make_unique<trace::TraceRecorder>(
                trace::TraceConfig{*detail, 1 << 16});
        }
        const double wall =
            bench::timedRun(scenario, recorder.get()).wallMillis;
        result.wallMillisMin =
            rep == 0 ? wall : std::min(result.wallMillisMin, wall);
        if (rep == 0 && recorder) {
            for (const trace::EngineTrace &sink :
                 recorder->engines()) {
                result.eventsRetained +=
                    static_cast<double>(sink.ring().size());
            }
            result.eventsDropped =
                static_cast<double>(recorder->totalDropped());
        }
    }
    return result;
}

} // namespace

int
main()
{
    std::cout << "# Flight-recorder overhead: traced wall-clock vs "
                 "the untraced baseline\n\n";

    const cli::Scenario scenario = benchScenario();

    const ConfigResult baseline =
        runConfig(scenario, "untraced", std::nullopt);
    std::vector<ConfigResult> results = {
        baseline,
        runConfig(scenario, "off", trace::TraceDetail::Off),
        runConfig(scenario, "requests",
                  trace::TraceDetail::Requests),
        runConfig(scenario, "full", trace::TraceDetail::Full),
    };
    for (ConfigResult &result : results) {
        result.overheadPct = baseline.wallMillisMin > 0.0
            ? (result.wallMillisMin / baseline.wallMillisMin - 1.0) *
                100.0
            : 0.0;
    }

    TextTable table(
        {"config", "wall_ms_min", "overhead_pct", "events"});
    std::vector<bench::JsonRow> rows;
    for (const ConfigResult &result : results) {
        table.addRow({
            result.name,
            formatDouble(result.wallMillisMin, 1),
            formatDouble(result.overheadPct, 2),
            formatDouble(result.eventsRetained, 0),
        });
        rows.push_back(bench::JsonRow{
            {"config", result.name},
            {"wall_ms_min", result.wallMillisMin},
            {"overhead_pct", result.overheadPct},
            {"events_retained", result.eventsRetained},
            {"events_dropped", result.eventsDropped},
            {"off_limit_pct", kOffOverheadLimit * 100.0},
            {"full_limit_pct", kFullOverheadLimit * 100.0},
        });
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::writeJson("trace_overhead", rows);
    std::cout << ".\n";

    const char *enforce = std::getenv("PFS_BENCH_ENFORCE_FLOOR");
    if (enforce != nullptr && *enforce != '\0') {
        if (baseline.wallMillisMin < kMinGateableWallMs) {
            std::cout << "Floor check skipped: baseline "
                      << formatDouble(baseline.wallMillisMin, 1)
                      << " ms is too short to resolve a "
                      << formatDouble(kOffOverheadLimit * 100.0, 0)
                      << "% bound.\n";
            return 0;
        }
        const double off = results[1].overheadPct / 100.0;
        const double full = results[3].overheadPct / 100.0;
        if (off > kOffOverheadLimit || full > kFullOverheadLimit) {
            std::cout << "FLOOR CHECK FAILED: overhead off="
                      << formatDouble(off * 100.0, 2) << "% (limit "
                      << formatDouble(kOffOverheadLimit * 100.0, 0)
                      << "%), full="
                      << formatDouble(full * 100.0, 2) << "% (limit "
                      << formatDouble(kFullOverheadLimit * 100.0, 0)
                      << "%)\n";
            return 1;
        }
        std::cout << "Floor check passed: overhead off="
                  << formatDouble(off * 100.0, 2) << "%, full="
                  << formatDouble(full * 100.0, 2) << "%.\n";
    }
    return 0;
}
