/**
 * @file
 * Shared harness pieces for the benches: smoke-mode sweep sizing,
 * the BENCH_*.json writer, a paper cell's warm window and load
 * sizing, run timing, and the paper's scheduler line-up.
 *
 * Every bench that serves requests runs what `pfs_cli` runs: it
 * describes each cell as cli::CliOptions, assembles it with
 * cli::assembleScenario and runs it with cli::runScenario (see
 * cli_scenario.hh). The one exception is bench/tenant_isolation,
 * which keeps its own engines: its two Poisson streams, 20 GB A100
 * and rate gate would all be patches on an assembled Scenario.
 */

#ifndef LIGHTLLM_BENCH_BENCH_COMMON_HH
#define LIGHTLLM_BENCH_BENCH_COMMON_HH

#include <string>
#include <utility>
#include <vector>

#include "cli_scenario.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace bench {

/**
 * True when the PFS_BENCH_SMOKE environment variable is set and
 * non-empty. The `bench_smoke` ctest label runs every bench in this
 * mode; benches shrink their sweeps/datasets with smokeSize() so a
 * smoke pass finishes in seconds while full runs stay unchanged.
 */
bool smokeMode();

/** `full` normally; `smoke` under PFS_BENCH_SMOKE. */
std::size_t smokeSize(std::size_t full, std::size_t smoke);

/** Truncate a sweep vector to its first `smoke` entries in smoke
 *  mode (no-op otherwise). */
template <typename T>
std::vector<T>
smokeTruncate(std::vector<T> sweep, std::size_t smoke)
{
    if (smokeMode() && sweep.size() > smoke)
        sweep.resize(smoke);
    return sweep;
}

/** One JSON scalar cell: a number or a label string. */
struct JsonValue
{
    JsonValue(double value) : num(value) {}
    JsonValue(const char *value) : str(value), isString(true) {}
    JsonValue(std::string value)
        : str(std::move(value)), isString(true)
    {
    }

    double num = 0.0;
    std::string str;
    bool isString = false;
};

/** One flat JSON object, as ordered key → scalar pairs. */
using JsonRow = std::vector<std::pair<std::string, JsonValue>>;

/**
 * Write a bench result file CI can archive, `BENCH_<name>.json`:
 * `{"bench": <name>, "smoke": <bool>, "rows": [{...}, ...]}`.
 * Numbers are emitted with enough precision to round-trip; label
 * strings are quoted (and must not need escaping). Then prints
 * `Wrote BENCH_<name>.json (<smoke|full> mode)` with no line end;
 * the caller finishes the line. On an I/O failure it prints
 * `<name>: cannot write bench result file: <path>` and exits 1.
 */
void writeJson(const std::string &name,
               const std::vector<JsonRow> &rows);

/**
 * One paper cell: `options` assembled (around `dataset` in place of
 * --workload's requests when one is given), with the Past-Future
 * window warmed by the effective output lengths of 1000 requests
 * (smoke: 120) of --workload drawn at `warm_seed` — the paper's
 * steady state, where `pfs_cli` starts cold. The draw keeps every
 * other option of the cell (model, hardware, tensor parallelism).
 * A positive `load` sets clients = max(1, load × token capacity /
 * (mean input + mean output / 2)), the in-flight footprint of a
 * request; 0 keeps --clients.
 */
cli::Scenario paperCell(const cli::CliOptions &options,
                        std::uint64_t warm_seed, double load = 0.0,
                        const workload::Dataset *dataset = nullptr);

/** A run's report and its wall-clock milliseconds. */
struct TimedRun
{
    metrics::RunReport report;
    double wallMillis = 0.0;
};

/** cli::runScenario(scenario, recorder), timed (assembly is the
 *  caller's and excluded). */
TimedRun timedRun(const cli::Scenario &scenario,
                  trace::TraceRecorder *recorder = nullptr);

/**
 * Simulated work of a completed serving run: decode steps, prefill
 * iterations, and each request's arrival and completion. It is not
 * the fired-event count, which is far lower since a decode run
 * settles many steps per Step event (DESIGN.md §8), so it stays
 * comparable across engine versions.
 */
double servedEvents(const metrics::RunReport &report);

/**
 * Options selecting `--scheduler name`, with one of its parameter
 * flags (`&cli::CliOptions::reservedRatio`, `::watermark` or
 * `::overcommit`) set to `value`; other fields keep their defaults.
 */
cli::CliOptions schedulerOptions(
    const std::string &name,
    double cli::CliOptions::*parameter = nullptr, double value = 0.0);

/** One scheduler of a paper line-up, as the pfs_cli scheduler
 *  flags that select it. */
struct SchedulerLineup
{
    std::string label;
    cli::CliOptions options;
};

/** Conservative / Aggressive(99%) / Past-Future(5%) as in Fig 7. */
std::vector<SchedulerLineup> figure7Lineup();

} // namespace bench
} // namespace lightllm

#endif // LIGHTLLM_BENCH_BENCH_COMMON_HH
