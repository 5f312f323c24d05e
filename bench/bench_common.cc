#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>

#include "base/logging.hh"

namespace lightllm {
namespace bench {

bool
smokeMode()
{
    const char *value = std::getenv("PFS_BENCH_SMOKE");
    return value != nullptr && value[0] != '\0';
}

std::size_t
smokeSize(std::size_t full, std::size_t smoke)
{
    return smokeMode() ? smoke : full;
}

void
writeJson(const std::string &name, const std::vector<JsonRow> &rows)
{
    const std::string path = "BENCH_" + name + ".json";
    // A file that failed to open stays failed, so the one check
    // after the last write covers opening and writing.
    std::ofstream file(path);
    file.precision(std::numeric_limits<double>::max_digits10);
    file << "{\n  \"bench\": \"" << name << "\",\n"
         << "  \"smoke\": " << (smokeMode() ? "true" : "false")
         << ",\n  \"rows\": [\n";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        file << "    {";
        for (std::size_t k = 0; k < rows[r].size(); ++k) {
            const JsonValue &value = rows[r][k].second;
            file << (k == 0 ? "" : ", ") << '"' << rows[r][k].first
                 << "\": ";
            if (value.isString) {
                // Labels come from bench code, not user input;
                // reject rather than escape the problematic ones.
                LIGHTLLM_ASSERT(
                    value.str.find('"') == std::string::npos &&
                        value.str.find('\\') == std::string::npos,
                    "label needs JSON escaping in bench ", name,
                    ": ", value.str);
                file << '"' << value.str << '"';
            } else {
                // inf/nan are not JSON; fail at write time instead
                // of archiving an unparseable artifact.
                LIGHTLLM_ASSERT(std::isfinite(value.num),
                                "non-finite value for key ",
                                rows[r][k].first, " in bench ",
                                name);
                file << value.num;
            }
        }
        file << (r + 1 < rows.size() ? "},\n" : "}\n");
    }
    file << "  ]\n}\n";
    if (!file) {
        std::cerr << name << ": cannot write bench result file: "
                  << path << "\n";
        std::exit(1);
    }
    std::cout << "Wrote " << path << " ("
              << (smokeMode() ? "smoke" : "full") << " mode)";
}

cli::Scenario
paperCell(const cli::CliOptions &options, std::uint64_t warm_seed,
          double load, const workload::Dataset *dataset)
{
    cli::Scenario scenario = dataset != nullptr
        ? cli::assembleScenario(options, *dataset)
        : cli::assembleScenario(options);
    cli::CliOptions warm = options;
    warm.requests = smokeSize(1000, 120);
    warm.seed = warm_seed;
    scenario.schedulerConfig.pastFuture.initialHistory =
        cli::assembleScenario(warm).dataset.effectiveOutputLens();
    if (load > 0.0) {
        // Mean resident footprint of an in-flight request is its
        // prompt plus about half its final output.
        const double resident = scenario.dataset.meanInputLen() +
            scenario.dataset.meanOutputLen() / 2.0;
        const double clients = load *
            static_cast<double>(scenario.perf.tokenCapacity()) /
            resident;
        scenario.clients =
            static_cast<std::size_t>(std::max(1.0, clients));
    }
    return scenario;
}

TimedRun
timedRun(const cli::Scenario &scenario,
         trace::TraceRecorder *recorder)
{
    const auto start = std::chrono::steady_clock::now();
    TimedRun run;
    run.report = cli::runScenario(scenario, recorder);
    run.wallMillis = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return run;
}

double
servedEvents(const metrics::RunReport &report)
{
    return static_cast<double>(report.decodeSteps) +
        static_cast<double>(report.prefillIterations) +
        2.0 * static_cast<double>(report.numFinished);
}

cli::CliOptions
schedulerOptions(const std::string &name,
                 double cli::CliOptions::*parameter, double value)
{
    cli::CliOptions options;
    options.scheduler = name;
    if (parameter != nullptr)
        options.*parameter = value;
    return options;
}

std::vector<SchedulerLineup>
figure7Lineup()
{
    return {
        {"Conservative", schedulerOptions("conservative")},
        {"Aggressive (watermark=99%)",
         schedulerOptions("aggressive", &cli::CliOptions::watermark,
                          0.99)},
        {"Past-Future (ours)",
         schedulerOptions("past_future",
                          &cli::CliOptions::reservedRatio, 0.05)},
    };
}

} // namespace bench
} // namespace lightllm
