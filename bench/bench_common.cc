#include "bench_common.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "base/logging.hh"
#include "engine/serving_engine.hh"
#include "workload/client_pool.hh"

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
writeJson(const std::string &path, const std::string &name,
          const std::vector<JsonRow> &rows)
{
    std::ofstream file(path);
    if (!file)
        fatal("cannot open bench result file for writing: ", path);
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
    if (!file)
        fatal("error while writing bench result file: ", path);
}

metrics::RunReport
runClosedLoop(const model::PerfModel &perf,
              core::SchedulerConfig scheduler_config,
              const workload::Dataset &dataset,
              const ServeOptions &options,
              trace::EngineTrace *trace)
{
    scheduler_config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    scheduler_config.pastFuture.initialHistory = options.warmHistory;

    engine::EngineConfig engine_config = options.engineConfig;
    engine_config.warmupRequests = options.warmupRequests;

    engine::ServingEngine engine(
        perf, core::makeScheduler(scheduler_config), engine_config);
    engine.attachTrace(trace);
    workload::ClosedLoopClientPool clients(options.numClients,
                                           dataset, engine);
    engine.setOnFinish(
        [&](const workload::RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    return engine.run();
}

std::size_t
sizeClients(const model::PerfModel &perf,
            const workload::Dataset &dataset, double fraction)
{
    // Mean resident footprint of an in-flight request is its prompt
    // plus about half its final output.
    const double resident =
        dataset.meanInputLen() + dataset.meanOutputLen() / 2.0;
    const double capacity =
        static_cast<double>(perf.tokenCapacity());
    const double clients = fraction * capacity / resident;
    return static_cast<std::size_t>(std::max(1.0, clients));
}

std::vector<SchedulerLineup>
figure7Lineup()
{
    return {
        {"Conservative", core::SchedulerConfig::conservative()},
        {"Aggressive (watermark=99%)",
         core::SchedulerConfig::aggressive(0.99)},
        {"Past-Future (ours)",
         core::SchedulerConfig::pastFutureDefault(0.05)},
    };
}

} // namespace bench
} // namespace lightllm
