/**
 * @file
 * Quickstart: serve a chat workload with three schedulers and
 * compare goodput under the paper's SLA.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "base/table.hh"
#include "base/str_util.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "workload/client_pool.hh"
#include "workload/datasets.hh"

using namespace lightllm;

namespace {

/** Run one scheduler over the workload with N closed-loop clients. */
metrics::RunReport
serveWith(const core::SchedulerConfig &scheduler_config,
          const workload::Dataset &dataset, std::size_t num_clients)
{
    // Llama-2-7B on a single A100-80G, as in the paper's Figure 7.
    model::PerfModel perf(model::ModelSpec::llama2_7b(),
                          model::HardwareSpec::a100_80g());

    // Warm-start the Past-Future history window as a long-running
    // service would be: seeded with max_new_tokens (§4) and then
    // fed the previous traffic window of the same service (the
    // adjacent-window similarity of Figure 3 is what makes this
    // history predictive).
    core::SchedulerConfig config = scheduler_config;
    config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    config.pastFuture.initialHistory =
        workload::makeShareGptO1(1000, 7).effectiveOutputLens();

    engine::ServingEngine engine(perf,
                                 core::makeSchedulingPolicy(config));

    workload::ClosedLoopClientPool clients(num_clients, dataset,
                                           engine);
    engine.setOnFinish([&](const workload::RequestSpec &spec,
                           Tick tick) {
        clients.onRequestFinished(spec.id, tick);
    });
    clients.start();

    return engine.run();
}

} // namespace

int
main()
{
    const std::size_t num_requests = 400;
    const std::size_t num_clients = 56;
    const auto dataset = workload::makeShareGptO1(num_requests, 42);
    const auto sla = metrics::SlaSpec::small7b13b();

    std::cout << "Workload: " << dataset.name << ", "
              << num_requests << " requests, mean input "
              << formatDouble(dataset.meanInputLen(), 0)
              << " tok, mean output "
              << formatDouble(dataset.meanOutputLen(), 0)
              << " tok, " << num_clients << " clients\n\n";

    const std::vector<core::SchedulerConfig> configs = {
        core::SchedulerConfig::conservative(),
        core::SchedulerConfig::aggressive(0.99),
        core::SchedulerConfig::pastFutureDefault(0.05),
        core::SchedulerConfig::oracle(),
    };

    TextTable table({"Scheduler", "Goodput tok/s", "Throughput tok/s",
                     "p99 TTFT s", "p99 MTPOT s", "Evicted",
                     "Mem util"});
    for (const auto &config : configs) {
        const auto report = serveWith(config, dataset, num_clients);
        const auto digest = report.latencyDigest();
        table.addRow({report.schedulerName,
                      formatDouble(report.goodputTokensPerSec(sla), 1),
                      formatDouble(report.throughputTokensPerSec(), 1),
                      formatDouble(digest.ttftPercentile(0.99), 2),
                      formatDouble(digest.mtpotPercentile(0.99), 2),
                      formatPercent(report.evictedReqRatio(), 1),
                      formatPercent(report.avgConsumedMemory, 1)});
    }
    table.print(std::cout);

    std::cout << "\nThe Past-Future scheduler should match or beat "
                 "both baselines on goodput.\n";
    return 0;
}
