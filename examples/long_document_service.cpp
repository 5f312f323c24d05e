/**
 * @file
 * Long-document analysis service (the fourth workload the paper's
 * introduction motivates, alongside chat, code and multimodal).
 *
 * Mooncake-style traffic: prompts of ~8-10k tokens (whole
 * documents) with medium answers, arriving open-loop as a Poisson
 * stream. Document serving is *input-dominated*: a request's
 * resident KV is mostly prompt, so even the conservative policy's
 * worst-case reservation is only ~20% above reality and the
 * admission policies nearly agree — the prefill-heavy finding of
 * Figure 7's Distribution-3 panel taken to the extreme. What does
 * matter is that every admission is a ~1 s whole-document prefill
 * that stalls all running decodes, so split-fuse chunking is the
 * difference between meeting and missing the MTPOT SLA.
 *
 * The example also demonstrates the report-export API: per-request
 * CSV and a summary JSON for offline analysis.
 */

#include <filesystem>
#include <iostream>

#include "base/str_util.hh"
#include "base/table.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "workload/arrivals.hh"
#include "workload/client_pool.hh"
#include "workload/trace_gen.hh"

using namespace lightllm;

namespace {

metrics::RunReport
serveDocuments(const core::SchedulerConfig &scheduler_config,
               bool split_fuse, double arrival_rate_per_s)
{
    // 13B on 2x A100 for the long-context headroom.
    model::PerfModel perf(
        model::ModelSpec::llama2_13b(),
        model::HardwareSpec::a100_80g().withTensorParallel(2));

    const auto dataset = workload::makeLongDocTrace(300, 23);
    const auto history = workload::makeLongDocTrace(1000, 24);

    core::SchedulerConfig config = scheduler_config;
    config.pastFuture.seedOutputLen = dataset.maxNewTokens;
    config.pastFuture.initialHistory = history.effectiveOutputLens();

    engine::EngineConfig engine_config;
    engine_config.splitFuseChunk = split_fuse ? 1024 : 0;

    engine::ServingEngine engine(
        perf, core::makeSchedulingPolicy(config), engine_config);
    workload::submitPoissonArrivals(dataset, engine,
                                    arrival_rate_per_s, 67);
    return engine.run();
}

} // namespace

int
main()
{
    const double arrival_rate = 0.35;  // documents per second
    const auto sla = metrics::SlaSpec::small7b13b();

    std::cout << "Long-document analysis: Llama-2-13B on 2x "
                 "A100-80G, ~8-10k-token documents arriving at "
              << formatDouble(arrival_rate, 2) << " req/s "
              << "(open-loop Poisson)\n\n";

    struct Row
    {
        const char *label;
        core::SchedulerConfig config;
        bool splitFuse;
    };
    const std::vector<Row> rows = {
        {"Conservative", core::SchedulerConfig::conservative(),
         false},
        {"Aggressive (watermark=95%)",
         core::SchedulerConfig::aggressive(0.95), false},
        {"Past-Future (reserved=5%)",
         core::SchedulerConfig::pastFutureDefault(0.05), false},
        {"Past-Future + split-fuse",
         core::SchedulerConfig::pastFutureDefault(0.05), true},
    };

    TextTable table({"Configuration", "Goodput tok/s",
                     "SLA compliant", "p99 TTFT s", "p99 MTPOT s",
                     "Mem util"});
    metrics::RunReport exported;
    for (const auto &row : rows) {
        const auto report =
            serveDocuments(row.config, row.splitFuse, arrival_rate);
        const auto digest = report.latencyDigest();
        table.addRow(
            {row.label,
             formatDouble(report.goodputTokensPerSec(sla), 1),
             formatPercent(report.slaCompliantFraction(sla), 1),
             formatDouble(digest.ttftPercentile(0.99), 2),
             formatDouble(digest.mtpotPercentile(0.99), 2),
             formatPercent(report.avgConsumedMemory, 1)});
        if (row.splitFuse)
            exported = report;
    }
    table.print(std::cout);

    // Export the winning configuration's report for offline
    // analysis (plotting, regression tracking).
    const auto csv_path = std::filesystem::temp_directory_path() /
        "lightllm_longdoc_requests.csv";
    if (!metrics::writeRequestsCsvFile(csv_path.string(), exported,
                                       sla)) {
        std::cerr << "cannot write " << csv_path.string() << "\n";
        return 1;
    }
    std::cout << "\nPer-request records written to "
              << csv_path.string() << "\nSummary:\n";
    metrics::writeSummaryJson(std::cout, exported, sla);

    std::cout << "\nInput-dominated serving: admission policies "
                 "nearly agree (prompts dwarf outputs), but "
                 "whole-document prefills stall decodes past the "
                 "MTPOT limit - split-fuse chunking is what keeps "
                 "the SLA.\n";
    return 0;
}
