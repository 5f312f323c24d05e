/**
 * @file
 * Table 1 reproduction: decoding steps, current consumed memory,
 * (true) future required memory, and evicted-request ratio for the
 * theoretical optimum, Past-Future (reserved = 3/5/10%), Aggressive
 * (watermark = 99/95/90%) and Conservative (no overcommit, and with
 * overcommit) on Distribution-1/2/3 with Llama-2-7B on A100-80G.
 *
 * Expected shape (paper): the optimum tops utilization with zero
 * evictions; Past-Future approaches it with single-digit evictions
 * that shrink as the reserve grows; Aggressive reaches the highest
 * consumed memory but its future requirement exceeds 100% and its
 * eviction ratio explodes (94%+ at watermark 99% on decode-heavy);
 * Conservative never evicts but wastes ~40% of memory and needs the
 * most decoding steps; overcommit trades that waste for evictions.
 */

#include <iostream>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"

using namespace lightllm;
using namespace lightllm::bench;

namespace {

struct Row
{
    std::string label;
    core::SchedulerConfig config;
};

void
runDataset(const std::string &title, const workload::Dataset &dataset,
           const workload::Dataset &history, double conservative_oc,
           std::vector<bench::JsonRow> &json_rows)
{
    model::PerfModel perf(model::ModelSpec::llama2_7b(),
                          model::HardwareSpec::a100_80g());

    std::cout << "## " << title << "\n\n";

    const std::vector<Row> rows = smokeTruncate(std::vector<Row>{
        {"Theoretical optimum", core::SchedulerConfig::oracle()},
        {"Past-Future (reserved=3%)",
         core::SchedulerConfig::pastFutureDefault(0.03)},
        {"Past-Future (reserved=5%)",
         core::SchedulerConfig::pastFutureDefault(0.05)},
        {"Past-Future (reserved=10%)",
         core::SchedulerConfig::pastFutureDefault(0.10)},
        {"Aggressive (watermark=99%)",
         core::SchedulerConfig::aggressive(0.99)},
        {"Aggressive (watermark=95%)",
         core::SchedulerConfig::aggressive(0.95)},
        {"Aggressive (watermark=90%)",
         core::SchedulerConfig::aggressive(0.90)},
        {"Conservative (no overcommit)",
         core::SchedulerConfig::conservative(1.0)},
        {"Conservative (overcommit=" +
             formatPercent(conservative_oc, 0) + ")",
         core::SchedulerConfig::conservative(conservative_oc)},
    }, 3);

    TextTable table({"Method", "Decoding steps", "Consumed memory",
                     "Future required", "Evicted reqs"});
    for (const auto &row : rows) {
        ServeOptions options;
        options.numClients = sizeClients(perf, dataset, 1.5);
        options.warmupRequests = smokeSize(150, 0);
        options.warmHistory = history.effectiveOutputLens();
        const auto report =
            runClosedLoop(perf, row.config, dataset, options);
        table.addRow({row.label,
                      formatCount(report.decodeSteps),
                      formatPercent(report.avgConsumedMemory, 2),
                      formatPercent(report.avgFutureRequired, 2),
                      formatPercent(report.evictedReqRatio(), 2)});
        json_rows.push_back(bench::JsonRow{
            {"dataset", title},
            {"method", row.label},
            {"decode_steps",
             static_cast<double>(report.decodeSteps)},
            {"consumed_memory", report.avgConsumedMemory},
            {"future_required", report.avgFutureRequired},
            {"evicted_req_ratio", report.evictedReqRatio()},
        });
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "# Table 1: scheduler ablation on Llama-2-7B-Chat "
                 "/ A100-80G\n\n";

    const std::size_t n = smokeSize(1000, 80);
    const std::size_t history_n = smokeSize(1000, 120);
    std::vector<bench::JsonRow> rows;
    runDataset("Distribution-1 (decode-heavy)",
               workload::makeDistribution1(n, 11),
               workload::makeDistribution1(history_n, 12), 1.5,
               rows);
    runDataset("Distribution-2 (balanced)",
               workload::makeDistribution2(n, 13),
               workload::makeDistribution2(history_n, 14), 1.25,
               rows);
    runDataset("Distribution-3 (prefill-heavy)",
               workload::makeDistribution3(n, 15),
               workload::makeDistribution3(history_n, 16), 1.5,
               rows);

    bench::writeJson("BENCH_table1_ablation.json", "table1_ablation",
                     rows);
    std::cout << "Wrote BENCH_table1_ablation.json ("
              << (smokeMode() ? "smoke" : "full") << " mode).\n"
                 "Reading: fewer decoding steps means larger "
                 "batches per step (better throughput); evicted "
                 "reqs is eviction events / finished requests and "
                 "can exceed 100% when requests bounce repeatedly.\n";
    return 0;
}
