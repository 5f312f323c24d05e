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

/** One dataset panel: `workload` at --seed `seed`, warmed by a
 *  history window drawn at seed + 1. */
void
runDataset(const std::string &title, const std::string &workload,
           std::uint64_t seed, double conservative_oc,
           std::vector<bench::JsonRow> &json_rows)
{
    std::cout << "## " << title << "\n\n";

    using O = cli::CliOptions;
    const std::vector<SchedulerLineup> rows = smokeTruncate(
        std::vector<SchedulerLineup>{
            {"Theoretical optimum", schedulerOptions("oracle")},
            {"Past-Future (reserved=3%)",
             schedulerOptions("past_future", &O::reservedRatio, 0.03)},
            {"Past-Future (reserved=5%)",
             schedulerOptions("past_future", &O::reservedRatio, 0.05)},
            {"Past-Future (reserved=10%)",
             schedulerOptions("past_future", &O::reservedRatio, 0.10)},
            {"Aggressive (watermark=99%)",
             schedulerOptions("aggressive", &O::watermark, 0.99)},
            {"Aggressive (watermark=95%)",
             schedulerOptions("aggressive", &O::watermark, 0.95)},
            {"Aggressive (watermark=90%)",
             schedulerOptions("aggressive", &O::watermark, 0.90)},
            {"Conservative (no overcommit)",
             schedulerOptions("conservative", &O::overcommit, 1.0)},
            {"Conservative (overcommit=" +
                 formatPercent(conservative_oc, 0) + ")",
             schedulerOptions("conservative", &O::overcommit,
                              conservative_oc)},
        },
        3);

    TextTable table({"Method", "Decoding steps", "Consumed memory",
                     "Future required", "Evicted reqs"});
    for (const auto &row : rows) {
        cli::CliOptions options = row.options;
        options.workload = workload;
        options.requests = smokeSize(1000, 80);
        options.seed = seed;
        options.warmupRequests = smokeSize(150, 0);
        const auto report =
            cli::runScenario(paperCell(options, seed + 1, 1.5));
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

    std::vector<bench::JsonRow> rows;
    runDataset("Distribution-1 (decode-heavy)", "dist1", 11, 1.5, rows);
    runDataset("Distribution-2 (balanced)", "dist2", 13, 1.25, rows);
    runDataset("Distribution-3 (prefill-heavy)", "dist3", 15, 1.5,
               rows);

    bench::writeJson("table1_ablation", rows);
    std::cout << ".\nReading: fewer decoding steps means larger "
                 "batches per step (better throughput); evicted "
                 "reqs is eviction events / finished requests and "
                 "can exceed 100% when requests bounce repeatedly.\n";
    return 0;
}
