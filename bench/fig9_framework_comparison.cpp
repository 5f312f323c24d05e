/**
 * @file
 * Figure 9 reproduction: maximum throughput (dashed bars in the
 * paper) and SLA goodput (solid bars) of the five serving-framework
 * profiles — TGI, vLLM, DeepSpeed-MII, TensorRT-LLM, LightLLM —
 * on the ShareGPT workload with max_new_tokens = 2048, across the
 * paper's hardware/model pairings.
 *
 * Expected shape (paper): TensorRT-LLM/vLLM post competitive raw
 * throughput, but conservative schedulers (TGI, MII, TRT-LLM)
 * sacrifice throughput to queueing while the aggressive scheduler
 * (vLLM) sacrifices goodput to evictions; LightLLM's Past-Future
 * scheduler wins goodput on every row.
 */

#include <algorithm>
#include <iostream>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"

using namespace lightllm;
using namespace lightllm::bench;

namespace {

/**
 * One serving framework as a point in configuration space: the
 * admission policy it ships (a pfs_cli scheduler at its default
 * parameter), whether it uses split-fuse chunked prefill, and how
 * its backend speed compares (timeFactor). Speed factors are rough
 * relative efficiencies of the December-2023 versions the paper
 * benchmarked (TensorRT-LLM fastest static backend; TGI's Python
 * serving layer slowest; DESIGN.md §1); the goodput ordering is
 * driven by the scheduler, and the sensitivity section sets every
 * factor to 1.
 */
struct Framework
{
    const char *name;
    const char *scheduler;
    bool splitFuse;
    double timeFactor;
};

/** The five frameworks in the paper's Figure 9 order. */
constexpr Framework kFrameworks[] = {
    {"TGI", "conservative", false, 1.10},
    {"vLLM", "aggressive", false, 0.95},
    {"DeepSpeed-MII", "conservative", true, 1.0},
    {"TensorRT-LLM", "conservative", false, 0.80},
    {"LightLLM", "past_future", false, 0.90},
};

/** A model on its platform, as pfs_cli flags. */
struct Setup
{
    std::string label;
    std::string model;
    std::string hardware;
    int tensorParallel;
};

void
runSetup(const Setup &setup, bool equal_backends = false)
{
    std::cout << "## " << setup.label
              << (equal_backends ? " [sensitivity: all backend "
                                   "speed factors = 1]"
                                 : "")
              << "\n\n";
    TextTable table({"Framework", "Scheduler", "Max throughput",
                     "Goodput (SLA)", "Evicted", "p99 TTFT s"});

    for (const Framework &framework : kFrameworks) {
        cli::CliOptions options;
        options.model = setup.model;
        options.hardware = setup.hardware;
        options.tensorParallel = setup.tensorParallel;
        options.workload = "sharegpt";
        options.requests = smokeSize(500, 48);
        options.seed = 91;
        options.scheduler = framework.scheduler;
        options.splitFuse = framework.splitFuse;
        // Each framework runs at two load levels; report the best
        // observed throughput and the best observed goodput (the
        // paper's dashed and solid bars). Evictions and p99 TTFT
        // come from the level with the best goodput, the lighter on
        // a tie (an all-zero tie included), so no column prints a
        // value nothing measured.
        double best_throughput = 0.0;
        double best_goodput = 0.0;
        double evicted_at_best = 0.0;
        double ttft_at_best = 0.0;
        const char *scheduler = nullptr;
        const std::vector<double> fractions =
            smokeTruncate(std::vector<double>{0.8, 1.2}, 1);
        for (std::size_t level = 0; level < fractions.size();
             ++level) {
            cli::Scenario scenario =
                paperCell(options, 92, fractions[level]);
            scenario.engineConfig.timeFactor =
                equal_backends ? 1.0 : framework.timeFactor;
            scheduler =
                core::schedulerKindName(scenario.schedulerConfig.kind);
            const auto report = cli::runScenario(scenario);
            best_throughput = std::max(
                best_throughput, report.throughputTokensPerSec());
            const double goodput =
                report.goodputTokensPerSec(scenario.sla);
            if (level == 0 || goodput > best_goodput) {
                best_goodput = goodput;
                evicted_at_best = report.evictedReqRatio();
                ttft_at_best =
                    report.latencyDigest().ttftPercentile(0.99);
            }
        }
        table.addRow(
            {framework.name, scheduler,
             formatDouble(best_throughput, 0),
             formatDouble(best_goodput, 0),
             formatPercent(evicted_at_best, 1),
             formatDouble(ttft_at_best, 1)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "# Figure 9: throughput and SLA goodput across "
                 "frameworks and hardware (ShareGPT, "
                 "max_new_tokens=2048)\n\n";

    std::vector<Setup> setups = {
        // 7B row: single-GPU platforms.
        {"Llama-2-7B-Chat / A100-80G", "llama2-7b", "a100-80g", 1},
        {"Llama-2-7B-Chat / H800", "llama2-7b", "h800", 1},
        {"Llama-2-7B-Chat / RTX-4090", "llama2-7b", "rtx4090", 1},
        {"Llama-2-7B-Chat / A30", "llama2-7b", "a30", 1},
        // 13B row: A100/H800 single GPU; 4090 and A30 need 2-way TP.
        {"Llama-2-13B-Chat / A100-80G", "llama2-13b", "a100-80g", 1},
        {"Llama-2-13B-Chat / H800", "llama2-13b", "h800", 1},
        {"Llama-2-13B-Chat / RTX-4090 x2", "llama2-13b", "rtx4090",
         2},
        {"Llama-2-13B-Chat / A30 x2", "llama2-13b", "a30", 2},
        // 70B row.
        {"Llama-2-70B-Chat / A100-80G x4", "llama2-70b", "a100-80g",
         4},
        {"Llama-2-70B-Chat / H800 x4", "llama2-70b", "h800", 4},
        {"Llama-2-70B-Chat / RTX-4090 x8", "llama2-70b", "rtx4090",
         8},
    };

    setups = smokeTruncate(std::move(setups), 1);

    for (const auto &setup : setups)
        runSetup(setup);

    // Sensitivity check: the goodput ordering must be driven by the
    // schedulers, not by the assumed backend speed factors.
    runSetup(setups.front(), /*equal_backends=*/true);

    std::cout << "Reading: 'Max throughput' ignores the SLA (the "
                 "paper's dashed bars); 'Goodput' counts only "
                 "SLA-compliant requests (solid bars). Backend "
                 "speed factors are rough relative efficiencies of "
                 "the Dec-2023 framework versions (DESIGN.md); the "
                 "final sensitivity section shows the goodput "
                 "ordering survives setting them all to 1.\n";
    return 0;
}
