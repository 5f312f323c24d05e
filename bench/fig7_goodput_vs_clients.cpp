/**
 * @file
 * Figure 7 reproduction: goodput under different numbers of
 * closed-loop clients for the three schedulers, across the four
 * datasets (ShareGPT-o1, Distribution-1/2/3) and three model scales
 * (7B and 13B on one A100-80G, 70B on 4x A100-80G).
 *
 * Expected shape (paper): all schedulers tie at light load; the
 * conservative scheduler plateaus lowest; the aggressive scheduler
 * tracks Past-Future until memory saturates and then collapses
 * (eviction storms, worst on decode-heavy datasets); Past-Future
 * reaches the highest goodput and degrades most gracefully.
 *
 * Client counts are sized relative to each configuration's token
 * capacity (see DESIGN.md: the simulated A100 reaches its queueing
 * wall at smaller absolute client counts than the paper's testbed,
 * so the x-axis is expressed as a load fraction).
 */

#include <functional>
#include <iostream>
#include <utility>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "metrics/sla.hh"

using namespace lightllm;
using namespace lightllm::bench;

namespace {

struct ModelSetup
{
    std::string label;
    model::ModelSpec model;
    model::HardwareSpec hardware;
    metrics::SlaSpec sla;
};

using DatasetMaker =
    std::function<workload::Dataset(std::size_t, std::uint64_t)>;

void
sweepDataset(const ModelSetup &setup, const std::string &name,
             const DatasetMaker &make,
             std::vector<bench::JsonRow> &rows)
{
    const model::PerfModel perf(setup.model, setup.hardware);
    const std::size_t n_requests = smokeSize(400, 48);
    const auto reference = make(n_requests, 1001);
    const auto history = make(smokeSize(1000, 120), 2002);

    std::cout << "## " << setup.label << " - " << name << "\n\n";

    const std::vector<double> load_fractions = smokeTruncate(
        std::vector<double>{0.2, 0.4, 0.6, 0.75, 0.85, 1.0, 1.2},
        2);
    const int replicas = smokeMode() ? 1 : 3;

    std::vector<std::string> headers{"Scheduler"};
    for (double fraction : load_fractions) {
        headers.push_back(
            "load " + formatDouble(fraction, 2) + " (n=" +
            std::to_string(sizeClients(perf, reference, fraction)) +
            ")");
    }
    TextTable table(headers);

    for (const auto &entry : figure7Lineup()) {
        std::vector<std::string> row{entry.label};
        for (double fraction : load_fractions) {
            double goodput_sum = 0.0;
            // Label the sweep point like the table header does —
            // from the fixed reference dataset, not whichever
            // replica happened to run last.
            const std::size_t clients =
                sizeClients(perf, reference, fraction);
            for (int replica = 0; replica < replicas; ++replica) {
                const auto dataset =
                    make(n_requests,
                         1001 + static_cast<std::uint64_t>(replica));
                ServeOptions options;
                options.numClients =
                    sizeClients(perf, dataset, fraction);
                options.warmHistory = history.effectiveOutputLens();
                const auto report = runClosedLoop(
                    perf, entry.config, dataset, options);
                goodput_sum +=
                    report.goodputTokensPerSec(setup.sla);
            }
            const double goodput = goodput_sum / replicas;
            row.push_back(formatDouble(goodput, 0));
            rows.push_back(bench::JsonRow{
                {"model", setup.label},
                {"dataset", name},
                {"scheduler", entry.label},
                {"load_fraction", fraction},
                {"clients", static_cast<double>(clients)},
                {"goodput_tok_s", goodput},
            });
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "# Figure 7: goodput (tokens/s) vs closed-loop "
                 "client load\n\n";

    const std::vector<ModelSetup> setups = smokeTruncate(
        std::vector<ModelSetup>{
            {"Llama-2-7B-Chat / A100-80G",
             model::ModelSpec::llama2_7b(),
             model::HardwareSpec::a100_80g(),
             metrics::SlaSpec::small7b13b()},
            {"Llama-2-13B-Chat / A100-80G",
             model::ModelSpec::llama2_13b(),
             model::HardwareSpec::a100_80g(),
             metrics::SlaSpec::small7b13b()},
            {"Llama-2-70B-Chat / 4x A100-80G (NVLink)",
             model::ModelSpec::llama2_70b(),
             model::HardwareSpec::a100_80g().withTensorParallel(4),
             metrics::SlaSpec::large70b()},
        },
        1);

    const std::vector<std::pair<std::string, DatasetMaker>>
        datasets = smokeTruncate(
            std::vector<std::pair<std::string, DatasetMaker>>{
                {"ShareGPT-o1",
                 [](std::size_t n, std::uint64_t seed) {
                     return workload::makeShareGptO1(n, seed);
                 }},
                {"Distribution-1 (decode-heavy)",
                 [](std::size_t n, std::uint64_t seed) {
                     return workload::makeDistribution1(n, seed);
                 }},
                {"Distribution-2 (balanced)",
                 [](std::size_t n, std::uint64_t seed) {
                     return workload::makeDistribution2(n, seed);
                 }},
                {"Distribution-3 (prefill-heavy)",
                 [](std::size_t n, std::uint64_t seed) {
                     return workload::makeDistribution3(n, seed);
                 }},
            },
            1);

    std::vector<bench::JsonRow> rows;
    for (const auto &setup : setups)
        for (const auto &[name, make] : datasets)
            sweepDataset(setup, name, make, rows);

    bench::writeJson("BENCH_fig7_goodput.json", "fig7_goodput",
                     rows);
    std::cout << "Wrote BENCH_fig7_goodput.json ("
              << (smokeMode() ? "smoke" : "full") << " mode).\n"
                 "Reading: goodput counts only tokens of requests "
                 "meeting the SLA (7B/13B: TTFT < 10 s, MTPOT < "
                 "1.5 s; 70B: 15 s / 5 s).\n";
    return 0;
}
