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
 * capacity (see DESIGN.md §1, "How the benches map to the paper":
 * the simulated A100 reaches its queueing wall at smaller absolute
 * client counts than the paper's testbed, so the x-axis is expressed
 * as a load fraction).
 */

#include <iostream>
#include <utility>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"

using namespace lightllm;
using namespace lightllm::bench;

namespace {

/** A model on its platform, as pfs_cli flags; the SLA follows the
 *  model size (7B/13B vs 70B) as on the CLI. */
struct ModelSetup
{
    std::string label;
    std::string model;
    int tensorParallel;
};

/** A dataset panel: its title and --workload name. */
struct DatasetPanel
{
    std::string title;
    std::string workload;
};

void
sweepDataset(const ModelSetup &setup, const DatasetPanel &panel,
             std::vector<bench::JsonRow> &rows)
{
    // One cell: the panel's workload at `seed` on the setup's model,
    // under the scheduler flags in `options`, warmed at seed 2002 and
    // loaded to `fraction`.
    const auto cell = [&](cli::CliOptions options, std::uint64_t seed,
                          double fraction) {
        options.model = setup.model;
        options.tensorParallel = setup.tensorParallel;
        options.workload = panel.workload;
        options.requests = smokeSize(400, 48);
        options.seed = seed;
        return paperCell(options, 2002, fraction);
    };

    std::cout << "## " << setup.label << " - " << panel.title
              << "\n\n";

    const std::vector<double> load_fractions = smokeTruncate(
        std::vector<double>{0.2, 0.4, 0.6, 0.75, 0.85, 1.0, 1.2},
        2);
    const int replicas = smokeMode() ? 1 : 3;

    // Sweep points are labelled from the fixed reference dataset
    // (replica 0's), not whichever replica happened to run last.
    std::vector<std::size_t> reference_clients;
    std::vector<std::string> headers{"Scheduler"};
    for (double fraction : load_fractions) {
        reference_clients.push_back(cell({}, 1001, fraction).clients);
        headers.push_back("load " + formatDouble(fraction, 2) +
                          " (n=" +
                          std::to_string(reference_clients.back()) +
                          ")");
    }
    TextTable table(headers);

    for (const auto &entry : figure7Lineup()) {
        std::vector<std::string> row{entry.label};
        for (std::size_t f = 0; f < load_fractions.size(); ++f) {
            const double fraction = load_fractions[f];
            double goodput_sum = 0.0;
            for (int replica = 0; replica < replicas; ++replica) {
                const cli::Scenario scenario = cell(
                    entry.options,
                    1001 + static_cast<std::uint64_t>(replica),
                    fraction);
                goodput_sum += cli::runScenario(scenario)
                                   .goodputTokensPerSec(scenario.sla);
            }
            const double goodput = goodput_sum / replicas;
            row.push_back(formatDouble(goodput, 0));
            rows.push_back(bench::JsonRow{
                {"model", setup.label},
                {"dataset", panel.title},
                {"scheduler", entry.label},
                {"load_fraction", fraction},
                {"clients",
                 static_cast<double>(reference_clients[f])},
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
            {"Llama-2-7B-Chat / A100-80G", "llama2-7b", 1},
            {"Llama-2-13B-Chat / A100-80G", "llama2-13b", 1},
            {"Llama-2-70B-Chat / 4x A100-80G (NVLink)", "llama2-70b",
             4},
        },
        1);

    const std::vector<DatasetPanel> panels = smokeTruncate(
        std::vector<DatasetPanel>{
            {"ShareGPT-o1", "sharegpt-o1"},
            {"Distribution-1 (decode-heavy)", "dist1"},
            {"Distribution-2 (balanced)", "dist2"},
            {"Distribution-3 (prefill-heavy)", "dist3"},
        },
        1);

    std::vector<bench::JsonRow> rows;
    for (const auto &setup : setups)
        for (const auto &panel : panels)
            sweepDataset(setup, panel, rows);

    bench::writeJson("fig7_goodput", rows);
    std::cout << ".\nReading: goodput counts only tokens of requests "
                 "meeting the SLA (7B/13B: TTFT < 10 s, MTPOT < "
                 "1.5 s; 70B: 15 s / 5 s).\n";
    return 0;
}
