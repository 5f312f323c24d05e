/**
 * @file
 * Trace analysis walkthrough: should you trust recent history to
 * predict output lengths on *your* service?
 *
 * Feeds a service trace (synthetic by default, or a dataset CSV of
 * production logs) through the Figure 3/4 window-similarity
 * analysis and reports whether the adjacent-window property the
 * Past-Future scheduler relies on holds, plus a suggested history
 * window size. The synthetic trace is also written out in the
 * dataset CSV format, the same file `pfs_cli --trace-replay` reads.
 *
 * Usage: trace_analysis [path/to/dataset.csv]
 */

#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "base/str_util.hh"
#include "base/table.hh"
#include "stats/window_analysis.hh"
#include "workload/trace_gen.hh"
#include "workload/trace_io.hh"

using namespace lightllm;

int
main(int argc, char **argv)
{
    workload::Dataset trace;
    if (argc > 1) {
        // A malformed row throws, naming the file and line.
        try {
            trace = workload::readDatasetCsvFile(argv[1]);
        } catch (const std::exception &error) {
            std::cerr << "trace_analysis: " << error.what() << "\n";
            return 1;
        }
        std::cout << "Loaded " << trace.requests.size()
                  << " requests from " << argv[1] << "\n\n";
    } else {
        // Demo: a mixed API service with regime shifts, the hardest
        // case for history-based prediction.
        trace = workload::makeApiTrace(30000, 97);
        const auto path =
            std::filesystem::temp_directory_path() /
            "lightllm_demo_trace.csv";
        std::ofstream file(path);
        workload::writeDatasetCsv(file, trace);
        if (!file) {
            std::cerr << "trace_analysis: cannot write "
                      << path.string() << "\n";
            return 1;
        }
        std::cout << "No trace given; synthesized an API-style "
                     "trace of "
                  << trace.requests.size()
                  << " requests (CSV copy at " << path.string()
                  << ")\n\n";
    }

    const auto outputs = trace.outputLens();

    // Global structure (Figure 3 view).
    const auto matrix =
        stats::windowSimilarityMatrix(outputs, 1000);
    std::cout << "Window similarity (1000-request windows): "
              << "adjacent mean "
              << formatDouble(matrix.adjacentMean(), 3)
              << ", global mean "
              << formatDouble(matrix.globalMean(), 3) << "\n";
    if (matrix.adjacentMean() >
        matrix.globalMean() + 0.02) {
        std::cout << "-> distribution drifts over time, but "
                     "adjacent windows stay similar: history-based "
                     "prediction is applicable (use a modest "
                     "window).\n\n";
    } else {
        std::cout << "-> distribution is stable globally: "
                     "history-based prediction is applicable.\n\n";
    }

    // Window-size selection (Figure 4 view).
    TextTable table({"History window", "Diagonal similarity",
                     "Global similarity"});
    std::size_t best_size = 0;
    double best_score = -1.0;
    for (std::size_t history : {100, 200, 500, 1000, 2000, 5000}) {
        const auto result = stats::adjacentWindowSimilarity(
            outputs, history, 500);
        table.addRow({std::to_string(history),
                      formatDouble(result.diagonalMean, 3),
                      formatDouble(result.globalMean, 3)});
        if (result.diagonalMean > best_score) {
            best_score = result.diagonalMean;
            best_size = history;
        }
    }
    table.print(std::cout);
    std::cout << "\nSuggested PastFutureParams::windowSize = "
              << best_size << " (highest adjacent-window "
              << "similarity; the paper's default of 1000 is "
              << "usually within noise of this).\n";
    return 0;
}
