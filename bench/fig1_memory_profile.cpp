/**
 * @file
 * Figure 1 reproduction: current consumed memory (solid line in the
 * paper), true future required memory (dashed), and request
 * eviction rate for the three schedulers under a prefill-heavy and
 * a decode-heavy distribution.
 *
 * Expected shape (paper): the conservative scheduler leaves both
 * curves far below capacity; the aggressive scheduler pins consumed
 * memory at the watermark while its future requirement exceeds 100%
 * and its eviction rate explodes on the decode-heavy workload; the
 * Past-Future scheduler keeps future-required just below 100% with
 * near-zero evictions.
 */

#include <cstdlib>
#include <iostream>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "memory/kv_block_manager.hh"
#include "trace/trace_recorder.hh"

using namespace lightllm;
using namespace lightllm::bench;

namespace {

/** Every this many decode steps, one point of the time series. */
constexpr std::size_t kSampleEvery = 25;

/** Trace events retained per run; a run that overflows the ring
 *  fails the bench rather than plot a truncated series. */
constexpr std::size_t kTraceRing = std::size_t{1} << 20;

/**
 * The true future required memory M* in tokens at every
 * kSampleEvery-th decode step: the flight recorder's per-step
 * `kv_future_true` counters.
 */
std::vector<TokenCount>
sampledFutureTokens(const trace::EngineTrace &sink)
{
    std::vector<TokenCount> series;
    std::size_t step = 0;
    for (std::size_t i = 0; i < sink.ring().size(); ++i) {
        const trace::TraceEvent &event = sink.ring().at(i);
        if (event.name == trace::TraceName::KvFutureTrue &&
            ++step % kSampleEvery == 0)
            series.push_back(event.arg0);
    }
    return series;
}

/** One panel: `requests` of --workload at --seed `seed`, warmed by
 *  a history window drawn at seed + 1. */
void
profileDataset(const std::string &workload, std::size_t requests,
               std::uint64_t seed)
{
    cli::CliOptions options;
    options.workload = workload;
    options.requests = requests;
    options.seed = seed;
    const workload::Dataset dataset =
        cli::assembleScenario(options).dataset;

    std::cout << "### " << dataset.name << " (mean input "
              << formatDouble(dataset.meanInputLen(), 0)
              << ", mean output "
              << formatDouble(dataset.meanOutputLen(), 0)
              << " tokens)\n\n";

    TextTable table({"Scheduler", "Consumed memory",
                     "Future required", "Evicted reqs",
                     "Timeline (future required, 12 samples)"});
    for (const auto &entry : figure7Lineup()) {
        cli::CliOptions cell = entry.options;
        cell.workload = workload;
        cell.requests = requests;
        cell.seed = seed;
        const cli::Scenario scenario = paperCell(cell, seed + 1, 1.4);
        trace::TraceConfig trace_config;
        trace_config.detail = trace::TraceDetail::Steps;
        trace_config.ringCapacity = kTraceRing;
        trace::TraceRecorder recorder(trace_config);
        const auto report = cli::runScenario(scenario, &recorder);
        if (recorder.totalDropped() > 0) {
            std::cerr << "fig1_memory_profile: " << entry.label
                      << " overflowed the trace ring ("
                      << recorder.totalDropped()
                      << " events dropped)\n";
            std::exit(1);
        }

        // The engine's KV capacity: whole blocks of the model's.
        const double capacity = static_cast<double>(
            memory::KvBlockManager(scenario.perf.tokenCapacity(),
                                   scenario.engineConfig.blockSize)
                .capacityTokens());
        // Downsample the future-required series to 12 points.
        std::string sparkline;
        const std::vector<TokenCount> series =
            sampledFutureTokens(recorder.engines().front());
        const std::size_t samples = 12;
        for (std::size_t s = 0; s < samples && !series.empty();
             ++s) {
            const std::size_t index =
                s * series.size() / samples;
            if (s > 0)
                sparkline += " ";
            const double future =
                static_cast<double>(series[index]) / capacity;
            sparkline += formatDouble(future * 100.0, 0);
        }

        table.addRow({entry.label,
                      formatPercent(report.avgConsumedMemory, 1),
                      formatPercent(report.avgFutureRequired, 1),
                      formatPercent(report.evictedReqRatio(), 1),
                      sparkline});
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    std::cout << "# Figure 1: memory behaviour of request "
                 "schedulers (Llama-2-7B, A100-80G)\n\n";
    const std::size_t n = smokeSize(700, 60);

    // Prefill-heavy panel (left in the paper).
    profileDataset("dist3", n, 301);

    // Decode-heavy panel (right in the paper).
    profileDataset("dist1", n, 303);

    std::cout << "Reading: 'Future required' > 100% means the "
                 "running batch is guaranteed to outgrow memory "
                 "and evict; far below 100% means wasted memory.\n";
    return 0;
}
