/**
 * @file
 * Table 2 reproduction: throughput of the original (static-batch)
 * implementations vs LightLLM (continuous batching + Past-Future)
 * for Qwen-VL-Chat, LLaVA-1.5-7B and LLaVA-1.5-13B on a
 * TextVQA-like multimodal workload.
 *
 * Expected shape (paper): LightLLM gains roughly 1.5-2x throughput
 * (paper: +50% on Qwen-VL-Chat, +60% on LLaVA-1.5-7B, +87% on
 * LLaVA-1.5-13B) because the image-token prefix inflates per-slot
 * padding in static batching, while continuous batching recycles
 * finished requests' memory immediately.
 */

#include <iostream>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "engine/static_engine.hh"

using namespace lightllm;
using namespace lightllm::bench;

int
main()
{
    std::cout << "# Table 2: multimodal serving throughput "
                 "(TextVQA-like workload, A100-80G)\n\n";

    TextTable table({"Model", "Origin (static batch) tok/s",
                     "LightLLM (Past-Future) tok/s", "Speedup"});

    for (const char *model : {"qwen-vl-chat", "llava15-7b",
                              "llava15-13b"}) {
        // LightLLM: continuous batching + Past-Future scheduler,
        // offline throughput measurement (all requests queued). The
        // textvqa image prefix follows the model.
        cli::CliOptions options = schedulerOptions(
            "past_future", &cli::CliOptions::reservedRatio, 0.05);
        options.model = model;
        options.workload = "textvqa";
        options.requests = smokeSize(1500, 120);
        options.clients = options.requests;
        options.seed = 71;
        const cli::Scenario scenario = paperCell(options, 72);
        const auto lightllm = cli::runScenario(scenario);

        // Origin: HF-style static batching over contiguous memory.
        // Batch size 32 mirrors the modest batches the original
        // implementations served with (capacity-sized batches would
        // decode-until-slowest far longer and flatter the baseline).
        engine::StaticEngineConfig origin_config;
        origin_config.batchSize = 32;
        const auto origin = engine::runStaticBatch(
            scenario.perf, scenario.dataset, origin_config);

        const double origin_tput = origin.throughputTokensPerSec();
        const double lightllm_tput =
            lightllm.throughputTokensPerSec();
        table.addRow({scenario.perf.modelSpec().name,
                      formatDouble(origin_tput, 2),
                      formatDouble(lightllm_tput, 2),
                      formatDouble(lightllm_tput / origin_tput, 2) +
                          "x"});
    }
    table.print(std::cout);

    std::cout << "\nReading: both engines serve the same requests "
                 "on the same simulated hardware; only the batching "
                 "and scheduling differ.\n";
    return 0;
}
