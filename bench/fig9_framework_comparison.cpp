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

#include <iostream>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "engine/framework_profile.hh"
#include "metrics/sla.hh"

using namespace lightllm;
using namespace lightllm::bench;

namespace {

struct Setup
{
    std::string label;
    model::ModelSpec model;
    model::HardwareSpec hardware;
    metrics::SlaSpec sla;
};

void
runSetup(const Setup &setup, bool equal_backends = false)
{
    const model::PerfModel reference(setup.model, setup.hardware);
    const auto dataset =
        workload::makeShareGpt(smokeSize(500, 48), 91);
    const auto history =
        workload::makeShareGpt(smokeSize(1000, 120), 92);

    std::cout << "## " << setup.label
              << (equal_backends ? " [sensitivity: all backend "
                                   "speed factors = 1]"
                                 : "")
              << "\n\n";
    TextTable table({"Framework", "Scheduler", "Max throughput",
                     "Goodput (SLA)", "Evicted", "p99 TTFT s"});

    for (auto profile : engine::FrameworkProfile::all()) {
        if (equal_backends)
            profile.timeFactor = 1.0;
        // Each framework runs at two load levels; report the best
        // observed throughput and the best observed goodput (the
        // paper's dashed and solid bars).
        double best_throughput = 0.0;
        double best_goodput = 0.0;
        double evicted_at_best = 0.0;
        double ttft_at_best = 0.0;
        for (double fraction :
             smokeTruncate(std::vector<double>{0.8, 1.2}, 1)) {
            ServeOptions options;
            options.numClients =
                sizeClients(reference, dataset, fraction);
            options.warmHistory = history.effectiveOutputLens();
            options.engineConfig = profile.toEngineConfig();
            const auto report =
                runClosedLoop(reference, profile.scheduler, dataset,
                              options);
            best_throughput = std::max(
                best_throughput, report.throughputTokensPerSec());
            const double goodput =
                report.goodputTokensPerSec(setup.sla);
            if (goodput > best_goodput) {
                best_goodput = goodput;
                evicted_at_best = report.evictedReqRatio();
                ttft_at_best =
                    report.latencyDigest().ttftPercentile(0.99);
            }
        }
        table.addRow(
            {profile.name,
             core::schedulerKindName(profile.scheduler.kind),
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

    std::vector<Setup> setups;
    // 7B row: single-GPU platforms.
    for (const auto &hw :
         {model::HardwareSpec::a100_80g(), model::HardwareSpec::h800(),
          model::HardwareSpec::rtx4090(), model::HardwareSpec::a30()}) {
        setups.push_back({"Llama-2-7B-Chat / " + hw.name,
                          model::ModelSpec::llama2_7b(), hw,
                          metrics::SlaSpec::small7b13b()});
    }
    // 13B row: A100/H800 single GPU; 4090 and A30 need 2-way TP.
    setups.push_back({"Llama-2-13B-Chat / A100-80G",
                      model::ModelSpec::llama2_13b(),
                      model::HardwareSpec::a100_80g(),
                      metrics::SlaSpec::small7b13b()});
    setups.push_back({"Llama-2-13B-Chat / H800",
                      model::ModelSpec::llama2_13b(),
                      model::HardwareSpec::h800(),
                      metrics::SlaSpec::small7b13b()});
    setups.push_back({"Llama-2-13B-Chat / RTX-4090 x2",
                      model::ModelSpec::llama2_13b(),
                      model::HardwareSpec::rtx4090()
                          .withTensorParallel(2),
                      metrics::SlaSpec::small7b13b()});
    setups.push_back({"Llama-2-13B-Chat / A30 x2",
                      model::ModelSpec::llama2_13b(),
                      model::HardwareSpec::a30().withTensorParallel(2),
                      metrics::SlaSpec::small7b13b()});
    // 70B row.
    setups.push_back({"Llama-2-70B-Chat / A100-80G x4",
                      model::ModelSpec::llama2_70b(),
                      model::HardwareSpec::a100_80g()
                          .withTensorParallel(4),
                      metrics::SlaSpec::large70b()});
    setups.push_back({"Llama-2-70B-Chat / H800 x4",
                      model::ModelSpec::llama2_70b(),
                      model::HardwareSpec::h800()
                          .withTensorParallel(4),
                      metrics::SlaSpec::large70b()});
    setups.push_back({"Llama-2-70B-Chat / RTX-4090 x8",
                      model::ModelSpec::llama2_70b(),
                      model::HardwareSpec::rtx4090()
                          .withTensorParallel(8),
                      metrics::SlaSpec::large70b()});

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
