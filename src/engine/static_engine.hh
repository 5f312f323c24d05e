/**
 * @file
 * Static-batching engine — the "origin implementation" baseline of
 * Table 2.
 *
 * Models the HuggingFace-style serving of the original Qwen-VL /
 * LLaVA releases: requests are grouped into fixed batches, prompts
 * are padded to the longest prompt in the batch, every sequence
 * reserves prompt_max + max_new_tokens contiguous KV slots for the
 * batch lifetime, and the whole batch decodes until its slowest
 * member finishes. Early finishers keep occupying their padded slots
 * — that memory and compute waste is exactly what continuous
 * batching plus the Past-Future scheduler recovers in Table 2.
 */

#ifndef LIGHTLLM_ENGINE_STATIC_ENGINE_HH
#define LIGHTLLM_ENGINE_STATIC_ENGINE_HH

#include "base/types.hh"
#include "metrics/report.hh"
#include "model/perf_model.hh"
#include "workload/datasets.hh"

namespace lightllm {
namespace engine {

/** Configuration of the static-batch baseline. */
struct StaticEngineConfig
{
    /**
     * Fixed batch size; 0 derives the largest batch whose padded
     * worst-case (max prompt + max_new_tokens per slot) fits the KV
     * capacity.
     */
    std::size_t batchSize = 0;
};

/**
 * Run the dataset through the static-batch engine.
 *
 * All requests are assumed queued at t = 0 (offline throughput
 * measurement, as in Table 2).
 */
metrics::RunReport runStaticBatch(const model::PerfModel &perf,
                                  const workload::Dataset &dataset,
                                  const StaticEngineConfig &config = {});

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_STATIC_ENGINE_HH
