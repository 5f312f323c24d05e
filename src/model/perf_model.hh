/**
 * @file
 * Roofline performance model for serving iterations.
 *
 * This substitutes for GPU execution. The first-order structure of
 * LLM serving latency is:
 *
 *  - prefill is compute-bound: time ~ prompt_tokens * 2 * params /
 *    achievable FLOPs, plus a weight-read floor;
 *  - decode is memory-bandwidth-bound: every step streams the full
 *    weights plus the KV cache of the running batch from HBM;
 *  - both pay a fixed per-iteration kernel-launch/framework overhead.
 *
 * The scheduler under study only observes these durations (and the
 * memory occupancy), so reproducing this structure is sufficient for
 * the paper's experiments; absolute values are calibrated to the
 * published hardware specs and sanity-checked in tests against
 * commonly reported A100 latencies.
 */

#ifndef LIGHTLLM_MODEL_PERF_MODEL_HH
#define LIGHTLLM_MODEL_PERF_MODEL_HH

#include "base/types.hh"
#include "model/hardware_spec.hh"
#include "model/model_spec.hh"

namespace lightllm {
namespace model {

/** Latency and capacity model for one (model, hardware) pairing. */
class PerfModel
{
  public:
    /** @throws std::invalid_argument when the model's weights leave
     *          no KV budget on the hardware. */
    PerfModel(ModelSpec model_spec, HardwareSpec hardware_spec);

    /**
     * KV-cache token capacity: usable memory minus weights and
     * activation reserve, divided by KV bytes per token.
     */
    TokenCount tokenCapacity() const { return tokenCapacity_; }

    /**
     * Duration of a prefill iteration over `prompt_tokens` prompt
     * tokens (attention quadratic term included).
     */
    Tick prefillLatency(TokenCount prompt_tokens) const;

    /**
     * Duration of one decode iteration for `batch_size` requests
     * whose KV caches total `batch_kv_tokens` token slots: the
     * fused step with an empty prompt chunk.
     */
    Tick decodeLatency(std::int64_t batch_size,
                       TokenCount batch_kv_tokens) const;

    /**
     * Duration of a split-fuse iteration: a decode step over the
     * running batch fused with `chunk_tokens` prompt tokens of a
     * pending prefill (DeepSpeed-MII style).
     */
    Tick fusedStepLatency(std::int64_t batch_size,
                          TokenCount batch_kv_tokens,
                          TokenCount chunk_tokens) const;

    /**
     * Time to move `kv_tokens` of KV cache across the host link in
     * one direction (swap-based eviction / restore).
     */
    Tick swapLatency(TokenCount kv_tokens) const;

    const ModelSpec &modelSpec() const { return model_; }
    const HardwareSpec &hardwareSpec() const { return hardware_; }

  private:
    /** Compute-bound seconds to push `tokens` through the model. */
    double computeSeconds(TokenCount tokens) const;

    /** Memory-bound seconds to stream weights + `kv_tokens` of KV. */
    double memorySeconds(TokenCount kv_tokens) const;

    ModelSpec model_;
    HardwareSpec hardware_;

    // The roofline's constant factors, each computed once exactly as
    // the latencies would (a decode run prices every planned step).
    double flopsPerToken_;
    double flopsPerSecond_;
    double weightBytes_;
    double kvBytesPerToken_;
    double bytesPerSecond_;

    TokenCount tokenCapacity_ = 0;
};

} // namespace model
} // namespace lightllm

#endif // LIGHTLLM_MODEL_PERF_MODEL_HH
