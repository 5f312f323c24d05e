#include "model/perf_model.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "base/logging.hh"

namespace lightllm {
namespace model {

namespace {

// Efficiency constants of the roofline model.

/** Fraction of device memory usable after allocator overheads. */
constexpr double kUsableMemFraction = 0.92;

/** Activation / workspace reserve as a fraction of weights. */
constexpr double kActivationReserveFraction = 0.08;

/** Achievable fraction of peak bandwidth in decode kernels. */
constexpr double kBandwidthEfficiency = 0.85;

/** Achievable fraction of peak FLOPs in prefill (MFU). */
constexpr double kPrefillFlopEfficiency = 0.55;

/** Fixed per-iteration overhead (kernel launches, python glue). */
constexpr double kIterationOverheadSeconds = 0.004;

} // namespace

PerfModel::PerfModel(ModelSpec model_spec, HardwareSpec hardware_spec)
    : model_(std::move(model_spec)),
      hardware_(std::move(hardware_spec)),
      flopsPerToken_(model_.flopsPerToken()),
      flopsPerSecond_(hardware_.effectiveFlops() *
                      kPrefillFlopEfficiency),
      weightBytes_(static_cast<double>(model_.weightBytes())),
      kvBytesPerToken_(static_cast<double>(model_.kvBytesPerToken())),
      bytesPerSecond_(hardware_.effectiveBandwidth() *
                      kBandwidthEfficiency)
{
    const double usable =
        static_cast<double>(hardware_.totalMemBytes()) *
        kUsableMemFraction;
    const double weights =
        static_cast<double>(model_.weightBytes());
    const double reserve =
        weights * kActivationReserveFraction;
    const double kv_budget = usable - weights - reserve;
    if (kv_budget <= 0) {
        throw std::invalid_argument(concat(
            "model ", model_.name, " does not fit on ",
            hardware_.name, ": weights ", model_.weightBytes(),
            " B vs usable ", usable, " B"));
    }
    tokenCapacity_ = static_cast<TokenCount>(
        kv_budget / static_cast<double>(model_.kvBytesPerToken()));
    LIGHTLLM_ASSERT(tokenCapacity_ > 0, "zero token capacity");
}

double
PerfModel::computeSeconds(TokenCount tokens) const
{
    const double flops = flopsPerToken_ * static_cast<double>(tokens);
    return flops / flopsPerSecond_;
}

double
PerfModel::memorySeconds(TokenCount kv_tokens) const
{
    const double bytes =
        weightBytes_ + static_cast<double>(kv_tokens) * kvBytesPerToken_;
    return bytes / bytesPerSecond_;
}

Tick
PerfModel::prefillLatency(TokenCount prompt_tokens) const
{
    LIGHTLLM_ASSERT(prompt_tokens >= 0, "negative prompt length");
    // Compute-bound matmuls over the prompt, plus the quadratic
    // attention term (usually small next to the matmuls), but never
    // faster than a single streaming pass over the weights.
    const double matmul = computeSeconds(prompt_tokens);
    const double n = static_cast<double>(prompt_tokens);
    const double attn_flops = 4.0 * n * n *
        static_cast<double>(model_.numLayers) *
        static_cast<double>(model_.numHeads * model_.headDim);
    const double attn = attn_flops / flopsPerSecond_;
    const double weight_floor = memorySeconds(0);
    const double seconds =
        std::max(matmul + attn, weight_floor) +
        kIterationOverheadSeconds;
    return secondsToTicks(seconds);
}

Tick
PerfModel::decodeLatency(std::int64_t batch_size,
                         TokenCount batch_kv_tokens) const
{
    LIGHTLLM_ASSERT(batch_size >= 0, "negative batch size");
    LIGHTLLM_ASSERT(batch_kv_tokens >= 0, "negative KV footprint");
    return fusedStepLatency(batch_size, batch_kv_tokens, 0);
}

Tick
PerfModel::fusedStepLatency(std::int64_t batch_size,
                            TokenCount batch_kv_tokens,
                            TokenCount chunk_tokens) const
{
    // Bandwidth-bound: stream weights + the batch's KV cache once;
    // the prompt chunk adds its compute on top, and the roofline
    // keeps the compute term in case of very large batches.
    const double mem = memorySeconds(batch_kv_tokens);
    const double compute =
        computeSeconds(batch_size + chunk_tokens);
    const double seconds =
        std::max(mem, compute) + kIterationOverheadSeconds;
    return secondsToTicks(seconds);
}

Tick
PerfModel::swapLatency(TokenCount kv_tokens) const
{
    LIGHTLLM_ASSERT(kv_tokens >= 0, "negative swap size");
    const double bytes = static_cast<double>(kv_tokens) *
        static_cast<double>(model_.kvBytesPerToken());
    // KV shards move over every device's host link in parallel.
    const double bandwidth = hardware_.hostLinkBandwidth *
        static_cast<double>(hardware_.numDevices);
    const double seconds =
        bytes / bandwidth + 0.0005;  // transfer + launch overhead
    return secondsToTicks(seconds);
}

} // namespace model
} // namespace lightllm
