/**
 * @file
 * Configuration of the continuous-batching serving engine.
 */

#ifndef LIGHTLLM_ENGINE_ENGINE_CONFIG_HH
#define LIGHTLLM_ENGINE_ENGINE_CONFIG_HH

#include <cstdint>

#include "base/types.hh"
#include "core/queue_policy.hh"

namespace lightllm {
namespace engine {

/** What happens to an evicted request's KV cache (§2.4/§6: evicted
 *  requests need "recomputation or swapping"). */
enum class EvictionMode
{
    /** Drop the KV; a later prefill recomputes prompt + generated
     *  tokens (vLLM default). */
    Recompute,

    /** Offload the KV over the host link and restore it later; no
     *  recompute, but both transfers stall the engine. */
    Swap,
};

/** Engine-level tunables (scheduler config is provided separately). */
struct EngineConfig
{
    /** KV block size in token slots (PagedAttention granularity). */
    TokenCount blockSize = 16;

    /** Split-fuse / chunked prefill (DeepSpeed-MII FastGen style):
     *  prefills are processed in chunks of this many prompt tokens
     *  fused with decode steps so the running batch never stalls on
     *  a long prompt. 0 (the default) = off: prefills run as
     *  dedicated iterations. */
    TokenCount splitFuseChunk = 0;

    /**
     * Shared-prefix KV reuse (SGLang/vLLM-style radix prefix
     * cache): admission matches a request's content-identified
     * prompt against previously prefilled blocks, allocates and
     * prefills only the uncached suffix, and finished requests'
     * full blocks stay cached (LRU-reclaimed under memory
     * pressure). Off by default; off, no prefix path runs, and the
     * golden suites pin that path's bytes.
     */
    bool prefixCache = false;

    /** Latency multiplier emulating backend efficiency differences
     *  between frameworks (< 1 is faster than the reference). */
    double timeFactor = 1.0;

    /** Which running request is evicted first on memory
     *  exhaustion, among those the queue policy ranks equal. */
    core::VictimOrder evictionPolicy = core::VictimOrder::NewestFirst;

    EvictionMode evictionMode = EvictionMode::Recompute;

    /** Cap on concurrent running requests (0 = unlimited). */
    std::size_t maxBatchSize = 0;

    /**
     * Steady-state measurement: metrics collected before this many
     * requests have finished are discarded (0 = measure everything).
     * Lets benches exclude the cold-start transient, matching the
     * paper's always-warm production setting.
     */
    std::size_t warmupRequests = 0;
};

/** A modelled latency scaled by a time factor: rounded, >= 1 tick. */
inline Tick
scaleTicks(Tick duration, double time_factor)
{
    const auto ticks = static_cast<Tick>(
        static_cast<double>(duration) * time_factor + 0.5);
    return ticks > 1 ? ticks : 1;
}

/**
 * Stop conditions for ServingEngine::run() / stepOnce(). Both are
 * checked before each iteration, never inside one: an iteration in
 * flight when a limit is reached completes, so the run's last
 * iteration may end past maxTicks or finish several requests. Once
 * a limit is reached no further event fires, so the finish
 * notifications of that last iteration (setOnFinish) stay pending.
 */
struct RunLimits
{
    /** No iteration starts once this many requests have finished
     *  (0 = no limit). */
    std::size_t maxFinishedRequests = 0;

    /**
     * No iteration starts at or after this tick (0 = no limit). An
     * idle engine's clock moves to the next arrival's tick before
     * the check, so an arrival landing in an idle gap after the
     * limit still moves the clock, and the makespan, to its own
     * tick.
     */
    Tick maxTicks = 0;
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_ENGINE_CONFIG_HH
