/**
 * @file
 * Synthetic service traces for the Figure 3/4 analysis.
 *
 * The paper analyses six production trace datasets (BurstGPT
 * conversation and API, three in-house services, Mooncake). Those
 * logs are not redistributable, so each generator below synthesizes
 * a dataset with the *structural* property the paper reports for its
 * counterpart:
 *
 *  - single-service traces (conversation, code completion, long
 *    document): output-length distribution stable over time, with at
 *    most slow drift — similar globally and on the diagonal;
 *  - API / hybrid traces: a mixture of task types whose weights
 *    shift in regimes over long horizons — adjacent windows stay
 *    similar while distant windows diverge.
 *
 * Each trace is a Dataset with ids 0..n-1 and the generation cap its
 * service is served with: 512 for code completion, 2048 for the
 * rest. The window analysis reads the uncapped `outputLens()`.
 */

#ifndef LIGHTLLM_WORKLOAD_TRACE_GEN_HH
#define LIGHTLLM_WORKLOAD_TRACE_GEN_HH

#include <cstdint>
#include <vector>

#include "workload/datasets.hh"

namespace lightllm {
namespace workload {

/**
 * Conversation service (BurstGPT-conv / in-house dialog analogue):
 * log-normal outputs whose location parameter drifts slowly and
 * sinusoidally.
 */
Dataset makeConversationTrace(std::size_t n, std::uint64_t seed);

/**
 * API service (BurstGPT-API analogue): a 4-component mixture of task
 * types whose weights are re-rolled every 4000 requests, so the
 * global distribution varies over long horizons while adjacent
 * windows remain similar.
 */
Dataset makeApiTrace(std::size_t n, std::uint64_t seed);

/** Code-completion service: short, stable outputs, longer prompts. */
Dataset makeCodeCompletionTrace(std::size_t n, std::uint64_t seed);

/** Long-document analysis (Mooncake analogue): very long prompts,
 *  medium outputs, stable distribution. */
Dataset makeLongDocTrace(std::size_t n, std::uint64_t seed);

/** Second in-house dialog service with a different length profile. */
Dataset makeAssistantTrace(std::size_t n, std::uint64_t seed);

/** Multimodal conversation service (image prefix + dialog). */
Dataset makeMultimodalChatTrace(std::size_t n, std::uint64_t seed);

/** The full set of six traces analysed in Figure 3. */
std::vector<Dataset> makeFigure3Traces(std::size_t n,
                                       std::uint64_t seed);

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_TRACE_GEN_HH
