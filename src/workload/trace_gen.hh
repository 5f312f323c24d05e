/**
 * @file
 * Synthetic request-trace generators for the Figure 3/4 analysis.
 *
 * The paper analyses six production trace datasets (BurstGPT
 * conversation and API, three in-house services, Mooncake). Those
 * logs are not redistributable, so each generator below synthesizes
 * a trace with the *structural* property the paper reports for its
 * counterpart:
 *
 *  - single-service traces (conversation, code completion, long
 *    document): output-length distribution stable over time, with at
 *    most slow drift — similar globally and on the diagonal;
 *  - API / hybrid traces: a mixture of task types whose weights
 *    shift in regimes over long horizons — adjacent windows stay
 *    similar while distant windows diverge.
 */

#ifndef LIGHTLLM_WORKLOAD_TRACE_GEN_HH
#define LIGHTLLM_WORKLOAD_TRACE_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"

namespace lightllm {
namespace workload {

/** One request observation in a service trace. */
struct TraceRecord
{
    /** Task-type label (which mixture component produced it). */
    int taskType = 0;

    TokenCount inputLen = 0;
    TokenCount outputLen = 0;
};

/** A named synthetic trace. */
struct Trace
{
    std::string name;
    std::vector<TraceRecord> records;

    /** Output lengths only, for distribution analysis. */
    std::vector<std::int64_t> outputLens() const;
};

/**
 * Conversation service (BurstGPT-conv / in-house dialog analogue):
 * log-normal outputs whose location parameter drifts slowly and
 * sinusoidally.
 */
Trace makeConversationTrace(std::size_t n, std::uint64_t seed,
                            double drift_amplitude = 0.25);

/**
 * API service (BurstGPT-API analogue): a 4-component mixture of task
 * types whose weights are re-rolled every 4000 requests, so the
 * global distribution varies over long horizons while adjacent
 * windows remain similar.
 */
Trace makeApiTrace(std::size_t n, std::uint64_t seed);

/** Code-completion service: short, stable outputs, longer prompts. */
Trace makeCodeCompletionTrace(std::size_t n, std::uint64_t seed);

/** Long-document analysis (Mooncake analogue): very long prompts,
 *  medium outputs, stable distribution. */
Trace makeLongDocTrace(std::size_t n, std::uint64_t seed);

/** Second in-house dialog service with a different length profile. */
Trace makeAssistantTrace(std::size_t n, std::uint64_t seed);

/** Multimodal conversation service (image prefix + dialog). */
Trace makeMultimodalChatTrace(std::size_t n, std::uint64_t seed);

/** The full set of six traces analysed in Figure 3. */
std::vector<Trace> makeFigure3Traces(std::size_t n,
                                     std::uint64_t seed);

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_TRACE_GEN_HH
