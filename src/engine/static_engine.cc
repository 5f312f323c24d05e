#include "engine/static_engine.hh"

#include <algorithm>

#include "base/logging.hh"
#include "metrics/collector.hh"

namespace lightllm {
namespace engine {

metrics::RunReport
runStaticBatch(const model::PerfModel &perf,
               const workload::Dataset &dataset,
               const StaticEngineConfig &config)
{
    const TokenCount capacity = perf.tokenCapacity();

    // Derive the batch size from the worst-case padded reservation.
    TokenCount max_prompt = 0;
    for (const auto &request : dataset.requests)
        max_prompt = std::max(max_prompt, request.inputLen);
    const TokenCount per_slot = max_prompt + dataset.maxNewTokens;
    std::size_t batch_size = config.batchSize;
    if (batch_size == 0) {
        batch_size = static_cast<std::size_t>(
            std::max<TokenCount>(1, capacity / per_slot));
    }

    metrics::MetricsCollector collector(capacity);

    Tick now = 0;
    std::size_t next = 0;
    while (next < dataset.requests.size()) {
        const std::size_t count = std::min(
            batch_size, dataset.requests.size() - next);
        const auto *batch = &dataset.requests[next];

        // Padded reservation for the batch lifetime. The padded
        // slot width uses this batch's longest prompt.
        TokenCount batch_max_prompt = 0;
        TokenCount batch_max_output = 0;
        for (std::size_t i = 0; i < count; ++i) {
            batch_max_prompt =
                std::max(batch_max_prompt, batch[i].inputLen);
            batch_max_output = std::max(
                batch_max_output, batch[i].effectiveOutputLen());
        }
        // Every slot of a batch has the same width and all are
        // released together, so the reservation is one product.
        const TokenCount slot =
            batch_max_prompt + dataset.maxNewTokens;
        const TokenCount reserved =
            slot * static_cast<TokenCount>(count);
        LIGHTLLM_ASSERT(reserved <= capacity,
                        "static batch does not fit: slot ", slot,
                        " x ", count, " in ", capacity);

        // Prefill the padded batch (everyone pays the longest
        // prompt).
        const Tick prefill = perf.prefillLatency(
            batch_max_prompt * static_cast<TokenCount>(count));
        now += prefill;
        collector.onPrefill(batch_max_prompt *
                            static_cast<TokenCount>(count));

        std::vector<Tick> first_token(count, now);
        std::vector<Tick> last_emit(count, now);
        std::vector<Tick> max_gap(count, 0);

        // Decode until the slowest request finishes; early
        // finishers stop emitting but their padded KV stays
        // resident (static batching cannot release it).
        for (TokenCount step = 2; step <= batch_max_output; ++step) {
            const TokenCount kv_tokens =
                static_cast<TokenCount>(count) *
                (batch_max_prompt + step);
            const Tick duration = perf.decodeLatency(
                static_cast<std::int64_t>(count), kv_tokens);
            now += duration;
            collector.onDecodeStep(static_cast<std::int64_t>(count),
                                   reserved, reserved, reserved,
                                   duration);
            for (std::size_t i = 0; i < count; ++i) {
                if (batch[i].effectiveOutputLen() >= step) {
                    max_gap[i] = std::max(max_gap[i],
                                          now - last_emit[i]);
                    last_emit[i] = now;
                }
            }
        }

        for (std::size_t i = 0; i < count; ++i) {
            metrics::RequestRecord record;
            record.id = batch[i].id;
            record.inputLen = batch[i].inputLen;
            record.outputTokens = batch[i].effectiveOutputLen();
            record.arrival = 0;
            record.firstToken = first_token[i];
            record.finish = last_emit[i];
            record.maxGap = max_gap[i];
            collector.onRequestFinished(record);
        }
        next += count;
    }

    return collector.finish("Static-batch(origin)", now);
}

} // namespace engine
} // namespace lightllm
