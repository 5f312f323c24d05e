#include "core/scheduler.hh"

#include <algorithm>

namespace lightllm {
namespace core {

void
Scheduler::onRequestFinished(RequestId, TokenCount)
{
}

void
Scheduler::onRequestEvicted(RequestId)
{
}

void
Scheduler::onSlotReleased(RequestSlot, RequestId)
{
}

TokenCount
Scheduler::peekPrediction(RequestId, TokenCount generated_len,
                          TokenCount max_new_tokens)
{
    // Conservative default for schedulers without a predictor: a
    // request may generate up to its cap (but never less than it
    // already has).
    return std::max(generated_len, max_new_tokens);
}

PredictionPeek
capPeek(TokenCount generated_len, TokenCount max_new_tokens)
{
    return PredictionPeek{std::max(generated_len, max_new_tokens),
                          std::max(generated_len + 1, max_new_tokens)};
}

PredictionPeek
Scheduler::peekWithHorizon(RequestSlot, RequestId id,
                           TokenCount generated_len,
                           TokenCount max_new_tokens)
{
    return PredictionPeek{
        peekPrediction(id, generated_len, max_new_tokens),
        generated_len + 1};
}

TokenCount
Scheduler::estimateLoad(const SchedulerContext &ctx)
{
    TokenCount total = ctx.usedTokens;
    for (const auto &candidate : ctx.waiting) {
        total += candidate.promptLen + candidate.generatedLen -
            candidate.cachedPrefixLen;
    }
    return total;
}

} // namespace core
} // namespace lightllm
