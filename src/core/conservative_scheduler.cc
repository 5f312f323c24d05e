#include "core/conservative_scheduler.hh"

#include <cmath>

#include "base/logging.hh"
#include "base/str_util.hh"

namespace lightllm {
namespace core {

ConservativeScheduler::ConservativeScheduler(double overcommit)
    : overcommit_(overcommit)
{
    LIGHTLLM_ASSERT(overcommit > 0.0, "overcommit must be positive");
}

void
ConservativeScheduler::beginAdmissionRound(const SchedulerContext &ctx)
{
    limit_ = static_cast<TokenCount>(
        static_cast<double>(ctx.capacityTokens) * overcommit_);

    // Worst case for every running request: it reaches its cap.
    // Shared prefix blocks are charged to whoever brought them in,
    // not to every sharer.
    committed_ = 0;
    for (const auto &request : ctx.running) {
        committed_ += request.promptLen - request.cachedPrefixLen +
            request.maxNewTokens;
    }
}

bool
ConservativeScheduler::tryAdmit(const WaitingView &candidate)
{
    // generatedLen counts toward maxNewTokens, so the worst-case
    // footprint of a re-queued request is unchanged.
    const TokenCount need = candidate.promptLen -
        candidate.cachedPrefixLen + candidate.maxNewTokens;
    if (committed_ + need > limit_)
        return false;
    committed_ += need;
    return true;
}

PredictionPeek
ConservativeScheduler::peekWithHorizon(RequestSlot, RequestId,
                                       TokenCount generated_len,
                                       TokenCount max_new_tokens)
{
    return capPeek(generated_len, max_new_tokens);
}

std::string
ConservativeScheduler::name() const
{
    if (overcommit_ == 1.0)
        return "Conservative";
    return "Conservative(overcommit=" +
        formatPercent(overcommit_, 0) + ")";
}

} // namespace core
} // namespace lightllm
