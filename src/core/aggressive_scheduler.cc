#include "core/aggressive_scheduler.hh"

#include "base/logging.hh"
#include "base/str_util.hh"

namespace lightllm {
namespace core {

AggressiveScheduler::AggressiveScheduler(double watermark)
    : watermark_(watermark)
{
    LIGHTLLM_ASSERT(watermark > 0.0 && watermark <= 1.0,
                    "watermark must be in (0, 1]");
}

void
AggressiveScheduler::beginAdmissionRound(const SchedulerContext &ctx)
{
    limit_ = static_cast<TokenCount>(
        static_cast<double>(ctx.capacityTokens) * watermark_);
    used_ = ctx.usedTokens;
}

bool
AggressiveScheduler::tryAdmit(const WaitingView &candidate)
{
    // Only the immediate prefill footprint is considered; cached
    // prefix blocks are already resident and cost nothing new.
    const TokenCount need = candidate.promptLen +
        candidate.generatedLen - candidate.cachedPrefixLen;
    if (used_ + need > limit_)
        return false;
    used_ += need;
    return true;
}

PredictionPeek
AggressiveScheduler::peekWithHorizon(RequestSlot, RequestId,
                                     TokenCount generated_len,
                                     TokenCount max_new_tokens)
{
    return capPeek(generated_len, max_new_tokens);
}

std::string
AggressiveScheduler::name() const
{
    return "Aggressive(watermark=" + formatPercent(watermark_, 0) +
        ")";
}

} // namespace core
} // namespace lightllm
