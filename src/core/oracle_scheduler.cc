#include "core/oracle_scheduler.hh"

#include <algorithm>

namespace lightllm {
namespace core {

namespace {

/** Effective output length: generation stops at EOS or the cap. */
TokenCount
effectiveOutput(TokenCount true_output, TokenCount max_new_tokens)
{
    return std::min(true_output, max_new_tokens);
}

} // namespace

void
OracleScheduler::beginAdmissionRound(const SchedulerContext &ctx)
{
    capacity_ = ctx.capacityTokens;
    perRequestOverhead_ = ctx.perRequestOverhead;

    entries_.clear();
    for (const auto &request : ctx.running) {
        const TokenCount total = std::max(
            effectiveOutput(request.trueOutputLen,
                            request.maxNewTokens),
            request.generatedLen);
        entries_.push_back(BatchEntry{
            request.promptLen - request.cachedPrefixLen,
            request.generatedLen, total});
    }
    sortByRemaining(entries_);
}

bool
OracleScheduler::tryAdmit(const WaitingView &candidate)
{
    const TokenCount total = std::max(
        effectiveOutput(candidate.trueOutputLen,
                        candidate.maxNewTokens),
        candidate.generatedLen);
    const BatchEntry entry{
        candidate.promptLen + candidate.generatedLen -
            candidate.cachedPrefixLen,
        0, total - candidate.generatedLen};
    const TokenCount overhead = perRequestOverhead_ *
        static_cast<TokenCount>(entries_.size() + 1);
    if (mergedPeak(entries_, entry) + overhead > capacity_)
        return false;
    insertSorted(entries_, entry);
    return true;
}

PredictionPeek
OracleScheduler::peekWithHorizon(RequestSlot, RequestId,
                                 TokenCount generated_len,
                                 TokenCount max_new_tokens)
{
    return capPeek(generated_len, max_new_tokens);
}

std::string
OracleScheduler::name() const
{
    return "Theoretical-optimum";
}

} // namespace core
} // namespace lightllm
