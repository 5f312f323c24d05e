#include "engine/session_chain_memo.hh"

#include <algorithm>

namespace lightllm {
namespace engine {

std::span<const PrefixHash>
SessionChainMemo::hashChain(EngineRequest &request, TokenCount cap)
{
    const workload::RequestSpec &spec = request.spec;
    // Content-identified tokens: the prompt segments always; the
    // generated output only when the spec names its content.
    const TokenCount output =
        spec.outputKey != 0 ? request.generated : 0;
    const auto full_blocks = static_cast<std::size_t>(cap / blockSize_);
    if (request.hashes.size() < full_blocks) {
        // The stream only grows (output is appended), and an
        // inherited chain covers a segment-wise prefix of the
        // prompt, so the chain held so far is a prefix of the one
        // to this cap.
        streamScratch_.assign(spec.segments.begin(),
                              spec.segments.end());
        if (output > 0)
            streamScratch_.push_back(
                PromptSegment{spec.outputKey, output});
        extendBlockHashChain(streamScratch_, blockSize_, cap,
                             request.hashes);
    }
    // Shorter than full_blocks only when the stream ends before cap.
    return std::span<const PrefixHash>(request.hashes)
        .first(std::min(request.hashes.size(), full_blocks));
}

std::span<const PrefixHash>
SessionChainMemo::promptHashes(EngineRequest &request)
{
    const workload::RequestSpec &spec = request.spec;
    const TokenCount prompt = spec.inputLen + request.generated;
    const TokenCount known =
        spec.outputKey != 0 ? prompt : spec.inputLen;
    // The final prompt token is always prefilled (its logits give
    // the first new token).
    return hashChain(request, std::min(known, prompt - 1));
}

void
SessionChainMemo::inherit(EngineRequest &request)
{
    const workload::RequestSpec &spec = request.spec;
    if (spec.sessionKey == 0 || spec.segments.empty())
        return;
    const auto it = chains_.find(spec.sessionKey);
    if (it == chains_.end())
        return;
    SessionChain &memo = it->second;
    // A stale turn (later turns ran elsewhere) still qualifies; a
    // diverged stream does not. hashChain resumes past the inherited
    // blocks; the emptied buffer goes back to the memo.
    if (memo.stream.empty() ||
        !isSegmentPrefix(memo.stream, spec.segments))
        return;
    request.hashes.swap(memo.hashes);
    memo.stream.clear();
}

void
SessionChainMemo::handOff(EngineRequest &request)
{
    const workload::RequestSpec &spec = request.spec;
    if (spec.sessionKey == 0 || spec.segments.empty())
        return;
    SessionChain &memo = chains_[spec.sessionKey];
    memo.stream.assign(spec.segments.begin(), spec.segments.end());
    if (spec.outputKey != 0 && request.generated > 0) {
        memo.stream.push_back(
            PromptSegment{spec.outputKey, request.generated});
    }
    memo.hashes.swap(request.hashes);
}

std::span<const PrefixHash>
SessionChainMemo::chain(std::uint64_t session) const
{
    const auto it = chains_.find(session);
    if (it == chains_.end() || it->second.stream.empty())
        return {};
    return it->second.hashes;
}

} // namespace engine
} // namespace lightllm
