/**
 * @file
 * Block-hash chains of requests' content-identified streams, and the
 * memo that lets a session turn start from the chain its previous
 * turn left (prefix-cache mode, DESIGN.md §4): no token of a session
 * is folded twice.
 */

#ifndef LIGHTLLM_ENGINE_SESSION_CHAIN_MEMO_HH
#define LIGHTLLM_ENGINE_SESSION_CHAIN_MEMO_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/token_stream.hh"
#include "base/types.hh"
#include "engine/engine_request.hh"

namespace lightllm {
namespace engine {

/** Chains extended in place in EngineRequest::hashes, and at most
 *  one held chain per session whose last turn finished here. */
class SessionChainMemo
{
  public:
    explicit SessionChainMemo(TokenCount block_size)
        : blockSize_(block_size)
    {
    }

    /** The first cap / block size hashes of the request's stream
     *  (prompt segments, then generated output when outputKey names
     *  it), fewer if the stream ends sooner; valid until the next
     *  extension. */
    std::span<const PrefixHash> hashChain(EngineRequest &request,
                                          TokenCount cap);

    /** The prompt chain, capped one token short of the recompute
     *  prompt (a fully cached prompt still prefills its last token)
     *  and at the tokens whose content is known. */
    std::span<const PrefixHash> promptHashes(EngineRequest &request);

    /** A session turn arrived: take the chain its session's last
     *  turn left if that turn's stream is a segment-wise prefix of
     *  this turn's segments (so its hashes are this stream's). */
    void inherit(EngineRequest &request);

    /** A session turn finished with its chain extended over every
     *  full identified block: hold stream and chain for the next. */
    void handOff(EngineRequest &request);

    /** The chain held for a session (empty when none). */
    std::span<const PrefixHash> chain(std::uint64_t session) const;

  private:
    /** A session's last finished turn: its stream (prompt segments,
     *  then the identified reply) and that stream's chain. Empty
     *  once the next turn took it. */
    struct SessionChain
    {
        std::vector<PromptSegment> stream;
        std::vector<PrefixHash> hashes;
    };

    TokenCount blockSize_;

    /** By RequestSpec::sessionKey; buffers are swapped, not copied,
     *  between memo and requests. */
    std::unordered_map<std::uint64_t, SessionChain> chains_;
    std::vector<PromptSegment> streamScratch_;
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_SESSION_CHAIN_MEMO_HH
