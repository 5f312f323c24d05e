/**
 * @file
 * Content identity of simulated token streams.
 *
 * The simulator never materialises token ids, yet prefix caching
 * needs to decide whether two requests' KV prefixes hold the *same*
 * tokens. A request's prompt is therefore described as a
 * concatenation of content-identified segments (system prompt, each
 * user message, each model reply); two streams are token-identical
 * exactly when their segment streams agree position by position.
 *
 * blockHashChain() folds a segment stream into one rolling hash per
 * *full* KV block, chained so that hash i commits to every token of
 * blocks 0..i. Equal chain hashes at block i imply equal first
 * (i+1)*block_size tokens, which is the invariant the radix prefix
 * cache (memory::PrefixCache) is built on.
 *
 * The fold is per *run*: the part of one segment inside one block,
 * keyed by (segment key, offset into the segment, length). Token t
 * of a stream is (key of its segment, t's offset into it), and a
 * segment's first token has offset 0, so two streams agree on a
 * block's tokens exactly when they agree on its runs: a block costs
 * one fold per segment it touches, not one per token.
 */

#ifndef LIGHTLLM_BASE_TOKEN_STREAM_HH
#define LIGHTLLM_BASE_TOKEN_STREAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/types.hh"

namespace lightllm {

/** A run of `len` tokens whose content is identified by `key`. */
struct PromptSegment
{
    /** Content identity (0 is reserved for "unidentified"). */
    std::uint64_t key = 0;

    /** Length of the run in tokens (> 0). */
    TokenCount len = 0;
};

/** Chain hash of one full KV block of a token stream. */
using PrefixHash = std::uint64_t;

/**
 * Rolling per-block hash chain of a segment stream.
 *
 * Considers at most the first min(total stream length, `max_tokens`)
 * tokens and emits one hash per *complete* block of
 * `block_size_tokens` tokens, each chained over all preceding
 * blocks. A partial trailing block emits nothing: only full blocks
 * are shareable. The from-empty case of extendBlockHashChain().
 */
std::vector<PrefixHash>
blockHashChain(std::span<const PromptSegment> segments,
               TokenCount block_size_tokens, TokenCount max_tokens);

/**
 * Resume a chain: `hashes` holds the first hashes of this stream's
 * chain (possibly none); append the rest up to `max_tokens`, so the
 * result equals blockHashChain(segments, block_size_tokens,
 * max_tokens) whenever that is at least as long. The running hash
 * at a block boundary is the hash emitted there, so resuming needs
 * only hashes.back() and the position hashes.size() * block size;
 * every block run is folded at most once over a growing stream.
 */
void extendBlockHashChain(std::span<const PromptSegment> segments,
                          TokenCount block_size_tokens,
                          TokenCount max_tokens,
                          std::vector<PrefixHash> &hashes);

/**
 * True when `prefix` is a segment-wise prefix of `stream`: its
 * segments equal (key and length) the first segments of `stream`.
 * Then its tokens are the stream's first tokens, and its chain is a
 * prefix of the stream's chain, at any block size.
 */
bool isSegmentPrefix(std::span<const PromptSegment> prefix,
                     std::span<const PromptSegment> stream);

/** Derive a fresh content key from a seed and two coordinates
 *  (SplitMix64 finalisation; never returns 0). */
std::uint64_t deriveContentKey(std::uint64_t seed, std::uint64_t a,
                               std::uint64_t b);

} // namespace lightllm

#endif // LIGHTLLM_BASE_TOKEN_STREAM_HH
