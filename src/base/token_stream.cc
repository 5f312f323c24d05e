#include "base/token_stream.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {

namespace {

/** SplitMix64 finaliser: the bijective avalanche stage. */
std::uint64_t
mix64(std::uint64_t value)
{
    value ^= value >> 30;
    value *= 0xbf58476d1ce4e5b9ull;
    value ^= value >> 27;
    value *= 0x94d049bb133111ebull;
    value ^= value >> 31;
    return value;
}

/** Fold one run: `len` tokens of the segment with content `key`,
 *  starting `offset` tokens into it. Key, offset and length all
 *  enter the fold, so the runs of a block name exactly its tokens. */
PrefixHash
foldRun(PrefixHash hash, std::uint64_t key, TokenCount offset,
        TokenCount len)
{
    return mix64(hash ^
                 mix64(key +
                       0x9e3779b97f4a7c15ull *
                           static_cast<std::uint64_t>(offset + 1) +
                       0xd1b54a32d192ed03ull *
                           static_cast<std::uint64_t>(len)));
}

} // namespace

void
extendBlockHashChain(std::span<const PromptSegment> segments,
                     TokenCount block_size_tokens, TokenCount max_tokens,
                     std::vector<PrefixHash> &hashes)
{
    LIGHTLLM_ASSERT(block_size_tokens >= 1,
                    "block size must be >= 1");
    // Tokens past the last full block under the cap emit nothing.
    const TokenCount limit =
        max_tokens / block_size_tokens * block_size_tokens;
    // The running hash at a block boundary is the hash emitted
    // there, so the chain resumes from its last hash.
    TokenCount position =
        static_cast<TokenCount>(hashes.size()) * block_size_tokens;
    if (position >= limit)
        return;
    PrefixHash hash = hashes.empty()
        ? 0x50465343414348ull  // chain seed
        : hashes.back();
    TokenCount boundary = position + block_size_tokens;
    TokenCount start = 0;  // stream position of `segment`'s first token
    for (const PromptSegment &segment : segments) {
        LIGHTLLM_ASSERT(segment.len > 0,
                        "empty prompt segment");
        const TokenCount end = std::min(start + segment.len, limit);
        // One fold per run of the segment inside one block.
        while (position < end) {
            const TokenCount run_end = std::min(end, boundary);
            hash = foldRun(hash, segment.key, position - start,
                           run_end - position);
            position = run_end;
            if (position == boundary) {
                hashes.push_back(hash);
                boundary += block_size_tokens;
            }
        }
        if (end == limit)
            return;
        start += segment.len;
    }
}

std::vector<PrefixHash>
blockHashChain(std::span<const PromptSegment> segments,
               TokenCount block_size_tokens, TokenCount max_tokens)
{
    std::vector<PrefixHash> hashes;
    extendBlockHashChain(segments, block_size_tokens, max_tokens,
                         hashes);
    return hashes;
}

bool
isSegmentPrefix(std::span<const PromptSegment> prefix,
                std::span<const PromptSegment> stream)
{
    const auto same = [](const PromptSegment &a,
                         const PromptSegment &b) {
        return a.key == b.key && a.len == b.len;
    };
    return prefix.size() <= stream.size() &&
        std::equal(prefix.begin(), prefix.end(), stream.begin(),
                   same);
}

std::uint64_t
deriveContentKey(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t key =
        mix64(seed ^ mix64(a + 0x9e3779b97f4a7c15ull) ^
              mix64(b + 0xd1b54a32d192ed03ull));
    return key == 0 ? 1 : key;
}

} // namespace lightllm
