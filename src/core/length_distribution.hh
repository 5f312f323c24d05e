/**
 * @file
 * Empirical output-length distribution P(l) (Eq. 1) with sampling.
 *
 * P(l) = C(l, L_h) / w over the history window L_h. The scheduler
 * draws from the conditional tail P(l | l > l_t) of a request that
 * has generated l_t tokens (l_t = 0 for a queued request: the tail
 * is all of P(l)) — the paper's per-step resampling that keeps
 * predictions ahead of reality.
 *
 * Lengths are kept sorted, so a tail is the suffix starting at
 * tailStart(l_t) and every query takes that start index.
 */

#ifndef LIGHTLLM_CORE_LENGTH_DISTRIBUTION_HH
#define LIGHTLLM_CORE_LENGTH_DISTRIBUTION_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"

namespace lightllm {
namespace core {

/** Sorted empirical distribution over token lengths. */
class LengthDistribution
{
  public:
    LengthDistribution() = default;

    /** Build from raw (unsorted) observed lengths. */
    explicit LengthDistribution(std::vector<TokenCount> lengths);

    /**
     * Insert one observation, keeping sorted order. Together with
     * eraseValue this yields exactly the distribution a full
     * rebuild would produce (the sorted vector and the prefix sums
     * depend only on the multiset of values), without the O(w log w)
     * snapshot-and-sort per finished request.
     */
    void insertValue(TokenCount value);

    /** Remove one occurrence of `value` (which must be present). */
    void eraseValue(TokenCount value);

    bool empty() const { return sorted_.empty(); }
    std::size_t size() const { return sorted_.size(); }

    /**
     * Start index of the conditional tail P(l | l > greater_than):
     * the number of recorded lengths <= greater_than.
     */
    std::size_t tailStart(TokenCount greater_than) const;

    /**
     * tailStart(greater_than) given `start` = tailStart(x) for some
     * x <= greater_than, found by walking forward from `start`
     * (O(1) when greater_than moved by a token or two since).
     */
    std::size_t
    tailStartFrom(std::size_t start, TokenCount greater_than) const
    {
        // Inline: the common case passes no recorded length.
        if (start >= sorted_.size() || sorted_[start] > greater_than)
            return start;
        return searchTailStart(start + 1, greater_than);
    }

    /**
     * Draw from the tail beginning at index `start`: one nextU64()
     * mapped by tailAtDraw when the tail is non-empty, no draw and
     * `fallback` when it is empty (the request has outlived all
     * history — the safe prediction is the generation cap).
     */
    TokenCount
    sampleTailFrom(Rng &rng, std::size_t start,
                   TokenCount fallback) const
    {
        if (start >= sorted_.size())
            return fallback;
        return tailAtDraw(rng.nextU64(), start);
    }

    /**
     * The element of the non-empty tail beginning at index `start`
     * that one raw 64-bit draw picks: sorted_[start + draw % (n -
     * start)], the value Rng::uniformInt(start, n - 1) maps the same
     * draw to. sampleTailFrom(Rng &) goes through it, so a caller
     * that records raw draws and maps them later picks exactly what
     * sampling at draw time would have.
     */
    TokenCount
    tailAtDraw(std::uint64_t draw, std::size_t start) const
    {
        const auto tail_size =
            static_cast<std::uint64_t>(sorted_.size() - start);
        return sorted_[start +
                       static_cast<std::size_t>(draw % tail_size)];
    }

    /**
     * Inverse-CDF evaluation of the tail beginning at index `start`:
     * its element at uniform position u in [0, 1). With u ~ Uniform
     * this is distributed as the Rng draw above, but a *fixed* u
     * yields a deterministic, monotone update as the tail shrinks
     * (quantile coupling). `fallback` when the tail is empty.
     */
    TokenCount
    sampleTailFrom(double u, std::size_t start,
                   TokenCount fallback) const
    {
        if (start >= sorted_.size())
            return fallback;
        u = std::clamp(u, 0.0, 1.0);
        const auto tail_size = sorted_.size() - start;
        auto offset = static_cast<std::size_t>(
            u * static_cast<double>(tail_size));
        offset = std::min(offset, tail_size - 1);
        return sorted_[start + offset];
    }

    /**
     * The smallest length in the tail beginning at index `start`:
     * the tail P(l | l > g) found at `start` is the same for every
     * g below it. `fallback` when the tail is empty.
     */
    TokenCount
    tailMin(std::size_t start, TokenCount fallback) const
    {
        return start < sorted_.size() ? sorted_[start] : fallback;
    }

    /**
     * Mean of the conditional tail E[l | l > greater_than]; returns
     * `fallback` when no recorded length exceeds `greater_than`.
     */
    TokenCount tailMean(TokenCount greater_than,
                        TokenCount fallback) const;

    /** tailMean over the tail beginning at index `start`. */
    TokenCount tailMeanFrom(std::size_t start,
                            TokenCount fallback) const;

    /**
     * Quantile q (nearest rank) of the tail beginning at index
     * `start`; `fallback` when the tail is empty.
     */
    TokenCount tailQuantileFrom(std::size_t start, double q,
                                TokenCount fallback) const;

    /** Largest recorded length; 0 when empty. */
    TokenCount maxLength() const;

  private:
    /** The out-of-line half of tailStartFrom: every recorded length
     *  before `start` is known to be <= greater_than. */
    std::size_t searchTailStart(std::size_t start,
                                TokenCount greater_than) const;

    /** Recompute prefixSums_ if a mutation invalidated them. */
    void ensureSums() const;

    std::vector<TokenCount> sorted_;

    /**
     * Exact sum of sorted_, kept by every mutation: the whole-window
     * tail mean (the router's footprint charge, queried after every
     * observation) needs no prefix sums. Integer sums are exact, and
     * so were the double sums they replace while every partial sum
     * stays below 2^53, so means are bit-identical.
     */
    TokenCount total_ = 0;

    /** Prefix sums of sorted_ for O(log n) means of proper tails;
     *  rebuilt lazily after insertValue/eraseValue. */
    mutable std::vector<TokenCount> prefixSums_;
    mutable bool sumsDirty_ = false;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_LENGTH_DISTRIBUTION_HH
