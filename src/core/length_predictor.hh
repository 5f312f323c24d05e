/**
 * @file
 * The "past" of Eq. 1: the output lengths of the last w finished
 * requests, their sorted empirical distribution, and the point
 * estimates built on it.
 *
 * Three consumers run the same past window: the Past-Future
 * scheduler (admission, Eq. 1), the cluster router's FutureMemory
 * policy (placement, §7), and the predicted-SJF queue policy
 * (ordering). This class is the window's one owner: it keeps the
 * FIFO ring, the cold-start seed (§4), and the sorted distribution,
 * which every observation updates with one erase and one insert
 * (O(w) memmove, no sort). The sorted vector and its prefix sums
 * depend only on the multiset of window values, so the result is
 * bit-identical to building a LengthDistribution from the window's
 * contents. Sampling consumers (the Past-Future scheduler's
 * sticky/per-step draws) reach through distribution() for the full
 * LengthDistribution API.
 */

#ifndef LIGHTLLM_CORE_LENGTH_PREDICTOR_HH
#define LIGHTLLM_CORE_LENGTH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "core/length_distribution.hh"

namespace lightllm {
namespace core {

/** The paper's window size w of Eq. 1 (§4). */
inline constexpr std::size_t kPaperWindowSize = 1000;

/** Placeholders a cold-start seed writes into a predictor's window
 *  (clamped to the window size). */
inline constexpr std::size_t kColdStartSeedCount = 32;

/** Past window of output lengths plus its sorted distribution. */
class LengthPredictor
{
  public:
    /**
     * @param window_size Window size w of Eq. 1 (> 0).
     * @param seed_len Cold-start length (normally the service's
     *        max_new_tokens; 0 seeds nothing): the window starts
     *        with min(kColdStartSeedCount, w) placeholders of it.
     *        Real observations replace placeholders before the ring
     *        evicts any of them, so the seed washes out after that
     *        many finished requests ("updated quickly", §4).
     */
    explicit LengthPredictor(std::size_t window_size,
                             TokenCount seed_len = 0);

    /**
     * Record the output length of a finished request: it replaces
     * a seed placeholder while any remain, else the oldest entry
     * once the window is full.
     */
    void observe(TokenCount output_len);

    /** The distribution over the current window contents. */
    const LengthDistribution &distribution() const
    {
        return distribution_;
    }

    /** Version of the window's contents: bumped by every observe(). */
    std::uint64_t version() const { return version_; }

    /**
     * A memoised conditional-tail start for one request: valid for
     * one predictor version, advanced by comparison as the request's
     * generated length grows (see tailStart).
     */
    struct TailCursor
    {
        /** Version `start` was found under (max = never). */
        std::uint64_t version = ~std::uint64_t{0};

        /** The greater_than `start` was found for. */
        TokenCount after = 0;

        /** distribution().tailStart(after) under `version`. */
        std::size_t start = 0;
    };

    /**
     * distribution().tailStart(greater_than), through `cursor`: an
     * O(1) forward walk when greater_than has not decreased and the
     * cursor is current, or one observe() old (its start then moves
     * by what that push added and displaced at or below the
     * cursor's length); a binary search otherwise. The result is
     * the same either way; the cursor is updated to it.
     */
    std::size_t
    tailStart(TailCursor &cursor, TokenCount greater_than) const
    {
        const bool forward = greater_than >= cursor.after;
        if (forward && cursor.version == version_) {
            cursor.start =
                distribution_.tailStartFrom(cursor.start, greater_than);
        } else if (forward && cursor.version + 1 == version_ &&
                   lastPush_.version == version_) {
            const std::size_t start = cursor.start +
                (lastPush_.added <= cursor.after ? 1 : 0) -
                (lastPush_.hasRemoved && lastPush_.removed <= cursor.after
                     ? 1
                     : 0);
            cursor.start = distribution_.tailStartFrom(start, greater_than);
        } else {
            cursor.start = distribution_.tailStart(greater_than);
        }
        cursor.version = version_;
        cursor.after = greater_than;
        return cursor.start;
    }

    /**
     * Point estimate of a request's final output length: the
     * conditional tail mean E[l | l > generated_len], capped at
     * `max_new_tokens`. Falls back to the cap when the window is
     * empty or the request has outlived all recorded history.
     */
    TokenCount expectedOutput(TokenCount generated_len,
                              TokenCount max_new_tokens) const;

    /**
     * Predicted resident footprint of a fresh request:
     * prompt + expected output (the router's placement charge).
     */
    TokenCount predictFootprint(TokenCount input_len,
                                TokenCount max_new_tokens) const;

  private:
    std::size_t capacity_;

    /** Real observations in arrival order until the ring is full,
     *  then overwritten oldest-first at head_. */
    std::vector<TokenCount> ring_;
    std::size_t head_ = 0;

    /** The cold-start length and the placeholders of it still in
     *  the window (ring_.size() + seeds_ <= capacity_). */
    TokenCount seedLen_;
    std::size_t seeds_;

    std::uint64_t version_ = 0;

    /** The last observe(): the version it produced, the length it
     *  added and the one it displaced. */
    struct LastPush
    {
        std::uint64_t version = ~std::uint64_t{0};
        TokenCount added = 0;
        TokenCount removed = 0;
        bool hasRemoved = false;
    };
    LastPush lastPush_;

    LengthDistribution distribution_;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_LENGTH_PREDICTOR_HH
