/**
 * @file
 * Shared "past" component: history window + cached empirical
 * distribution + point-estimate predictions.
 *
 * Three consumers run the same past-window machinery: the
 * Past-Future scheduler (admission, Eq. 1), the cluster router's
 * FutureMemory policy (placement, §7), and the predicted-SJF queue
 * policy (ordering). This class owns the window, rebuilds the
 * sorted distribution lazily (keyed on the window's version
 * counter), and exposes the point estimates the router and queue
 * policies need. Sampling consumers (the Past-Future scheduler's
 * sticky/per-step draws) reach through distribution() for the full
 * LengthDistribution API.
 *
 * Once materialised, the distribution is maintained incrementally:
 * each observation removes the displaced window entry and inserts
 * the new one in sorted position (O(w) memmove, no sort, no
 * allocation), which is bit-identical to a full rebuild because the
 * sorted vector and its prefix sums depend only on the multiset of
 * window values.
 */

#ifndef LIGHTLLM_CORE_LENGTH_PREDICTOR_HH
#define LIGHTLLM_CORE_LENGTH_PREDICTOR_HH

#include <cstdint>

#include "core/history_window.hh"
#include "core/length_distribution.hh"

namespace lightllm {
namespace core {

/** Entries a cold-start seed writes into a predictor's window (the
 *  Past-Future scheduler and the predicted-SJF queue policy). */
inline constexpr std::size_t kColdStartSeedCount = 32;

/** History window plus a lazily rebuilt length distribution. */
class LengthPredictor
{
  public:
    /** @param window_size Window size w of Eq. 1 (> 0). */
    explicit LengthPredictor(std::size_t window_size);

    /** Cold-start seeding (see HistoryWindow::seed). */
    void seed(TokenCount value, std::size_t count);

    /** Record the output length of a finished request. */
    void observe(TokenCount output_len);

    /**
     * The distribution over the current window contents, built on
     * first use and kept in sync incrementally by observe().
     */
    const LengthDistribution &
    distribution()
    {
        if (!distributionValid_)
            rebuildDistribution();
        return distribution_;
    }

    /**
     * Version of the distribution's contents: changes on every
     * observe(), warm() and seed() (the window's version counter).
     */
    std::uint64_t version() const { return window_.version(); }

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
    tailStart(TailCursor &cursor, TokenCount greater_than)
    {
        const LengthDistribution &dist = distribution();
        const bool forward = greater_than >= cursor.after;
        if (forward && cursor.version == version()) {
            cursor.start = dist.tailStartFrom(cursor.start, greater_than);
        } else if (forward && cursor.version + 1 == version() &&
                   lastPush_.version == version()) {
            const std::size_t start = cursor.start +
                (lastPush_.added <= cursor.after ? 1 : 0) -
                (lastPush_.hasRemoved && lastPush_.removed <= cursor.after
                     ? 1
                     : 0);
            cursor.start = dist.tailStartFrom(start, greater_than);
        } else {
            cursor.start = dist.tailStart(greater_than);
        }
        cursor.version = version();
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
                              TokenCount max_new_tokens);

    /**
     * Predicted resident footprint of a fresh request:
     * prompt + expected output (the router's placement charge).
     */
    TokenCount predictFootprint(TokenCount input_len,
                                TokenCount max_new_tokens);

  private:
    /** Build distribution_ from a window snapshot. */
    void rebuildDistribution();

    HistoryWindow window_;

    /** The last observe(): the window version it produced, the
     *  length it added and the one it displaced. */
    struct LastPush
    {
        std::uint64_t version = ~std::uint64_t{0};
        TokenCount added = 0;
        TokenCount removed = 0;
        bool hasRemoved = false;
    };
    LastPush lastPush_;

    LengthDistribution distribution_;
    /** distribution_ mirrors the window (false until first query
     *  and after seed(), which must rebuild from a snapshot). */
    bool distributionValid_ = false;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_LENGTH_PREDICTOR_HH
