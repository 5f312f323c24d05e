/**
 * @file
 * Sliding window of recently finished request output lengths.
 *
 * This is the "past" half of the Past-Future scheduler: the window
 * holds the actual output lengths of the last `capacity` finished
 * requests (the paper uses 1000) and is the sample set behind the
 * empirical distribution P(l) of Eq. 1. At service startup the
 * window is seeded with the preset maximum output length (§4), which
 * makes the scheduler conservative until real completions flush the
 * seed out.
 */

#ifndef LIGHTLLM_CORE_HISTORY_WINDOW_HH
#define LIGHTLLM_CORE_HISTORY_WINDOW_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace lightllm {
namespace core {

/** Fixed-capacity FIFO ring of output lengths. */
class HistoryWindow
{
  public:
    /**
     * @param capacity Window size w of Eq. 1 (> 0).
     */
    explicit HistoryWindow(std::size_t capacity);

    /**
     * Seed the window with `count` entries of `value` (cold-start
     * initialisation with max_new_tokens per §4). `count` is clamped
     * to the capacity. Seeded entries are placeholders: subsequent
     * real completions overwrite them before the ring starts
     * evicting real history, so the seed washes out after `count`
     * finished requests ("updated quickly", §4). Must be called on
     * an empty window.
     */
    void seed(TokenCount value, std::size_t count);

    /** What a push displaced (drives incremental consumers). */
    struct PushDelta
    {
        /** Value overwritten by this push (a seed placeholder or
         *  the evicted oldest entry); meaningless otherwise. */
        TokenCount removed = 0;
        /** False while the window is still growing (nothing left). */
        bool hasRemoved = false;
    };

    /**
     * Record the output length of a finished request. Returns which
     * value (if any) the push displaced, so consumers that mirror
     * the window contents (the predictor's sorted distribution) can
     * update in O(log w) instead of rebuilding.
     */
    PushDelta push(TokenCount output_len);

    /**
     * Monotonic counter bumped on every mutation; lets consumers
     * cache derived structures (the sorted distribution) and rebuild
     * only when the window changed.
     */
    std::uint64_t version() const { return version_; }

    /** Copy out the current contents (unordered). */
    std::vector<TokenCount> snapshot() const;

  private:
    std::vector<TokenCount> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t version_ = 0;
    std::size_t seedCount_ = 0;
    std::size_t seedsRemaining_ = 0;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_HISTORY_WINDOW_HH
