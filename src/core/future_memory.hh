/**
 * @file
 * Future required memory of a running batch (Eqs. 2-4).
 *
 * The "future" half of the Past-Future scheduler. Given, for every
 * request in a (hypothetical) running batch, its prompt length l_p,
 * tokens generated so far l_t, and predicted final output length
 * l_hat, the peak memory the batch will ever need occurs at one of
 * the moments a request finishes. Sorting requests by descending
 * remaining generation (l_hat - l_t), the occupancy when the i-th
 * request (1-indexed) finishes is
 *
 *   M_i = sum_{j<=i} (l_p^j + l_t^j) + (l_hat^i - l_t^i) * i   (Eq. 3)
 *
 * and the future required memory is M* = max_i M_i (Eq. 4). M* is
 * the exact minimum capacity that completes the batch without any
 * eviction, assuming the predictions hold.
 *
 * M* does not depend on how equal remaining lengths are ordered:
 * within a tie block of remaining r, M_k = prefix_k + r * k never
 * decreases (each step adds a resident term >= 0 plus r >= 0), so the
 * block's maximum sits at its last index, whose prefix sum is the
 * same for every tie order. Callers may therefore keep a batch in
 * any Eq. 2 order across calls — carried from the previous decode
 * step, or with a candidate merged in — and score it with one O(k)
 * scan instead of a copy and a sort (DESIGN.md §2).
 */

#ifndef LIGHTLLM_CORE_FUTURE_MEMORY_HH
#define LIGHTLLM_CORE_FUTURE_MEMORY_HH

#include <span>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace lightllm {
namespace core {

/** Per-request inputs to the future-memory computation. */
struct BatchEntry
{
    /**
     * Prompt length l_p (tokens resident from admission), net of
     * any shared prefix. A re-admitted session turn can share blocks
     * that cover its own generated reply, so this may be negative;
     * the resident term promptLen + generatedLen never is.
     */
    TokenCount promptLen = 0;

    /** Tokens generated so far, l_t. */
    TokenCount generatedLen = 0;

    /** Predicted (or known) total output length l_hat >= l_t. */
    TokenCount predictedOutputLen = 0;

    /** Remaining generation steps for this request. */
    TokenCount
    remaining() const
    {
        return predictedOutputLen - generatedLen;
    }
};

/**
 * Peak future memory M* (Eq. 4) of a batch: sortByRemaining, then
 * one scan. Entries are reordered in place (descending remaining
 * length).
 * Returns 0 for an empty batch.
 */
TokenCount futureRequiredMemory(std::vector<BatchEntry> &entries);

/**
 * Put `entries` in Eq. 2 order (descending remaining), stably:
 * equal remaining lengths keep their relative order. A batch of 32
 * or more takes O(k) LSD radix passes over its key span (two at the
 * ~2^13 spans of heavy-tailed batches); smaller ones an insertion
 * sort.
 */
void sortByRemaining(std::span<BatchEntry> entries);

/**
 * Restore Eq. 2 order of a batch carried from an earlier order by
 * insertion sort, applying every move to `tags` too (tags[i]
 * identifies entries[i]; same length). O(k + inversions): a decode
 * step takes one token off every decoding request's remaining
 * length, so a batch sorted at the previous step is still sorted
 * except where requests joined, stalled (prefill pending) or
 * changed prediction.
 */
template <typename Tag>
void
restoreRemainingOrder(std::span<BatchEntry> entries,
                      std::span<Tag> tags)
{
    LIGHTLLM_ASSERT(tags.size() == entries.size(), tags.size(),
                    " tags for ", entries.size(), " entries");
    for (std::size_t i = 1; i < entries.size(); ++i) {
        const TokenCount key = entries[i].remaining();
        if (entries[i - 1].remaining() >= key)
            continue;
        const BatchEntry entry = entries[i];
        Tag tag = std::move(tags[i]);
        std::size_t j = i;
        for (; j > 0 && entries[j - 1].remaining() < key; --j) {
            entries[j] = entries[j - 1];
            tags[j] = std::move(tags[j - 1]);
        }
        entries[j] = entry;
        tags[j] = std::move(tag);
    }
}

/**
 * Restore Eq. 2 order after entries[at] alone changed its remaining
 * length: slide it past the entries it now out- or under-runs (equal
 * ones stay where they are), moving tags with their entries, and
 * call moved(tag, i) for each tag that lands at a new index i, the
 * slid one's included when it moved. O(distance slid): a decode-run
 * step repairs each moved prediction this way instead of re-sorting
 * the batch.
 */
template <typename Tag, typename Moved>
void
slideToOrder(std::span<BatchEntry> entries, std::span<Tag> tags,
             std::size_t at, Moved &&moved)
{
    const BatchEntry entry = entries[at];
    Tag tag = std::move(tags[at]);
    const TokenCount key = entry.remaining();
    std::size_t i = at;
    auto shift_from = [&](std::size_t from) {
        entries[i] = entries[from];
        tags[i] = std::move(tags[from]);
        moved(tags[i], i);
        i = from;
    };
    while (i > 0 && entries[i - 1].remaining() < key)
        shift_from(i - 1);
    while (i + 1 < entries.size() && entries[i + 1].remaining() > key)
        shift_from(i + 1);
    entries[i] = entry;
    tags[i] = std::move(tag);
    if (i != at)
        moved(tags[i], i);
}

/**
 * M* of a batch already in Eq. 2 order: one O(k) scan that also
 * validates every entry and the order itself. 0 when empty.
 */
TokenCount sortedPeak(std::span<const BatchEntry> sorted);

/**
 * M* of `sorted` (in Eq. 2 order) plus `candidate`, with the
 * candidate merged in at its Eq. 2 position during the same O(k)
 * scan: no copy, no sort. Equal to futureRequiredMemory over a copy
 * with the candidate appended.
 */
TokenCount mergedPeak(std::span<const BatchEntry> sorted,
                      const BatchEntry &candidate);

/** Insert `candidate` into `sorted` at the position mergedPeak
 *  scored it at, keeping Eq. 2 order. */
void insertSorted(std::vector<BatchEntry> &sorted,
                  const BatchEntry &candidate);

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_FUTURE_MEMORY_HH
