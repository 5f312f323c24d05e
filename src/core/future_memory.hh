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
 */

#ifndef LIGHTLLM_CORE_FUTURE_MEMORY_HH
#define LIGHTLLM_CORE_FUTURE_MEMORY_HH

#include <span>
#include <vector>

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
 * Peak future memory M* (Eq. 4) of a batch; O(k log k).
 * Entries are reordered in place (descending remaining length).
 * Returns 0 for an empty batch.
 */
TokenCount futureRequiredMemory(std::vector<BatchEntry> &entries);

/** Convenience overload that copies the entries first. */
TokenCount futureRequiredMemory(std::span<const BatchEntry> entries);

/**
 * Full occupancy-at-completion profile {M_1 ... M_k} (Eq. 3) in
 * completion order (earliest finisher first), useful for
 * introspection and for the memory time-series benches. Entries are
 * reordered in place.
 */
std::vector<TokenCount>
futureMemoryProfile(std::vector<BatchEntry> &entries);

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_FUTURE_MEMORY_HH
