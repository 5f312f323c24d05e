#include "core/future_memory.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace lightllm {
namespace core {

namespace {

/** True when `a` precedes `b` in Eq. 2 order. */
bool
longerRemaining(const BatchEntry &a, const BatchEntry &b)
{
    return a.remaining() > b.remaining();
}

/** Index at which `candidate` joins `sorted` in Eq. 2 order: first
 *  among its ties (any slot in the tie block scores the same M*). */
std::size_t
mergePosition(std::span<const BatchEntry> sorted,
              const BatchEntry &candidate)
{
    return static_cast<std::size_t>(
        std::partition_point(sorted.begin(), sorted.end(),
                             [&](const BatchEntry &entry) {
                                 return longerRemaining(entry,
                                                        candidate);
                             }) -
        sorted.begin());
}

/** Panic with the first invariant `entry` violates. */
void
validate(const BatchEntry &entry)
{
    LIGHTLLM_ASSERT(entry.generatedLen >= 0, "negative generated");
    // promptLen alone may be negative when a shared prefix also
    // covers generated tokens; the resident term must not be.
    LIGHTLLM_ASSERT(entry.promptLen + entry.generatedLen >= 0,
                    "negative resident footprint");
    LIGHTLLM_ASSERT(entry.predictedOutputLen >= entry.generatedLen,
                    "prediction ", entry.predictedOutputLen,
                    " below generated ", entry.generatedLen);
}

/** True when `entry` passes validate() (the scan's hot check). */
bool
isValid(const BatchEntry &entry)
{
    return entry.generatedLen >= 0 &&
        entry.promptLen + entry.generatedLen >= 0 &&
        entry.predictedOutputLen >= entry.generatedLen;
}

/**
 * The one Eq. 3-4 scan behind every M* in the repo: the peak over
 * `sorted` with `extra` (when non-null) merged in before index `at`.
 * Validates each entry and the descending-remaining order as it
 * goes, so a caller that carries its order across calls cannot
 * silently score a stale one.
 */
TokenCount
scanPeak(std::span<const BatchEntry> sorted, const BatchEntry *extra,
         std::size_t at)
{
    TokenCount prefix_resident = 0;  // sum of (l_p + l_t) for j <= i
    TokenCount rank = 0;
    TokenCount peak = 0;
    TokenCount previous = std::numeric_limits<TokenCount>::max();
    auto visit = [&](const BatchEntry &entry) {
        const TokenCount remaining = entry.remaining();
        if (!isValid(entry) || remaining > previous) [[unlikely]] {
            validate(entry);
            panic("batch is not in descending-remaining order");
        }
        previous = remaining;
        prefix_resident += entry.promptLen + entry.generatedLen;
        ++rank;
        peak = std::max(peak, prefix_resident + remaining * rank);
    };
    for (std::size_t i = 0; i < at; ++i)
        visit(sorted[i]);
    if (extra != nullptr)
        visit(*extra);
    for (std::size_t i = at; i < sorted.size(); ++i)
        visit(sorted[i]);
    return peak;
}

} // namespace

void
sortByRemaining(std::span<BatchEntry> entries)
{
    std::sort(entries.begin(), entries.end(), longerRemaining);
}

TokenCount
futureRequiredMemory(std::vector<BatchEntry> &entries)
{
    sortByRemaining(entries);
    return sortedPeak(entries);
}

TokenCount
sortedPeak(std::span<const BatchEntry> sorted)
{
    return scanPeak(sorted, nullptr, sorted.size());
}

TokenCount
mergedPeak(std::span<const BatchEntry> sorted,
           const BatchEntry &candidate)
{
    return scanPeak(sorted, &candidate,
                    mergePosition(sorted, candidate));
}

void
insertSorted(std::vector<BatchEntry> &sorted,
             const BatchEntry &candidate)
{
    sorted.insert(sorted.begin() +
                      static_cast<std::ptrdiff_t>(
                          mergePosition(sorted, candidate)),
                  candidate);
}

std::vector<TokenCount>
futureMemoryProfile(std::vector<BatchEntry> &entries)
{
    for (const auto &entry : entries)
        validate(entry);
    sortByRemaining(entries);

    std::vector<TokenCount> profile;
    profile.reserve(entries.size());
    TokenCount prefix_resident = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const BatchEntry &entry = entries[i];
        prefix_resident += entry.promptLen + entry.generatedLen;
        profile.push_back(prefix_resident +
                          entry.remaining() *
                              static_cast<TokenCount>(i + 1));
    }
    // Eq. 3 indexes from the longest-remaining request; completion
    // order is the reverse (the smallest remaining finishes first).
    std::reverse(profile.begin(), profile.end());
    return profile;
}

} // namespace core
} // namespace lightllm
