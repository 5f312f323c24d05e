#include "core/future_memory.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "base/logging.hh"

namespace lightllm {
namespace core {

namespace {

/** Batch size from which sortByRemaining radix-sorts. */
constexpr std::size_t kRadixMinSize = 32;

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
    const std::size_t n = entries.size();
    if (n < kRadixMinSize) {
        // Stable insertion sort: below a few dozen entries it beats
        // both a comparison sort and the radix passes' fixed cost.
        for (std::size_t i = 1; i < n; ++i) {
            const TokenCount key = entries[i].remaining();
            if (entries[i - 1].remaining() >= key)
                continue;
            const BatchEntry entry = entries[i];
            std::size_t j = i;
            for (; j > 0 && entries[j - 1].remaining() < key; --j)
                entries[j] = entries[j - 1];
            entries[j] = entry;
        }
        return;
    }

    // Stable LSD radix on key = max remaining - remaining, ascending
    // (descending remaining). The difference is taken in unsigned
    // arithmetic, so any int64 remaining, negative included, maps to
    // an exact key. Digits are at most 8 bits, balanced across the
    // passes the key's span needs: two 7-bit passes at the ~2^13
    // span of a heavy-tailed batch.
    TokenCount top = entries[0].remaining();
    TokenCount bottom = top;
    for (const BatchEntry &entry : entries) {
        top = std::max(top, entry.remaining());
        bottom = std::min(bottom, entry.remaining());
    }
    const auto key = [top](const BatchEntry &entry) {
        return static_cast<std::uint64_t>(top) -
            static_cast<std::uint64_t>(entry.remaining());
    };
    const int bits = std::bit_width(static_cast<std::uint64_t>(top) -
                                    static_cast<std::uint64_t>(bottom));
    const int passes = (bits + 7) / 8;
    if (passes == 0)
        return;  // every remaining is equal
    const int digit = (bits + passes - 1) / passes;
    const std::uint64_t mask = (std::uint64_t{1} << digit) - 1;

    thread_local std::vector<BatchEntry> scratch;
    scratch.resize(n);
    BatchEntry *from = entries.data();
    BatchEntry *to = scratch.data();
    std::array<std::uint32_t, 256> offset;
    for (int pass = 0; pass < passes; ++pass) {
        const int shift = pass * digit;
        std::fill_n(offset.begin(), mask + 1, 0);
        for (std::size_t i = 0; i < n; ++i)
            ++offset[(key(from[i]) >> shift) & mask];
        std::uint32_t sum = 0;
        for (std::uint64_t d = 0; d <= mask; ++d)
            sum += std::exchange(offset[d], sum);
        for (std::size_t i = 0; i < n; ++i)
            to[offset[(key(from[i]) >> shift) & mask]++] = from[i];
        std::swap(from, to);
    }
    if (from != entries.data())
        std::copy(from, from + n, entries.data());
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

} // namespace core
} // namespace lightllm
