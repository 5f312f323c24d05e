#include "core/future_memory.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {
namespace core {

namespace {

/** Sort entries by descending remaining generation length (Eq. 2). */
void
sortByRemainingDescending(std::vector<BatchEntry> &entries)
{
    std::sort(entries.begin(), entries.end(),
              [](const BatchEntry &a, const BatchEntry &b) {
                  return a.remaining() > b.remaining();
              });
}

void
validate(const std::vector<BatchEntry> &entries)
{
    for (const auto &entry : entries) {
        LIGHTLLM_ASSERT(entry.generatedLen >= 0, "negative generated");
        // promptLen alone may be negative when a shared prefix also
        // covers generated tokens; the resident term must not be.
        LIGHTLLM_ASSERT(entry.promptLen + entry.generatedLen >= 0,
                        "negative resident footprint");
        LIGHTLLM_ASSERT(
            entry.predictedOutputLen >= entry.generatedLen,
            "prediction ", entry.predictedOutputLen,
            " below generated ", entry.generatedLen);
    }
}

} // namespace

TokenCount
futureRequiredMemory(std::vector<BatchEntry> &entries)
{
    validate(entries);
    sortByRemainingDescending(entries);

    TokenCount prefix_resident = 0;  // sum of (l_p + l_t) for j <= i
    TokenCount peak = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const BatchEntry &entry = entries[i];
        prefix_resident += entry.promptLen + entry.generatedLen;
        const TokenCount occupancy = prefix_resident +
            entry.remaining() * static_cast<TokenCount>(i + 1);
        peak = std::max(peak, occupancy);
    }
    return peak;
}

TokenCount
futureRequiredMemory(std::span<const BatchEntry> entries)
{
    std::vector<BatchEntry> copy(entries.begin(), entries.end());
    return futureRequiredMemory(copy);
}

std::vector<TokenCount>
futureMemoryProfile(std::vector<BatchEntry> &entries)
{
    validate(entries);
    sortByRemainingDescending(entries);

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
