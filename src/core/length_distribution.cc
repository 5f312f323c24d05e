#include "core/length_distribution.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace lightllm {
namespace core {

LengthDistribution::LengthDistribution(std::vector<TokenCount> lengths)
    : sorted_(std::move(lengths))
{
    std::sort(sorted_.begin(), sorted_.end());
    for (TokenCount value : sorted_)
        total_ += value;
    sumsDirty_ = true;
}

void
LengthDistribution::insertValue(TokenCount value)
{
    sorted_.insert(
        std::upper_bound(sorted_.begin(), sorted_.end(), value),
        value);
    total_ += value;
    sumsDirty_ = true;
}

void
LengthDistribution::eraseValue(TokenCount value)
{
    const auto it =
        std::lower_bound(sorted_.begin(), sorted_.end(), value);
    LIGHTLLM_ASSERT(it != sorted_.end() && *it == value,
                    "erase of unrecorded length ", value);
    sorted_.erase(it);
    total_ -= value;
    sumsDirty_ = true;
}

void
LengthDistribution::ensureSums() const
{
    if (!sumsDirty_)
        return;
    prefixSums_.clear();
    prefixSums_.reserve(sorted_.size() + 1);
    prefixSums_.push_back(0);
    for (TokenCount value : sorted_)
        prefixSums_.push_back(prefixSums_.back() + value);
    sumsDirty_ = false;
}

std::size_t
LengthDistribution::tailStart(TokenCount greater_than) const
{
    return static_cast<std::size_t>(
        std::upper_bound(sorted_.begin(), sorted_.end(),
                         greater_than) -
        sorted_.begin());
}

std::size_t
LengthDistribution::searchTailStart(std::size_t start,
                                    TokenCount greater_than) const
{
    // A short walk covers l_t passing a few recorded lengths; a long
    // jump binary searches the rest of the tail.
    constexpr std::size_t kWalk = 8;
    const std::size_t walk_end =
        std::min(sorted_.size(), start + kWalk);
    while (start < walk_end && sorted_[start] <= greater_than)
        ++start;
    if (start < walk_end || start == sorted_.size())
        return start;
    return static_cast<std::size_t>(
        std::upper_bound(sorted_.begin() +
                             static_cast<std::ptrdiff_t>(start),
                         sorted_.end(), greater_than) -
        sorted_.begin());
}

TokenCount
LengthDistribution::tailMean(TokenCount greater_than,
                             TokenCount fallback) const
{
    // Below every recorded length the tail is the whole window.
    const std::size_t start =
        sorted_.empty() || greater_than < sorted_.front()
        ? 0
        : tailStart(greater_than);
    return tailMeanFrom(start, fallback);
}

TokenCount
LengthDistribution::tailMeanFrom(std::size_t start,
                                 TokenCount fallback) const
{
    if (start >= sorted_.size())
        return fallback;
    TokenCount sum = total_;
    if (start > 0) {
        ensureSums();
        sum -= prefixSums_[start];
    }
    const double count = static_cast<double>(sorted_.size() - start);
    return static_cast<TokenCount>(
        std::llround(static_cast<double>(sum) / count));
}

TokenCount
LengthDistribution::tailQuantileFrom(std::size_t lo, double q,
                                     TokenCount fallback) const
{
    if (lo >= sorted_.size())
        return fallback;
    q = std::clamp(q, 0.0, 1.0);
    const auto tail_size = sorted_.size() - lo;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(tail_size)));
    if (rank == 0)
        rank = 1;
    return sorted_[lo + rank - 1];
}

TokenCount
LengthDistribution::maxLength() const
{
    return sorted_.empty() ? 0 : sorted_.back();
}

} // namespace core
} // namespace lightllm
