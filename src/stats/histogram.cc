#include "stats/histogram.hh"

#include <algorithm>

#include "base/logging.hh"

namespace lightllm {
namespace stats {

Histogram::Histogram(std::int64_t bin_width, std::size_t num_bins)
    : binWidth_(bin_width), counts_(num_bins, 0)
{
    LIGHTLLM_ASSERT(bin_width > 0, "bin width must be positive");
    LIGHTLLM_ASSERT(num_bins > 0, "need at least one bin");
}

void
Histogram::add(std::int64_t value)
{
    add(value, 1);
}

void
Histogram::add(std::int64_t value, std::int64_t weight)
{
    LIGHTLLM_ASSERT(weight >= 0, "negative histogram weight");
    std::int64_t bin = value < 0 ? 0 : value / binWidth_;
    const auto last = static_cast<std::int64_t>(counts_.size()) - 1;
    bin = std::min(bin, last);
    counts_[static_cast<std::size_t>(bin)] += weight;
    total_ += weight;
}

std::vector<double>
Histogram::normalized() const
{
    std::vector<double> probs(counts_.size(), 0.0);
    if (total_ == 0)
        return probs;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        probs[i] = static_cast<double>(counts_[i]) /
            static_cast<double>(total_);
    }
    return probs;
}

} // namespace stats
} // namespace lightllm
