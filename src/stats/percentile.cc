#include "stats/percentile.hh"

#include <algorithm>
#include <cmath>

namespace lightllm {
namespace stats {

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank: smallest value whose rank covers fraction q.
    const auto n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    auto nth = samples.begin() +
        static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

} // namespace stats
} // namespace lightllm
