/**
 * @file
 * Fixed-bin histogram over integer values (token lengths).
 *
 * Used both by the window-similarity analysis (Figures 3/4) to turn a
 * window of output lengths into a comparable count vector, and by the
 * metrics module for latency distributions.
 */

#ifndef LIGHTLLM_STATS_HISTOGRAM_HH
#define LIGHTLLM_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace lightllm {
namespace stats {

/** Histogram with uniform-width bins over [0, binWidth * numBins). */
class Histogram
{
  public:
    /**
     * @param bin_width Width of each bin in value units (> 0).
     * @param num_bins Number of bins; values past the end clamp into
     *        the last bin so no sample is ever dropped.
     */
    Histogram(std::int64_t bin_width, std::size_t num_bins);

    /** Record one sample (negative values clamp into bin 0). */
    void add(std::int64_t value);

    /** Record a sample with an integer weight. */
    void add(std::int64_t value, std::int64_t weight);

    /** Counts normalized to probabilities; all zeros when empty. */
    std::vector<double> normalized() const;

  private:
    std::int64_t binWidth_;
    std::vector<std::int64_t> counts_;
    std::int64_t total_ = 0;
};

} // namespace stats
} // namespace lightllm

#endif // LIGHTLLM_STATS_HISTOGRAM_HH
