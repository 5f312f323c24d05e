/**
 * @file
 * Exact percentile computation over collected samples.
 *
 * SLA evaluation needs exact P99 values over modest sample counts
 * (one per request), so we keep raw samples and use nth_element.
 */

#ifndef LIGHTLLM_STATS_PERCENTILE_HH
#define LIGHTLLM_STATS_PERCENTILE_HH

#include <vector>

namespace lightllm {
namespace stats {

/**
 * Percentile with the nearest-rank method over a copy of `samples`.
 * An empty sample set yields 0. q is clamped to [0, 1].
 */
double percentile(std::vector<double> samples, double q);

/**
 * Nearest-rank percentile over samples already sorted ascending —
 * O(1), for consumers querying several quantiles of one vector.
 * Agrees exactly with percentile() on the same samples.
 */
double percentileSorted(const std::vector<double> &sorted, double q);

/** Arithmetic mean; 0 for an empty set. */
double mean(const std::vector<double> &samples);

} // namespace stats
} // namespace lightllm

#endif // LIGHTLLM_STATS_PERCENTILE_HH
