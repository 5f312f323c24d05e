/**
 * @file
 * Open-loop arrival helpers for workload drivers.
 *
 * Poisson, time-varying RateSchedule and measured-trace submission
 * all schedule a whole dataset up front, independent of service
 * progress; they live here so the drivers share one implementation
 * of the arrival arithmetic.
 */

#ifndef LIGHTLLM_WORKLOAD_ARRIVALS_HH
#define LIGHTLLM_WORKLOAD_ARRIVALS_HH

#include <cstdint>

#include "base/types.hh"
#include "workload/datasets.hh"
#include "workload/rate_schedule.hh"

namespace lightllm {
namespace workload {

class RequestSink;

/**
 * Open-loop Poisson submission: the whole dataset is scheduled up
 * front with exponential inter-arrival gaps at `rate` requests per
 * second, independent of service progress. Equivalent to a
 * constant RateSchedule (and implemented as one), so it throws
 * as submitScheduledArrivals does.
 */
void submitPoissonArrivals(const Dataset &dataset, RequestSink &sink,
                           double rate_per_second,
                           std::uint64_t seed, Tick start = 0);

/**
 * Open-loop submission under a time-varying RateSchedule: a
 * non-homogeneous Poisson process with piecewise-constant intensity.
 * Within a segment, gaps are exponential at the segment's rate; a
 * gap that crosses the segment boundary is re-drawn from the
 * boundary (exact by memorylessness). Zero-rate segments are skipped
 * to their end. Scheduling is done up front, like
 * submitPoissonArrivals.
 *
 * @throws std::invalid_argument naming the arrival rate when an
 *         arrival falls past kMaxSpanSeconds (a rate so low
 *         the clock cannot hold its arrivals); the requests placed
 *         before it stay submitted.
 */
void submitScheduledArrivals(const Dataset &dataset,
                             RequestSink &sink,
                             const RateSchedule &schedule,
                             std::uint64_t seed, Tick start = 0);

/**
 * Open-loop trace replay: every request is submitted at exactly
 * `start + spec.arrivalTick` — the measured timestamps a dataset
 * CSV round-trips through its `arrival_us` column
 * (BurstGPT/Mooncake-style traces). Every request must carry an
 * arrival (arrivalTick >= 0); order within a tick follows the
 * dataset.
 */
void submitTraceArrivals(const Dataset &dataset, RequestSink &sink,
                         Tick start = 0);

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_ARRIVALS_HH
