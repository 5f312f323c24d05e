/**
 * @file
 * Time-varying arrival-rate schedules.
 *
 * The paper's six production traces are diurnal and bursty, but a
 * single Poisson rate can only model a stationary service. A
 * RateSchedule is a piecewise-constant intensity function lambda(t)
 * modulating the Poisson arrival process: the open-loop driver draws
 * exponential gaps at the rate of the current segment and re-draws at
 * segment boundaries (exact for piecewise-constant intensities by
 * memorylessness). Builders cover the three shapes the autoscaling
 * scenarios need:
 *
 *  - constant: one rate, bit-identical to submitPoissonArrivals
 *    for the same seed (pinned by RateScheduleTest's
 *    ConstantMatchesPoissonBitExactly);
 *  - spike: a base rate with a burst window at `peak` — the flash
 *    crowd a reactive controller chases and a predictive one should
 *    absorb;
 *  - diurnal: a sinusoidal day/night cycle discretised into
 *    piecewise-constant steps.
 *
 * The final segment is open-ended (its rate holds forever), so a
 * finite dataset always drains.
 */

#ifndef LIGHTLLM_WORKLOAD_RATE_SCHEDULE_HH
#define LIGHTLLM_WORKLOAD_RATE_SCHEDULE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace lightllm {
namespace workload {

/** One piecewise-constant segment of a rate schedule. */
struct RateSegment
{
    /** Arrival intensity in requests per second (>= 0). */
    double ratePerSecond = 0.0;

    /** Segment length in seconds; <= 0 marks the open-ended tail
     *  (only valid for the last segment). */
    double durationSeconds = 0.0;
};

/** Piecewise-constant arrival intensity lambda(t). */
class RateSchedule
{
  public:
    /** Single open-ended segment at `rate` requests/second. */
    static RateSchedule constant(double rate);

    /**
     * Explicit segment list. The last segment may be open-ended
     * (durationSeconds <= 0); earlier segments must have positive
     * durations. A closed final segment gets an implicit open-ended
     * tail at its own rate so arrivals never stall.
     */
    static RateSchedule steps(std::vector<RateSegment> segments);

    /**
     * Burst scenario: `base` requests/second, except `peak`
     * requests/second during [at, at + duration) seconds.
     */
    static RateSchedule spike(double base, double peak, double at,
                              double duration);

    /**
     * One day/night cycle: rate(t) = base + amplitude *
     * sin(2*pi*t/period), discretised into `steps_per_period`
     * piecewise-constant steps over `cycles` periods (then holding
     * at `base`). Negative instantaneous rates clamp to 0.
     */
    static RateSchedule diurnal(double base, double amplitude,
                                double period_seconds,
                                std::size_t steps_per_period = 24,
                                std::size_t cycles = 1);

    const std::vector<RateSegment> &segments() const
    {
        return segments_;
    }

    /** Human-readable one-liner, e.g. "4/s, 20/s@[30,50), 4/s". */
    std::string describe() const;

  private:
    explicit RateSchedule(std::vector<RateSegment> segments);

    std::vector<RateSegment> segments_;
};

/**
 * Parse a CLI schedule spec:
 *
 *   const:R                     constant R req/s
 *   steps:RxS,RxS,...[,R]      rate R for S seconds each; a bare
 *                               trailing R is the open-ended tail
 *   spike:BASE,PEAK,AT,DUR      burst of PEAK during [AT, AT+DUR)
 *   diurnal:BASE,AMP,PERIOD[,STEPS[,CYCLES]]
 *
 * @return false (with `error` set) when the spec is malformed.
 */
bool parseRateSchedule(const std::string &spec, RateSchedule &out,
                       std::string &error);

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_RATE_SCHEDULE_HH
