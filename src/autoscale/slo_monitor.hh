/**
 * @file
 * Sliding-window SLO attainment tracking over the simulation clock.
 *
 * The autoscaling control loop needs to know, continuously, how the
 * service is doing against its SLA *right now* — not over the whole
 * run. The monitor keeps every request completion of the trailing
 * `window` ticks (the same recent-history philosophy as the
 * scheduler's past window, see stats/window_analysis: recent
 * behaviour predicts the immediate future far better than the global
 * aggregate) and reduces it on demand to its attainment. Scale
 * policies read that number each control tick.
 */

#ifndef LIGHTLLM_AUTOSCALE_SLO_MONITOR_HH
#define LIGHTLLM_AUTOSCALE_SLO_MONITOR_HH

#include <deque>

#include "base/types.hh"
#include "metrics/sla.hh"

namespace lightllm {
namespace autoscale {

/** Windowed SLO summary handed to scale policies. */
struct SloStats
{
    /** Completions inside the window. */
    std::size_t samples = 0;

    /**
     * Fraction meeting both limits. Defaults to 1.0 with no
     * samples: an idle service has no evidence of trouble, and
     * scale-up must come from load forecasts, not phantom
     * violations.
     */
    double attainment = 1.0;
};

/** Sliding-window TTFT/MTPOT attainment tracker. */
class SloMonitor
{
  public:
    /**
     * @param sla Limits to judge completions against.
     * @param window Trailing window length in ticks (> 0).
     */
    SloMonitor(metrics::SlaSpec sla, Tick window);

    /** Record a completion (record.finish is its timestamp). */
    void observe(const metrics::RequestRecord &record);

    /**
     * Reduce the window ending at `now` to its summary. Evicts
     * samples older than `now - window` first.
     */
    SloStats stats(Tick now);

  private:
    struct Sample
    {
        Tick finish;
        bool compliant;
    };

    metrics::SlaSpec sla_;
    Tick window_;
    std::deque<Sample> samples_;

    /** Compliant samples in the deque, so stats() is O(evicted). */
    std::size_t compliant_ = 0;
};

} // namespace autoscale
} // namespace lightllm

#endif // LIGHTLLM_AUTOSCALE_SLO_MONITOR_HH
