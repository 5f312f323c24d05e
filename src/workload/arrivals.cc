#include "workload/arrivals.hh"

#include <sstream>
#include <stdexcept>

#include "base/logging.hh"
#include "base/rng.hh"
#include "workload/client_pool.hh"

namespace lightllm {
namespace workload {

void
submitPoissonArrivals(const Dataset &dataset, RequestSink &sink,
                      double rate_per_second, std::uint64_t seed,
                      Tick start)
{
    LIGHTLLM_ASSERT(rate_per_second > 0.0,
                    "arrival rate must be positive");
    submitScheduledArrivals(dataset, sink,
                            RateSchedule::constant(rate_per_second),
                            seed, start);
}

void
submitScheduledArrivals(const Dataset &dataset, RequestSink &sink,
                        const RateSchedule &schedule,
                        std::uint64_t seed, Tick start)
{
    Rng rng(seed);
    const auto &segments = schedule.segments();

    // Schedule-relative clock (t = 0 at `start`) plus a cursor over
    // the piecewise-constant segments.
    double t = 0.0;
    std::size_t seg = 0;
    double seg_start = 0.0;

    const auto seg_end = [&]() {
        return segments[seg].durationSeconds > 0.0
            ? seg_start + segments[seg].durationSeconds
            : -1.0;  // open-ended
    };

    for (const auto &spec : dataset.requests) {
        for (;;) {
            // Advance the cursor to the segment containing t.
            while (seg + 1 < segments.size() && seg_end() >= 0.0 &&
                   t >= seg_end()) {
                seg_start = seg_end();
                ++seg;
            }
            const double rate = segments[seg].ratePerSecond;
            const double end = seg_end();
            if (rate <= 0.0) {
                // Dead segment: no arrivals until it ends. The
                // factories guarantee the effective tail rate is
                // positive, so a later segment must exist and the
                // clock must be able to reach it — without progress
                // this loop would spin forever.
                LIGHTLLM_ASSERT(end >= 0.0 &&
                                    seg + 1 < segments.size() &&
                                    t < end,
                                "schedule ends at zero rate with "
                                "arrivals left to place");
                t = end;
                continue;
            }
            const double gap = rng.exponential(rate);
            if (end >= 0.0 && t + gap >= end) {
                // The gap crosses into the next segment: restart
                // the draw from the boundary (exact for a
                // piecewise-constant intensity by memorylessness).
                t = end;
                continue;
            }
            t += gap;
            if (!(t <= kMaxSpanSeconds)) {
                std::ostringstream error;
                error << "arrival rate " << rate << "/s places request "
                      << spec.id << " at " << t
                      << " s, past the simulated clock's "
                      << kMaxSpanSeconds << " s range";
                throw std::invalid_argument(error.str());
            }
            sink.submitAt(spec, start + secondsToTicks(t));
            break;
        }
    }
}

void
submitTraceArrivals(const Dataset &dataset, RequestSink &sink,
                    Tick start)
{
    for (const auto &spec : dataset.requests) {
        LIGHTLLM_ASSERT(spec.arrivalTick >= 0,
                        "trace replay needs an arrival timestamp "
                        "on every request (arrival_us column)");
        sink.submitAt(spec, start + spec.arrivalTick);
    }
}

} // namespace workload
} // namespace lightllm
