#include "autoscale/scale_policy.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace lightllm {
namespace autoscale {

namespace {

// Reactive controller.

/** Lowest shrink threshold: shrink only when attainment is at least
 *  max(this, target). */
constexpr double kDownAttainmentFloor = 0.98;

/** ...and the fleet minus one instance would sit below this
 *  outstanding/capacity utilisation. */
constexpr double kDownUtilisation = 0.5;

/** Violation evidence needed before reacting. */
constexpr std::size_t kMinSamples = 8;

// Predictive controller.

/** Fill target: provision so forecast demand stays below this
 *  fraction of ready capacity. */
constexpr double kHeadroom = 0.85;

/** Shrink when forecast demand fits in this fraction of the
 *  headroom-adjusted capacity of one fewer instance. */
constexpr double kDownFraction = 0.6;

} // namespace

std::size_t
FleetSnapshot::nonDrainingCount() const
{
    std::size_t count = 0;
    for (const InstanceSnapshot &instance : instances)
        count += instance.draining ? 0 : 1;
    return count;
}

std::size_t
FleetSnapshot::warmingCount() const
{
    std::size_t count = 0;
    for (const InstanceSnapshot &instance : instances)
        count += instance.warming ? 1 : 0;
    return count;
}

TokenCount
FleetSnapshot::readyCapacityTokens() const
{
    TokenCount total = 0;
    for (const InstanceSnapshot &instance : instances) {
        if (!instance.draining)
            total += instance.capacityTokens;
    }
    return total;
}

TokenCount
FleetSnapshot::predictedLoadTokens() const
{
    TokenCount total = 0;
    for (const InstanceSnapshot &instance : instances) {
        if (!instance.draining)
            total += instance.predictedLoadTokens;
    }
    return total;
}

TokenCount
FleetSnapshot::outstandingTokens() const
{
    TokenCount total = 0;
    for (const InstanceSnapshot &instance : instances) {
        if (!instance.draining)
            total += instance.outstandingTokens;
    }
    return total;
}

ReactiveThresholdPolicy::ReactiveThresholdPolicy(double slo_target)
    : sloTarget_(slo_target),
      downAttainment_(std::max(kDownAttainmentFloor, slo_target))
{
    LIGHTLLM_ASSERT(sloTarget_ > 0.0 && sloTarget_ <= 1.0,
                    "slo target must be in (0, 1]");
}

int
ReactiveThresholdPolicy::decide(const FleetSnapshot &fleet,
                                const SloStats &slo)
{
    const std::size_t n = fleet.nonDrainingCount();

    // Threshold up: observed attainment fell below the target.
    if (slo.samples >= kMinSamples && slo.attainment < sloTarget_) {
        return 1;
    }

    // Hysteresis down: comfortably attaining *and* the shrunk fleet
    // would still be lightly loaded (projected on mean capacity).
    if (n > 1 && slo.attainment >= downAttainment_) {
        const double mean_capacity =
            static_cast<double>(fleet.readyCapacityTokens()) /
            static_cast<double>(n);
        const double capacity_after =
            mean_capacity * static_cast<double>(n - 1);
        const double utilisation_after =
            static_cast<double>(fleet.outstandingTokens()) /
            std::max(capacity_after, 1.0);
        if (utilisation_after < kDownUtilisation)
            return -1;
    }
    return 0;
}

int
PredictiveFutureMemoryPolicy::decide(const FleetSnapshot &fleet,
                                     const SloStats &slo)
{
    const std::size_t n = fleet.nonDrainingCount();
    if (n == 0)
        return 1;

    const double mean_capacity =
        static_cast<double>(fleet.readyCapacityTokens()) /
        static_cast<double>(n);
    if (mean_capacity <= 0.0)
        return 0;

    // The fleet's committed memory demand: every instance's
    // future-memory forecast (running-batch peak + queued
    // footprints), summed. This is known *now*, before any TTFT
    // degrades — the whole point of scaling on the forecast.
    const double demand =
        static_cast<double>(fleet.predictedLoadTokens());

    // Instances needed so demand fits under the headroom target.
    const double per_instance = kHeadroom * mean_capacity;
    const std::size_t needed = static_cast<std::size_t>(
        std::max(1.0, std::ceil(demand / per_instance)));

    if (needed > n) {
        // Warming capacity already counts in n, so this only asks
        // for what is still missing.
        return static_cast<int>(needed - n);
    }

    // Shrink once the forecast fits comfortably in one fewer
    // instance — but never while the SLO is actually suffering.
    if (n > 1 && slo.attainment >= sloTarget_ &&
        demand < kDownFraction * per_instance *
                     static_cast<double>(n - 1)) {
        return -1;
    }
    return 0;
}

} // namespace autoscale
} // namespace lightllm
