#include "autoscale/autoscaler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace lightllm {
namespace autoscale {

namespace {

/** SLO monitor window; also the time constant of the tenant-usage
 *  decay behind fairness-aware shedding. */
constexpr Tick kMonitorWindow = secondsToTicks(60.0);

} // namespace

AutoScaler::AutoScaler(const AutoscaleConfig &config,
                       std::unique_ptr<ScalePolicy> policy)
    : config_(config), policy_(std::move(policy)),
      monitor_(config.sla, kMonitorWindow),
      lastScaleDown_(std::numeric_limits<Tick>::min() / 2)
{
    LIGHTLLM_ASSERT(policy_ != nullptr, "autoscaler needs a policy");
    LIGHTLLM_ASSERT(config_.minInstances >= 1,
                    "min instances must be at least 1");
    LIGHTLLM_ASSERT(config_.minInstances <= config_.maxInstances,
                    "min instances exceeds max instances");
    LIGHTLLM_ASSERT(config_.provisionDelay >= 0,
                    "provision delay cannot be negative");
}

void
AutoScaler::onRecord(const metrics::RequestRecord &record)
{
    monitor_.observe(record);
}

int
AutoScaler::evaluate(const FleetSnapshot &fleet)
{
    const SloStats slo = monitor_.stats(fleet.now);
    const int proposed = policy_->decide(fleet, slo);

    const std::size_t n = fleet.nonDrainingCount();
    const auto clamp = [&](long target) {
        return std::clamp<long>(
            target, static_cast<long>(config_.minInstances),
            static_cast<long>(config_.maxInstances));
    };
    int delta = static_cast<int>(
        clamp(static_cast<long>(n) + proposed) -
        static_cast<long>(n));

    if (delta < 0) {
        // One retirement per cooldown: a lull must not dismantle
        // the fleet faster than a spike can rebuild it.
        if (fleet.now - lastScaleDown_ < kDownCooldown)
            return 0;
        lastScaleDown_ = fleet.now;
        return -1;
    }
    return delta;
}

bool
AutoScaler::shouldShed(const FleetSnapshot &fleet,
                       TokenCount footprint,
                       const base::RequestClass &cls) const
{
    if (config_.shedPolicy != ShedPolicy::Overload)
        return false;
    // Shed only when no further capacity can possibly come: the
    // fleet is at max scale and nothing is still warming up.
    if (fleet.nonDrainingCount() < config_.maxInstances ||
        fleet.warmingCount() > 0) {
        return false;
    }
    const double bound = kShedFactor *
        static_cast<double>(fleet.readyCapacityTokens());
    if (static_cast<double>(fleet.outstandingTokens() + footprint) <=
        bound) {
        return false;
    }
    if (config_.tenantShares.empty())
        return true;  // tenant-blind shedding

    // Fairness-aware: reject only arrivals of tenants at or over
    // their configured share of recent routed work, so the noisy
    // neighbour absorbs the rejections while in-share tenants keep
    // queueing. With no recorded usage yet there is no evidence of
    // overuse — queue the arrival.
    double total = 0.0;
    for (const auto &[tenant, usage] : tenantUsage_)
        total += decayedUsage(usage, fleet.now);
    if (total <= 0.0)
        return false;
    const auto it = tenantUsage_.find(cls.tenant);
    const double mine = it == tenantUsage_.end()
        ? 0.0
        : decayedUsage(it->second, fleet.now);
    return mine / total >= tenantShare(cls.tenant);
}

void
AutoScaler::noteRouted(const base::RequestClass &cls,
                       TokenCount footprint, Tick now)
{
    TenantUsage &usage = tenantUsage_[cls.tenant];
    usage.tokens = decayedUsage(usage, now) +
        static_cast<double>(footprint);
    usage.lastUpdate = now;
}

double
AutoScaler::tenantShare(base::TenantId tenant) const
{
    const auto &shares = config_.tenantShares;
    double total = 0.0;
    for (double share : shares)
        total += share;
    if (total <= 0.0)
        return 1.0;
    if (tenant >= shares.size()) {
        // Tenants beyond the vector get the mean share.
        return 1.0 / static_cast<double>(shares.size());
    }
    return shares[tenant] / total;
}

double
AutoScaler::decayedUsage(const TenantUsage &usage, Tick now) const
{
    if (now <= usage.lastUpdate)
        return usage.tokens;
    const double windows =
        static_cast<double>(now - usage.lastUpdate) /
        static_cast<double>(kMonitorWindow);
    return usage.tokens * std::exp(-windows);
}

} // namespace autoscale
} // namespace lightllm
