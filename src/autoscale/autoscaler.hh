/**
 * @file
 * The SLA → capacity control loop.
 *
 * AutoScaler closes the loop the paper leaves open: observed (and
 * forecast) service quality feeds back into fleet size. It is a
 * passive decision engine — the cluster schedules the control ticks
 * on its SimContext, builds FleetSnapshots, executes provisions and
 * drains — while the scaler owns everything control-theoretic:
 *
 *  - the SloMonitor fed by per-request completion records;
 *  - the pluggable ScalePolicy proposing size changes;
 *  - min/max clamping and up/down cooldowns (scale-up is allowed
 *    every control tick because a spike waits for no one; scale-down
 *    is rate-limited to one instance per cooldown so a brief lull
 *    cannot dismantle the fleet);
 *  - the shed-or-queue admission decision at max scale: when no
 *    further capacity can come, unbounded queueing would blow every
 *    deadline in the backlog, so overflow arrivals are rejected
 *    instead and counted.
 */

#ifndef LIGHTLLM_AUTOSCALE_AUTOSCALER_HH
#define LIGHTLLM_AUTOSCALE_AUTOSCALER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "autoscale/scale_policy.hh"
#include "autoscale/slo_monitor.hh"
#include "base/request_class.hh"
#include "base/types.hh"
#include "metrics/sla.hh"

namespace lightllm {
namespace autoscale {

/** What happens to arrivals the fleet cannot absorb at max scale. */
enum class ShedPolicy
{
    /** Queue everything (queues may grow without bound under
     *  sustained overload). */
    Never,

    /**
     * At max scale with nothing warming, reject a new request when
     * the fleet's outstanding work (plus this request) exceeds
     * kShedFactor x ready capacity. Bounded queues, explicit
     * rejections, surviving requests keep their deadlines. A shed
     * request gets no completion callback — the model is an
     * open-loop client receiving a rejection, so drivers that wait
     * on completions (closed-loop pools, sessions) must not be
     * combined with shedding.
     */
    Overload,
};

/** Control tick period. */
constexpr Tick kControlInterval = secondsToTicks(2.0);

/** Minimum spacing between scale-downs (scale-up is not rate
 *  limited beyond the control interval). */
constexpr Tick kDownCooldown = secondsToTicks(30.0);

/** Outstanding-to-capacity bound of ShedPolicy::Overload. */
constexpr double kShedFactor = 1.5;

/** Control-loop configuration. */
struct AutoscaleConfig
{
    /** Fleet size bounds (min >= 1, min <= max). */
    std::size_t minInstances = 1;
    std::size_t maxInstances = 8;

    /** Cold-start delay: a provisioned instance joins the router
     *  this long after the scale-up decision. */
    Tick provisionDelay = secondsToTicks(10.0);

    /** Attainment target driving both policies. */
    double sloTarget = 0.9;

    /** SLA the monitor judges completions against. */
    metrics::SlaSpec sla;

    ShedPolicy shedPolicy = ShedPolicy::Never;

    /**
     * Per-tenant traffic shares (index = tenant id) making
     * Overload shedding fairness-aware: under overload only
     * arrivals from tenants at or over their share of recent
     * routed work are rejected, so a noisy neighbour sheds first
     * while in-share tenants keep queueing. Empty = tenant-blind
     * shedding. Tenants beyond the vector get the mean
     * share.
     */
    std::vector<double> tenantShares;
};

/** Decision engine of the autoscaling control loop. */
class AutoScaler
{
  public:
    AutoScaler(const AutoscaleConfig &config,
               std::unique_ptr<ScalePolicy> policy);

    /** Feed one completion into the SLO monitor. */
    void onRecord(const metrics::RequestRecord &record);

    /**
     * One control tick: ask the policy, clamp to [min, max], apply
     * cooldowns.
     *
     * @return Instances to provision (> 0), one instance to retire
     *         (-1), or hold (0).
     */
    int evaluate(const FleetSnapshot &fleet);

    /**
     * Shed-or-queue decision for a new arrival of class `cls` whose
     * predicted resident footprint is `footprint` tokens. Under
     * overload with configured tenantShares, only the tenants at or
     * over their share of recent routed work are shed (most over
     * share first); without shares every arrival sheds, whatever
     * its class.
     */
    bool shouldShed(const FleetSnapshot &fleet, TokenCount footprint,
                    const base::RequestClass &cls) const;

    /**
     * Account `footprint` tokens of routed (non-shed) work for
     * `cls`'s tenant — the recent-usage signal behind
     * fairness-aware shedding. Usage decays exponentially with
     * the monitor window as time constant.
     */
    void noteRouted(const base::RequestClass &cls,
                    TokenCount footprint, Tick now);

    const AutoscaleConfig &config() const { return config_; }

  private:
    /** Exponentially decayed token usage of one tenant. */
    struct TenantUsage
    {
        double tokens = 0.0;
        Tick lastUpdate = 0;
    };

    /** Share of `tenant` under the configured tenantShares. */
    double tenantShare(base::TenantId tenant) const;

    /** `usage` decayed from its last update to `now`. */
    double decayedUsage(const TenantUsage &usage, Tick now) const;

    AutoscaleConfig config_;
    std::unique_ptr<ScalePolicy> policy_;
    SloMonitor monitor_;
    Tick lastScaleDown_;
    std::unordered_map<base::TenantId, TenantUsage> tenantUsage_;
};

} // namespace autoscale
} // namespace lightllm

#endif // LIGHTLLM_AUTOSCALE_AUTOSCALER_HH
