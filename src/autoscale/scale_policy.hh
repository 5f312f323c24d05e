/**
 * @file
 * Fleet sizing policies for SLA-driven elastic autoscaling.
 *
 * A ScalePolicy looks at a snapshot of the fleet plus the windowed
 * SLO summary and proposes a change in fleet size. Two controllers
 * are provided:
 *
 *  - ReactiveThresholdPolicy: the classic feedback loop. Scale up
 *    when the observed attainment over the monitor window drops
 *    below the target; scale down when attainment is comfortably
 *    above it *and* the shrunk fleet would still be lightly loaded.
 *    The up/down thresholds are deliberately separated (hysteresis)
 *    so the controller cannot flap around the target.
 *
 *  - PredictiveFutureMemoryPolicy: the paper's future-memory
 *    estimation (Eqs. 2-4) applied fleet-wide. Every instance's
 *    scheduler already predicts the peak KV footprint its running
 *    batch will reach plus the predicted footprints of its queue
 *    (engine::predictedLoadTokens, built on core::LengthPredictor).
 *    Summing those forecasts gives the memory demand the fleet is
 *    *committed* to before any TTFT has degraded; the policy
 *    provisions as soon as forecast demand exceeds the headroom
 *    target of the capacity that is live or already warming. It
 *    therefore moves one cold-start earlier than the reactive
 *    controller — violations are pre-empted instead of repaired.
 *
 * Policies are pure deciders: cooldowns, min/max clamping, and the
 * actual provision/drain calls live in AutoScaler and the cluster.
 */

#ifndef LIGHTLLM_AUTOSCALE_SCALE_POLICY_HH
#define LIGHTLLM_AUTOSCALE_SCALE_POLICY_HH

#include <cstddef>
#include <string_view>
#include <vector>

#include "autoscale/slo_monitor.hh"
#include "base/types.hh"

namespace lightllm {
namespace autoscale {

/** Router-visible state of one instance at a control tick. An
 *  instance neither warming nor draining accepts traffic. */
struct InstanceSnapshot
{
    /** Provisioned but still cold-starting. */
    bool warming = false;

    /** Draining towards retirement. */
    bool draining = false;

    /** KV capacity in token slots. */
    TokenCount capacityTokens = 0;

    /** Resident + queued footprint (current load). */
    TokenCount outstandingTokens = 0;

    /** Scheduler-forecast future load: predicted peak memory of the
     *  running batch plus predicted footprints of the queue. */
    TokenCount predictedLoadTokens = 0;
};

/** Fleet state handed to scale policies. */
struct FleetSnapshot
{
    Tick now = 0;
    std::vector<InstanceSnapshot> instances;

    /** Instances that are not draining (warming included: their
     *  capacity is already paid for and on the way). */
    std::size_t nonDrainingCount() const;

    std::size_t warmingCount() const;

    /** Total capacity of non-draining instances. */
    TokenCount readyCapacityTokens() const;

    /** Sum of forecast loads over non-draining instances. */
    TokenCount predictedLoadTokens() const;

    /** Sum of current outstanding work over non-draining
     *  instances. */
    TokenCount outstandingTokens() const;
};

/** Proposes fleet-size changes; stateless between control ticks
 *  except what an implementation chooses to remember. */
class ScalePolicy
{
  public:
    virtual ~ScalePolicy() = default;

    virtual std::string_view name() const = 0;

    /**
     * Desired change in non-draining fleet size: positive to
     * provision, negative to retire, 0 to hold. The caller clamps
     * to [min, max] and applies cooldowns.
     */
    virtual int decide(const FleetSnapshot &fleet,
                       const SloStats &slo) = 0;
};

/** Threshold + hysteresis feedback controller. */
class ReactiveThresholdPolicy : public ScalePolicy
{
  public:
    /** `slo_target` in (0, 1]: below it the fleet grows. The shrink
     *  threshold is max(0.98, slo_target), so the hysteresis band
     *  never inverts. */
    explicit ReactiveThresholdPolicy(double slo_target);

    std::string_view name() const override { return "reactive"; }

    int decide(const FleetSnapshot &fleet,
               const SloStats &slo) override;

  private:
    /** Attainment target; below it the fleet grows. */
    double sloTarget_;

    /** Hysteresis: shrink only when attainment is at least this. */
    double downAttainment_;
};

/** Fleet-wide future-memory (Eqs. 2-4) feed-forward controller. */
class PredictiveFutureMemoryPolicy : public ScalePolicy
{
  public:
    /** `slo_target`: never shrink while windowed attainment is
     *  below it. */
    explicit PredictiveFutureMemoryPolicy(double slo_target)
        : sloTarget_(slo_target)
    {
    }

    std::string_view name() const override { return "predictive"; }

    int decide(const FleetSnapshot &fleet,
               const SloStats &slo) override;

  private:
    double sloTarget_;
};

} // namespace autoscale
} // namespace lightllm

#endif // LIGHTLLM_AUTOSCALE_SCALE_POLICY_HH
