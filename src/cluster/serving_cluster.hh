/**
 * @file
 * Multi-instance serving cluster with load-aware request routing.
 *
 * Implements the paper's future-work proposal (§7): because the
 * Past-Future scheduler can "accurately estimate the memory demand
 * of each running batch", a front-end router can forward requests to
 * under-utilised instances so every instance reaches full capacity.
 * Three routing policies are provided:
 *
 *  - RoundRobin: oblivious baseline;
 *  - LeastOutstandingTokens: join-the-least-loaded by *current*
 *    resident + queued footprint (what a router can see without the
 *    scheduler's help);
 *  - FutureMemory: the router runs its own "past" component — a
 *    history window of finished output lengths fed by completion
 *    events — and charges each instance the *predicted* footprint
 *    (prompt + expected output) of every in-flight request it
 *    routed there. Requests join the instance with the smallest
 *    predicted load relative to its capacity. This is the paper's
 *    proposal end to end: the same distribution that drives
 *    admission drives placement.
 *
 * The fleet is an exact co-simulation: the cluster borrows one
 * sim::SimContext from the code that runs it, every engine runs as
 * an event-driven actor on it, and all interactions (arrivals, completions, drains,
 * iteration boundaries) fire in global time order. There is no
 * causality skew — the router never observes an instance's
 * future — and heterogeneous fleets (HardwareSpec / timeFactor)
 * compose naturally because nothing assumes instances iterate at
 * the same cadence. See DESIGN.md §3.
 *
 * Instances can be drained mid-run: a draining instance stops
 * receiving traffic, hands its not-yet-admitted queue back to the
 * router for re-dispatch, and finishes the requests that already
 * hold engine state.
 *
 * enableAutoscale() makes the fleet elastic (DESIGN.md §5): a
 * periodic control event snapshots the fleet, the scale policy
 * proposes a size, and the cluster executes it — scale-up adopts an
 * engine from the instance factory that joins the router only after
 * a configurable cold-start delay, scale-down retires the
 * least-loaded instance through the drain path, and at max scale
 * the shed policy may reject overflow arrivals instead of queueing
 * them without bound. Instance-seconds are accounted per instance
 * (provision to retirement/end) as the cost axis every attainment
 * number is traded against.
 */

#ifndef LIGHTLLM_CLUSTER_SERVING_CLUSTER_HH
#define LIGHTLLM_CLUSTER_SERVING_CLUSTER_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "base/flat_id_table.hh"
#include "base/types.hh"
#include "core/length_predictor.hh"
#include "engine/serving_engine.hh"
#include "metrics/report.hh"
#include "sim/sim_context.hh"
#include "workload/client_pool.hh"

namespace lightllm {

namespace trace {
class TraceRecorder;
}

namespace cluster {

/** How the router picks an instance for a new request. */
enum class RoutingPolicy
{
    RoundRobin,
    LeastOutstandingTokens,
    FutureMemory,

    /**
     * Session stickiness for prefix-cache fleets: a request whose
     * sessionKey was seen before goes to the instance that served
     * the session's earlier turns — the one whose prefix cache
     * holds the conversation's blocks — and new sessions (and
     * key-less requests) fall back to least-outstanding placement.
     * A drained home instance is re-picked and remembered.
     */
    PrefixAffinity,

    /**
     * Disaggregated prefill pool: join the instance with the least
     * prefill work still ahead of it (in-flight arrivals, queued
     * prompts, admitted-but-unprefilled remainders) — the signal
     * that predicts prefill queueing delay rather than memory
     * pressure.
     */
    PrefillLoad,
};

/** Human-readable policy label. */
const char *routingPolicyName(RoutingPolicy policy);

/** A fleet of serving engines behind one request router. */
class ServingCluster : public workload::RequestSink
{
  public:
    using FinishCallback = engine::ServingEngine::FinishCallback;

    /** One routing decision, as recorded for replay/auditing. */
    struct RoutedSubmission
    {
        std::size_t instance;
        workload::RequestSpec spec;

        /** Tick at which the arrival fires on the instance. */
        Tick when;

        /** Recorded arrival for latency metrics (== when, except
         *  for drain re-dispatches, which keep their original
         *  arrival stamp). */
        Tick stamp;

        /** Predicted footprint charged to the instance
         *  (RoutingPolicy::FutureMemory; 0 otherwise). */
        TokenCount footprint;
    };

    /**
     * @param instances Engines to route across (>= 1); the cluster
     *        takes ownership, attaches every engine to `context`,
     *        and installs its own finish fan-in.
     * @param policy Routing policy.
     * @param context Clock + event queue the fleet borrows from
     *        whoever runs the scenario (which may enroll it in a
     *        sim::ShardedSimContext first). Several clusters may
     *        share one — the prefill and decode pools of a
     *        disagg::DisaggCluster do — in which case their owner
     *        drives the loop and calls finalizeReport() on each
     *        instead of run().
     */
    ServingCluster(
        std::vector<std::unique_ptr<engine::ServingEngine>> instances,
        RoutingPolicy policy, sim::SimContext &context);

    /** Route a request to an instance per the policy. */
    void submitAt(const workload::RequestSpec &spec,
                  Tick arrival) override;

    /** Completion listener over all instances (e.g. client pool). */
    void setOnFinish(FinishCallback callback);

    /**
     * Attach a flight recorder: every current instance gets an
     * engine sink labelled `<prefix>-<index>`, and instances the
     * autoscaler provisions later are attached at adoption (still
     * on the coordinator thread, so sink order — and thus the
     * trace's pid layout — is deterministic). Call before any
     * submission; nullptr detaches future adoptions only.
     */
    void setTraceRecorder(trace::TraceRecorder *recorder,
                          std::string label_prefix = "engine");

    /** Warm the router's output-length history (previous traffic
     *  window), as for the instance schedulers. */
    void warmRoutingHistory(std::span<const TokenCount> lengths);

    /**
     * Drain instance `index` at tick `when`: it stops receiving
     * traffic and its not-yet-admitted requests are re-dispatched
     * through the router. Must be called before run(); at least one
     * instance must remain undrained.
     */
    void scheduleDrain(std::size_t index, Tick when);

    // --- Elastic autoscaling (DESIGN.md §5) ---------------------------

    /** Builds engines for runtime provisioning. */
    using InstanceFactory =
        std::function<std::unique_ptr<engine::ServingEngine>()>;

    /**
     * Attach the SLA → capacity control loop: completion records
     * feed the scaler's SLO monitor, and a control event every
     * autoscale::kControlInterval evaluates the policy and executes
     * provisions / drains / sheds. Must precede run() and every
     * submission; the initial fleet must lie inside
     * [minInstances, maxInstances].
     *
     * @param factory Builds each engine scale-up provisions.
     */
    void enableAutoscale(const autoscale::AutoscaleConfig &config,
                         std::unique_ptr<autoscale::ScalePolicy>
                             policy,
                         InstanceFactory factory);

    /** The attached scaler (null when autoscaling is off). */
    const autoscale::AutoScaler *autoscaler() const
    {
        return autoscaler_.get();
    }

    /**
     * Provision `engine` now: it joins the fleet immediately
     * (events, metrics) but becomes routable only after
     * `warmup_delay` ticks — the cold-start window during which its
     * cost is already accruing.
     *
     * @return Index of the new instance.
     */
    std::size_t
    provisionInstance(std::unique_ptr<engine::ServingEngine> engine,
                      Tick warmup_delay);

    /**
     * Retire one instance through the drain path: the least-loaded
     * routable instance (warming instances first — they never took
     * traffic) stops receiving requests and hands its queue back to
     * the router.
     *
     * @param keep_at_least Refuse to shrink the non-draining fleet
     *        below this many instances.
     * @return false when the fleet is already at the floor (or
     *         retiring would leave no routable instance).
     */
    bool retireInstance(std::size_t keep_at_least);

    /** Fleet state at the current tick (control loop, tests). */
    autoscale::FleetSnapshot snapshot();

    /** Instances accepting traffic (not draining, warm-up done). */
    std::size_t routableInstances() const;

    /** Instances not scheduled for retirement (warming included). */
    std::size_t nonDrainingInstances() const;

    /** Requests rejected by overload shedding so far. */
    std::int64_t shedRequests() const { return shedRequests_; }

    /**
     * Run the borrowed context to completion and return the merged
     * report (per-instance reports remain available).
     */
    metrics::RunReport run();

    /**
     * One autoscale control decision now: snapshot the fleet,
     * evaluate the scale policy, and execute the resulting
     * provisions / retirement. Unlike the internal control loop
     * this never reschedules itself — an external driver (the
     * disaggregated cluster, which runs one loop per pool) owns the
     * cadence and the termination condition. Requires autoscaling
     * to be enabled.
     */
    void controlOnce();

    /**
     * Merge the per-instance reports and settle the cost ledgers
     * (instance-seconds, instance-cost, shed/offered counters).
     * run() calls this after the event loop drains; the owner of
     * a context several clusters share calls it directly once the
     * shared loop is dry.
     *
     * @param end_of_service Absolute tick at which still-alive
     *        instances stop costing; -1 = the last completion seen
     *        by this cluster.
     */
    metrics::RunReport finalizeReport(Tick end_of_service = -1);

    std::size_t numInstances() const { return instances_.size(); }

    /**
     * Append every routing decision, in order, to `log` (null stops
     * recording): which instance got which request, and the tick
     * its arrival fires. Off by default — the log grows by one
     * entry (including a RequestSpec copy) per routing decision,
     * which long traces cannot afford. Must precede the first
     * submission. Replaying a single instance's log on a fresh
     * engine (its own one-engine context) reproduces that
     * instance's co-simulated metrics exactly (the zero-skew
     * property; see tests/test_cluster_exact.cpp).
     */
    void recordSubmissions(std::vector<RoutedSubmission> *log);

    /**
     * Imbalance of routed output tokens across instances:
     * max/mean - 1 (0 = perfectly balanced).
     */
    double tokenImbalance() const;

  private:
    /** Attach `engine` as instance `index` (context, callbacks,
     *  per-instance state rows). */
    void adoptInstance(std::unique_ptr<engine::ServingEngine> engine);

    /** True when instance `i` may receive new traffic. */
    bool routable(std::size_t i) const
    {
        return !draining_[i] && !warming_[i];
    }

    /** One autoscale control tick at `when`. */
    void controlTick(Tick when);

    /** Route one (possibly re-dispatched) submission. */
    void routeSubmission(const workload::RequestSpec &spec,
                         Tick deliver, Tick stamp);

    /** Pick the target instance (`footprint` is the FutureMemory
     *  charge, `session_key` the PrefixAffinity identity; each is
     *  unused by the other policies). */
    std::size_t pickInstance(TokenCount footprint,
                             std::uint64_t session_key);

    /** Routable instance with the smallest capacity-normalised
     *  load, where `load_of(i)` is the policy's numerator. */
    std::size_t leastLoaded(
        const std::function<double(std::size_t)> &load_of) const;

    /** Router-side predicted footprint of a request. */
    TokenCount predictFootprint(const workload::RequestSpec &spec);

    /** Take the request's FutureMemory charge (if any) back off
     *  its instance's predicted load. */
    void releaseCharge(RequestId id);

    /** Completion fan-in: bookkeeping + user callback. */
    void handleFinish(std::size_t instance,
                      const workload::RequestSpec &spec, Tick tick);

    /** Drain-event body for instance `index`. */
    void drainNow(std::size_t index);

    /** Borrowed clock + queue all instances are attached to. */
    sim::SimContext *context_;

    std::vector<std::unique_ptr<engine::ServingEngine>> instances_;
    RoutingPolicy policy_;
    std::size_t nextRoundRobin_ = 0;
    std::vector<bool> draining_;
    /** Executing shard per instance (all 0 without a hub). */
    std::vector<std::uint32_t> shardOf_;
    std::vector<TokenCount> routedTokens_;
    std::vector<RoutedSubmission> *submissionLog_ = nullptr;
    FinishCallback onFinish_;
    bool ran_ = false;

    /** Flight recorder for instance sinks (null = tracing off). */
    trace::TraceRecorder *traceRecorder_ = nullptr;
    std::string traceLabelPrefix_ = "engine";

    // Lifecycle state (one row per instance).
    std::vector<bool> warming_;
    std::vector<Tick> provisionedAt_;

    /** Tick the instance went idle after draining (-1 = alive). */
    std::vector<Tick> retiredAt_;

    /** Absolute tick of the latest completion anywhere in the
     *  fleet (instance-seconds end-of-service; per-instance
     *  makespans are measurement-relative under warmup). */
    Tick lastFinishTick_ = 0;

    /** Routed-but-unfinished requests per instance. */
    std::vector<std::size_t> inFlight_;

    // Autoscale state.
    InstanceFactory factory_;
    std::unique_ptr<autoscale::AutoScaler> autoscaler_;
    std::int64_t shedRequests_ = 0;
    std::int64_t offeredRequests_ = 0;
    std::int64_t scaleUpEvents_ = 0;
    std::int64_t scaleDownEvents_ = 0;
    std::size_t peakInstances_ = 0;
    double instanceSecondsTotal_ = 0.0;
    double instanceCostTotal_ = 0.0;

    /** Per-instance platform price in dollars/second (from each
     *  engine's HardwareSpec at adoption). */
    std::vector<double> costRate_;

    // FutureMemory routing state: the router's own "past" (the same
    // LengthPredictor component the Past-Future scheduler and the
    // predicted-SJF queue policy use) and the predicted in-flight
    // load charged to each instance.
    core::LengthPredictor routingPredictor_;
    std::vector<TokenCount> predictedLoad_;
    /** One routed request's FutureMemory charge. */
    struct Charge
    {
        std::size_t instance = 0;
        TokenCount footprint = 0;
    };
    FlatIdTable<Charge> charges_;

    /** PrefixAffinity state: each session's home instance. */
    std::unordered_map<std::uint64_t, std::size_t> sessionHome_;
};

} // namespace cluster
} // namespace lightllm

#endif // LIGHTLLM_CLUSTER_SERVING_CLUSTER_HH
