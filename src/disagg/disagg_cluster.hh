/**
 * @file
 * Disaggregated prefill/decode serving with KV migration.
 *
 * Mooncake/DistServe-style deployment: the fleet splits into a
 * *prefill pool* and a *decode pool*, each a cluster::ServingCluster
 * co-simulating on one sim::SimContext the caller owns. A request's
 * life:
 *
 *  1. The prefill pool serves a one-token sub-request (the full
 *     prompt, maxNewTokens = 1). Its completion is the request's
 *     real TTFT — prefill instances never hold decode batches, so
 *     long prompts stop inflating other requests' MTPOT.
 *  2. The finished KV cache (prompt + first token, rounded up to
 *     whole blocks) migrates over a modeled interconnect:
 *     transfer time = bytes / HardwareSpec::interconnectBandwidth
 *     + HardwareSpec::interconnectLatency.
 *  3. The transfer lands in a *bounded handoff queue*. When full,
 *     the request is dropped (open-loop rejection) and counted in
 *     `handoffShedRequests` — the backpressure point of the
 *     disaggregated pipeline.
 *  4. A dispatch gate reserves memory on the decode pool (the
 *     migrated KV must fit the target instance) and submits a
 *     decode-side sub-request whose `migratedPrefix` covers the
 *     whole prompt: admission allocates the KV as resident tokens
 *     without prefill compute, and all four schedulers discount it
 *     through the same seam as a cached prefix.
 *
 * Routing is asymmetric: the prefill pool places by pending prefill
 * tokens (RoutingPolicy::PrefillLoad), the decode pool by predicted
 * future-memory footprint. With autoscaling enabled per pool, the
 * DisaggCluster drives *two independent control loops* off one
 * periodic event, so prefill-heavy vs decode-heavy traffic grows
 * different pools. End-to-end latency records are reassembled per
 * request id: TTFT from the prefill side, completion from the
 * decode side, and the migration gap (transfer + handoff wait +
 * decode admission) honestly counts toward MTPOT. See DESIGN.md §7.
 */

#ifndef LIGHTLLM_DISAGG_DISAGG_CLUSTER_HH
#define LIGHTLLM_DISAGG_DISAGG_CLUSTER_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "cluster/serving_cluster.hh"
#include "engine/serving_engine.hh"
#include "metrics/report.hh"
#include "sim/sim_context.hh"
#include "workload/client_pool.hh"

namespace lightllm {
namespace disagg {

/** Interconnect + handoff parameters of a disaggregated fleet. */
struct DisaggConfig
{
    /** KV bytes per token slot (ModelSpec::kvBytesPerToken()). */
    ByteCount kvBytesPerToken = 0;

    /** KV block granularity: transfers move whole blocks. */
    TokenCount blockSize = 16;

    /** Interconnect bandwidth in bytes/second. */
    double linkBandwidth = 25e9;

    /** Fixed per-transfer latency in ticks. */
    Tick transferLatency = 0;

    /** Handoff queue bound; a completed transfer that finds the
     *  queue full is dropped (backpressure by rejection). */
    std::size_t handoffDepth = 64;
};

/** KV bytes migrated for a request holding `kv_tokens` token slots
 *  (whole-block rounding — partial blocks move entirely). */
ByteCount migrationBytes(const DisaggConfig &config,
                         TokenCount kv_tokens);

/** Ticks a migration of `kv_tokens` occupies the interconnect
 *  (serialization at linkBandwidth plus the fixed latency). */
Tick migrationTransferTicks(const DisaggConfig &config,
                            TokenCount kv_tokens);

/** A prefill pool and a decode pool joined by a KV-migration
 *  handoff queue, co-simulating on one borrowed context. */
class DisaggCluster : public workload::RequestSink
{
  public:
    using FinishCallback = engine::ServingEngine::FinishCallback;

    /**
     * @param prefill_instances Engines of the prefill pool (>= 1);
     *        routed by RoutingPolicy::PrefillLoad.
     * @param decode_instances Engines of the decode pool (>= 1);
     *        routed by RoutingPolicy::FutureMemory.
     * @param config Interconnect + handoff parameters.
     * @param context Clock + event queue both pools borrow. When
     *        the caller has enrolled it in a sim::ShardedSimContext,
     *        both pools' engines shard across that one hub
     *        (bit-identical results, see DESIGN.md §9); handoffs
     *        between pools are Delivery events on the coordinator
     *        and cross shard boundaries transparently.
     */
    DisaggCluster(
        std::vector<std::unique_ptr<engine::ServingEngine>>
            prefill_instances,
        std::vector<std::unique_ptr<engine::ServingEngine>>
            decode_instances,
        DisaggConfig config, sim::SimContext &context);

    /** Submit an end-user request: it prefills in the prefill pool
     *  and (when more than one token is wanted) migrates into the
     *  decode pool. */
    void submitAt(const workload::RequestSpec &spec,
                  Tick arrival) override;

    /** Completion listener, fired once per *original* request with
     *  its original spec at its final completion tick (prefill-only
     *  requests complete in the prefill pool). Closed-loop drivers
     *  plug in here unchanged. */
    void setOnFinish(FinishCallback callback);

    /**
     * Turn on both pools' control loops: the prefill pool with
     * `config`, the decode pool with `config` at ShedPolicy::Never
     * — the bounded handoff queue is the pipeline's only rejection
     * point, so a request that paid for prefill and migration is
     * served.
     *
     * @param factory Builds each engine either pool provisions.
     */
    void enableAutoscale(
        const autoscale::AutoscaleConfig &config,
        std::unique_ptr<autoscale::ScalePolicy> prefill_policy,
        std::unique_ptr<autoscale::ScalePolicy> decode_policy,
        const cluster::ServingCluster::InstanceFactory &factory);

    /** The prefill and decode pools, for pre-run wiring (drains,
     *  history warming). A caller that turns on a pool's
     *  autoscaling itself keeps the decode pool at
     *  ShedPolicy::Never — run() checks it. */
    std::pair<cluster::ServingCluster &, cluster::ServingCluster &>
    pools()
    {
        return {*prefillPool_, *decodePool_};
    }

    /**
     * Attach a flight recorder to the whole disaggregated system:
     * prefill-pool engines get sinks labelled `prefill-<i>`, decode
     * engines `decode-<i>`. Call before any submission; a caller
     * running a sharded hub attaches the hub's sinks after these.
     */
    void attachTrace(trace::TraceRecorder *recorder);

    /**
     * Co-simulate both pools to completion and return the combined
     * report: per-request records reassembled across the handoff
     * (arrival + TTFT from prefill, completion + migration gap from
     * decode), pool ledgers merged, and the disagg section
     * (per-pool p99s, handoff p99 wait, migrated bytes) filled in.
     * @throws std::invalid_argument when a migrated KV exceeds every
     *         decode instance's capacity.
     */
    metrics::RunReport run();

  private:
    /** Handoff state of one in-flight request. */
    struct Pending
    {
        workload::RequestSpec original;

        /** Decode-side sub-request (unused when the original wants
         *  a single token). */
        workload::RequestSpec decodeSpec;
    };

    struct HandoffEntry
    {
        RequestId id;
        Tick enqueuedAt;
    };

    void handlePrefillFinish(const workload::RequestSpec &spec,
                             Tick tick);
    void handleDecodeFinish(const workload::RequestSpec &spec,
                            Tick tick);
    void onTransferComplete(RequestId id, Tick when);

    /** Dispatch queue-head requests while the decode pool has room
     *  for their migrated KV. */
    void tryDispatch(Tick when);

    /** True when some routable decode instance can hold `kv_tokens`
     *  more resident tokens (net of not-yet-visible dispatches). */
    bool decodeRoomFor(TokenCount kv_tokens);

    /** Original-request completion fan-out. */
    void finishUser(const workload::RequestSpec &original, Tick tick);

    /** Two-pool control tick: one controlOnce() per elastic pool,
     *  rescheduled every autoscale::kControlInterval until every
     *  offered request is accounted for. */
    void controlTick(Tick when);

    /** All offered requests finished, shed at the router, or shed
     *  at the handoff — nothing left that a control decision or
     *  dispatch retry could affect. */
    bool quiescent() const;

    /** Combined per-request records + disagg report section, from
     *  the two pools' reports. */
    metrics::RunReport
    assembleReport(const metrics::RunReport &prefill_report,
                   const metrics::RunReport &decode_report);

    DisaggConfig config_;

    /** Borrowed clock + event queue both pools share. */
    sim::SimContext &context_;

    std::unique_ptr<cluster::ServingCluster> prefillPool_;
    std::unique_ptr<cluster::ServingCluster> decodePool_;

    FinishCallback onFinish_;
    bool ran_ = false;

    std::unordered_map<RequestId, Pending> pending_;
    std::deque<HandoffEntry> handoff_;

    /** Ids dropped at a full handoff queue (their prefill-side
     *  records are excluded from the combined report). */
    std::unordered_set<RequestId> shedIds_;

    /** KV tokens submitted to the decode pool whose arrival has not
     *  yet reached the instances' outstanding counters (deferred
     *  routing fires later in the same tick); reserved so a burst
     *  of same-tick dispatches cannot over-commit the gate. */
    TokenCount inFlightDispatchTokens_ = 0;

    std::int64_t offered_ = 0;
    std::int64_t finishedUsers_ = 0;
    std::int64_t migratedRequests_ = 0;
    std::int64_t migratedKvBytesTotal_ = 0;
    std::int64_t handoffShed_ = 0;
    Tick lastUserFinishTick_ = 0;

    /** Handoff waits (transfer complete → dispatch), seconds. */
    std::vector<double> handoffWaits_;
};

} // namespace disagg
} // namespace lightllm

#endif // LIGHTLLM_DISAGG_DISAGG_CLUSTER_HH
