/**
 * @file
 * Continuous-batching LLM serving engine (discrete-event simulated).
 *
 * Reproduces the iteration-level serving loop of LightLLM/ORCA-style
 * frameworks: each iteration the scheduling policy is shown the
 * running batch and the waiting queue and emits a SchedulingDecision
 * (which requests to admit, in which order); the engine validates
 * and executes it (prefill, then one decode step over the batch). Every request's tokens are
 * timestamped so TTFT/TPOT/MTPOT and goodput can be evaluated
 * exactly. Memory is managed by the paged KV block manager; when a
 * decode step cannot allocate the next token slots, the policy picks
 * a victim to evict (recompute semantics: the victim re-queues at
 * the front and its KV is rebuilt by a later prefill over
 * prompt + already-generated tokens).
 *
 * Iteration durations come from the roofline PerfModel, which is the
 * simulation substitute for GPU execution (see DESIGN.md §1).
 *
 * The engine is an actor on a SimContext: arrivals wake it through
 * its own iteration (Step) events, and completion callbacks are
 * deferred to Delivery events at their exact finish ticks. A new
 * engine sits on a SimContext it owns, which run() and stepOnce()
 * drive; attachContext() moves it onto a cluster's shared context,
 * where every instance co-simulates exactly (see DESIGN.md §3).
 *
 * Steps pay per batch change, not per token (DESIGN.md §8): after
 * an iteration that leaves the queue and the prefill list empty, a
 * DecodeRun plans the quiet decode steps up to the next one that can
 * change the batch, and one Step event fires there. Every public
 * entry that reads state a run advances (clock, KV, member progress,
 * metrics) settles the steps that started before the context's tick
 * first; an arrival also ends the run.
 *
 * A request the KV can never hold throws std::invalid_argument from
 * the Step that meets it (so from run(), stepOnce() or a fleet run).
 *
 * The engine keeps the iteration skeleton, the request slab and the
 * queues (DESIGN.md §8, "Module map"). It reports each event once,
 * to its EngineObserver (metrics collector and trace sink).
 * DecodeRun, PredictionAudit (the per-step M* audit) and
 * SessionChainMemo (hash chains, session memo) take its requests as
 * spans and hand back member lists; the engine applies KV growth and
 * prediction peeks itself.
 */

#ifndef LIGHTLLM_ENGINE_SERVING_ENGINE_HH
#define LIGHTLLM_ENGINE_SERVING_ENGINE_HH

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "base/flat_id_table.hh"
#include "base/token_stream.hh"
#include "base/types.hh"
#include "core/scheduler.hh"
#include "core/scheduling_policy.hh"
#include "engine/decode_run.hh"
#include "engine/engine_config.hh"
#include "engine/engine_observer.hh"
#include "engine/engine_request.hh"
#include "engine/prediction_audit.hh"
#include "engine/session_chain_memo.hh"
#include "memory/kv_block_manager.hh"
#include "memory/prefix_cache.hh"
#include "metrics/report.hh"
#include "model/perf_model.hh"
#include "sim/sim_context.hh"
#include "workload/client_pool.hh"
#include "workload/request_spec.hh"

namespace lightllm {
namespace engine {

/** Continuous-batching serving engine over the simulated substrate. */
class ServingEngine : public workload::RequestSink
{
  public:
    /** Callback fired when a request finishes. */
    using FinishCallback =
        std::function<void(const workload::RequestSpec &, Tick)>;

    /** Callback fired with the full latency record of a finished
     *  request (SLO monitoring). */
    using RecordCallback =
        std::function<void(const metrics::RequestRecord &)>;

    /**
     * An engine executing `policy`'s decisions: build it with
     * core::makeSchedulingPolicy, or wrap a hand-built scheduler in
     * a flat SchedulingPolicy (nullptr queue: FCFS).
     */
    ServingEngine(model::PerfModel perf_model,
                  std::unique_ptr<core::SchedulingPolicy> policy,
                  EngineConfig config = {});

    ~ServingEngine() override;

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Swap the owned context for a shared one. Must be called
     * before any request is submitted; the caller keeps ownership
     * of `context`, which must outlive the engine's simulation.
     * run()/stepOnce() become unavailable — the context owner
     * drives the simulation (SimContext::runToCompletion).
     */
    void attachContext(sim::SimContext &context);

    /**
     * Attach a flight-recorder sink (DESIGN.md §10); nullptr
     * detaches. Must be called before any request is
     * submitted. Tracing is strictly read-only — an attached sink
     * never changes a single engine decision, so the resulting
     * RunReport is byte-identical to an untraced run (pinned by
     * test_trace).
     */
    void attachTrace(trace::EngineTrace *sink);

    /** Enqueue a request to arrive at `arrival` (>= current time). */
    void submitAt(const workload::RequestSpec &spec,
                  Tick arrival) override;

    /**
     * Submit with an explicit arrival stamp: the request joins the
     * wait queue at max(`deliver`, clock) but its *recorded*
     * arrival — the tick TTFT/SLA metrics count from — is `stamp`
     * (<= the delivery tick). The router uses this to preserve a
     * request's original arrival across drain re-dispatch; the
     * exactness replay harness uses it to reproduce co-simulated
     * timelines verbatim. submitAt is the stamp == delivery case.
     */
    void submitStamped(const workload::RequestSpec &spec,
                       Tick deliver, Tick stamp);

    /** Register a completion listener (e.g. the client pool).
     *  The callback fires as a Delivery event at the exact finish
     *  tick, in global event order. */
    void setOnFinish(FinishCallback callback)
    {
        onFinish_ = std::move(callback);
    }

    /** Register a latency-record listener (e.g. the cluster's SLO
     *  monitor fan-in). Delivered with the same timing discipline
     *  as setOnFinish, immediately before it at the same event. */
    void setOnRecord(RecordCallback callback)
    {
        onRecord_ = std::move(callback);
    }

    /** Drive the owned context with stepOnce() until it returns
     *  false (see RunLimits); returns the final metrics report. */
    metrics::RunReport run(const RunLimits &limits = {});

    /**
     * Advance the owned context by exactly one iteration: fire the
     * deliveries due before it (arrivals, finish notifications),
     * then settle the next planned step of a decode run, or fire
     * the engine's next Step event (admissions + prefill/decode).
     * Owned context only.
     *
     * @return false when nothing could be done (no work, no pending
     *         events, or the limits are reached).
     */
    bool stepOnce(const RunLimits &limits = {});

    /** A request handed back by drainQueued() for re-dispatch. */
    struct DrainedRequest
    {
        workload::RequestSpec spec;

        /** Tick at which it should re-enter a router. */
        Tick redispatchAt;

        /** Original arrival stamp to carry (latency metrics keep
         *  counting from the first submission). */
        Tick arrivalStamp;
    };

    /**
     * Stop accepting new work and hand back every request that has
     * not yet been admitted (queued requests plus cancelled
     * in-flight arrival events). Requests that already hold engine
     * state (admitted, prefilling, evicted-with-history) stay and
     * finish here. After draining, submitAt is a usage error.
     */
    std::vector<DrainedRequest> drainQueued();

    /**
     * Hand back up to `max_requests` never-admitted requests from
     * the *tail* of the waiting queue for re-dispatch elsewhere
     * (work stealing). The queue head keeps its position here, so
     * head-of-line semantics and TTFT of the oldest work are
     * unaffected; requests holding engine state (admitted,
     * evicted-with-history, swapped out) never move. The engine
     * keeps running.
     */
    std::vector<DrainedRequest> stealQueued(std::size_t max_requests);

    /** Snapshot the metrics collected so far (cluster use). */
    metrics::RunReport report();

    // --- Introspection (tests, benches) ------------------------------
    //
    // A decode run holds the queues, the batch membership and the
    // finished count fixed (anything that changes them ends it), so
    // the accessors reading only those need not settle.

    /** True when any request is running, prefilling, or queued. */
    bool
    hasWork() const
    {
        return !running_.empty() || !prefillPending_.empty() ||
            !waiting_.empty();
    }

    /** Pending (future) arrival events. */
    bool hasPendingArrivals() const
    {
        return !pendingArrivals_.empty();
    }

    /**
     * Current + queued resident footprint in tokens (used KV plus
     * the prompts waiting to be admitted) — the "outstanding work"
     * signal for least-loaded routing.
     */
    TokenCount outstandingTokens();

    /**
     * Scheduler-estimated future load in tokens: for the
     * Past-Future scheduler this is the predicted peak memory of
     * the running batch plus predicted footprints of the queue —
     * the signal the paper's future-work section proposes for
     * cross-instance request forwarding.
     */
    TokenCount predictedLoadTokens();

    /**
     * Prefill work still ahead of this engine, in prompt tokens:
     * undelivered arrivals, queued prompts, and admitted-but-
     * unprefilled remainders. Migrated prompts (resident KV, no
     * prefill compute) do not count. The routing signal for the
     * disaggregated prefill pool.
     */
    TokenCount pendingPrefillTokens() const;

    std::size_t numFinished() const { return finished_; }
    const memory::KvBlockManager &kvManager();
    const model::PerfModel &perfModel() const { return perf_; }

    /** The context carrying this engine's events: its own, or the
     *  shared one attached (tests schedule probe events on it). */
    sim::SimContext &context() { return *context_; }
    TokenCount capacityTokens() const { return kv_.capacityTokens(); }

    /**
     * Minimum ticks between a Step event of this engine firing and
     * any Delivery event its handler schedules (completion
     * notifications fire at the iteration's end tick, and every
     * iteration advances the clock by at least one scaled phase
     * latency). The sharded scheduler takes the fleet-wide minimum
     * as its conservative window lookahead (DESIGN.md §9).
     */
    Tick deliverySpawnFloor() const;

    /** The chain a session's next turn may inherit; empty when none
     *  is held (tests; see SessionChainMemo). */
    std::span<const PrefixHash>
    sessionChain(std::uint64_t session) const
    {
        return chains_.chain(session);
    }

  private:
    /** Arrival event: queue the pending request, stamped with its
     *  recorded arrival, and wake the actor. */
    void deliverArrival(std::uint64_t token, Tick when);

    /** Ensure a Step event is scheduled no later than
     *  max(now_, when). */
    void wakeActor(Tick when);

    /** Step event: finish the decode run ending at `when`, if any,
     *  then run one iteration there (admissions, the dedicated
     *  prefill phase without split-fuse, the step body) and plan
     *  what follows. */
    void onStepEvent(Tick when);

    /** Plan the decode run after an iteration that left the queue
     *  and prefill list empty; returns the tick the next Step event
     *  belongs at: the run's end, or now_ when none was planned. */
    Tick planRun();

    /** Apply the next planned step: its KV block crossings,
     *  prediction lapses, audit and step records. */
    void settleStep();

    /** Apply every planned step that started before `when`: what
     *  an event at `when` sees (deliveries fire first at equal
     *  ticks); settleNow to the context's tick. Then syncRun writes
     *  the settled steps into the members; endRun also drops the
     *  unsettled ones. */
    void settleTo(Tick when);
    void settleNow() { settleTo(context_->now()); }
    void syncRun() { run_.sync(running_, kv_); }
    void endRun() { run_.end(running_, kv_); }

    /** Ask the policy for a decision and execute it. */
    void admitRequests();

    /** Admit one request: allocate KV (reusing any cached prefix)
     *  and queue its prefill over the uncached suffix. */
    bool admitOne(EngineRequest *request);

    /** Cache the request's full KV blocks whose content is
     *  identified (prompt, plus generated tokens when the spec
     *  names their content). No-op outside prefix-cache mode. */
    void cacheInsert(EngineRequest *request);

    /** Process all pending prefills as dedicated iterations. */
    void runPrefillPhase();

    /** The one step body: a decode step over the running batch
     *  fused with up to one chunk of pending prompt tokens (none
     *  without split-fuse: the prefill phase ran first). */
    void runStep();

    /** Restore a swapped-out request's KV (the clock moves past the
     *  transfer when `advance`); returns the transfer's ticks. */
    Tick swapIn(EngineRequest &request, bool advance);

    /** Record a decode step over `batch` members holding `used` KV
     *  tokens: audit (members lag `ahead` steps), then the
     *  observer's step event. */
    void recordDecodeStep(std::int64_t batch, TokenCount used,
                          Tick duration, TokenCount ahead);

    /** Close the prefill span and join the decoding batch. */
    void startDecoding(EngineRequest *request);

    /** Migrated admission: join the batch, no compute or emission. */
    void joinMigrated(EngineRequest *request);

    /** Emit a prefilled request's first token; true when that
     *  finished it (the caller runs finishRequest), otherwise it
     *  joins the decoding batch. */
    bool completePrefill(EngineRequest *request);

    /** Evict the running request the policy ranks first (over the
     *  configured LIFO/FIFO tie-break). Returns the stall charged to
     *  the iteration: the swap-out transfer (recompute pays at
     *  re-prefill). */
    Tick evictOne();

    /** Complete a request and notify listeners. */
    void finishRequest(EngineRequest *request);

    /** Hand back the never-admitted requests of waiting_[from..]
     *  in queue order (drain and steal), recycling them; requests
     *  holding history keep their places. */
    void handBackQueued(std::size_t from,
                        std::vector<DrainedRequest> &out);

    /** Peek `request`'s prediction at `generated` tokens into its
     *  cache; true when the cached value changed. */
    bool peekAt(EngineRequest &request, TokenCount generated);

    /** Scheduler context over the decoding batch; with `queues`,
     *  also over the prefilling requests and the wait queue. */
    core::SchedulerContext buildContext(bool queues = true);

    /** Admissions the batch cap leaves room for (unbounded when
     *  config_.maxBatchSize is 0). */
    std::size_t admitRoom() const;

    Tick
    scaled(Tick duration) const
    {
        return scaleTicks(duration, config_.timeFactor);
    }

    bool limitsReached(const RunLimits &limits) const;

    model::PerfModel perf_;
    std::unique_ptr<core::SchedulingPolicy> policy_;
    EngineConfig config_;
    memory::KvBlockManager kv_;

    /** Radix prefix cache over kv_; null when disabled. Declared
     *  after kv_ so its teardown (dropping retained blocks) runs
     *  while the manager is alive. */
    std::unique_ptr<memory::PrefixCache> prefixCache_;

    /** The metrics collector and the optional trace sink: every
     *  event the engine reports goes through here. */
    EngineObserver observer_;

    /** The context the engine starts on (null once attachContext()
     *  swapped in a shared one), and the one carrying its events. */
    std::unique_ptr<sim::SimContext> ownedContext_;
    sim::SimContext *context_ = nullptr;

    bool draining_ = false;

    /** The limits of the driving stepOnce() call (none on a shared
     *  context); planRun stops at their maxTicks. */
    RunLimits limits_;

    /** The planned decode run over running_ (DESIGN.md §8). */
    DecodeRun run_;

    /** The pending Step event (kInvalidEventId: none) and its tick. */
    sim::EventId stepEvent_ = sim::kInvalidEventId;
    Tick stepTick_ = 0;

    /** One in-flight (cancellable) arrival event. */
    struct PendingArrival
    {
        sim::EventId event;
        workload::RequestSpec spec;
        Tick stamp;
    };

    /** In-flight arrival events: the slab index of each, keyed by
     *  submission token (not request id: duplicate-id submissions
     *  must each deliver so the duplicate check in deliverArrival
     *  can fire). Slab entries recycle through arrivalFree_, so a
     *  warmed engine's submit path allocates nothing. */
    FlatIdTable<std::uint32_t> pendingArrivals_;
    std::uint64_t nextArrivalToken_ = 0;
    std::vector<PendingArrival> arrivalSlab_;
    std::vector<std::uint32_t> arrivalFree_;

    /**
     * Per-request state slab: EngineRequest objects are allocated
     * once, pointer-stable (the queues hold raw pointers), and
     * recycled through a free list when a request finishes or is
     * drained — the engine submit/finish path performs zero
     * per-request heap allocations in steady state (pinned by the
     * counting-new test in test_sim_stress).
     */
    std::vector<std::unique_ptr<EngineRequest>> requestSlab_;
    std::vector<EngineRequest *> requestFree_;

    /** Grab a recycled (or fresh) slab entry, reset to defaults;
     *  recycle one: drop its id entry, release its slot (the policy
     *  drops its per-request state; the generation moves on). */
    EngineRequest *allocRequest();
    void recycleRequest(EngineRequest *request);

    /** Slab index of each live request, by id (the duplicate-id
     *  check of deliverArrival). */
    FlatIdTable<std::uint32_t> requests_;
    std::deque<EngineRequest *> waiting_;
    std::vector<EngineRequest *> prefillPending_;
    std::vector<EngineRequest *> running_;

    Tick now_ = 0;
    std::size_t finished_ = 0;

    /** Prompt tokens of submitted-but-undelivered arrivals (load
     *  visibility for the cluster router). */
    TokenCount undeliveredTokens_ = 0;
    std::uint64_t nextAdmitSeq_ = 0;
    bool ran_ = false;
    FinishCallback onFinish_;
    RecordCallback onRecord_;

    /** Parked payload of one deferred finish notification, in a
     *  recycled slab slot, so the completion event captures only an
     *  index — small enough for the event queue's inline handler
     *  storage (DESIGN.md §8). */
    struct DeferredNotify
    {
        workload::RequestSpec spec;
        metrics::RequestRecord record;
        Tick tick = 0;
    };
    std::vector<DeferredNotify> notifySlab_;
    std::vector<std::size_t> notifyFree_;

    // Scratch buffers reused across iterations.
    core::SchedulingDecision decisionScratch_;
    std::vector<core::RunningView> runningViews_;
    std::vector<core::WaitingView> waitingViews_;
    std::vector<RequestId> victimScratch_;
    std::vector<EngineRequest *> finishedScratch_;
    std::vector<EngineRequest *> swappedInScratch_;

    /** The prediction audit over running_ + prefillPending_. */
    PredictionAudit audit_;

    /** Bumped whenever the policy observes a finish: every cached
     *  prediction lapses (see core::PredictionPeek). */
    std::uint64_t predictionEpoch_ = 1;

    /** The requests' hash chains and the session chain memo. */
    SessionChainMemo chains_;
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_SERVING_ENGINE_HH
