/**
 * @file
 * Continuous-batching LLM serving engine (discrete-event simulated).
 *
 * Reproduces the iteration-level serving loop of LightLLM/ORCA-style
 * frameworks: each iteration the scheduling policy is shown the
 * running batch and the waiting queue and emits a SchedulingDecision
 * (which requests to admit, in which order, and any proactive
 * eviction victims); the engine validates and executes it (prefill,
 * then one decode step over the batch). Every request's tokens are
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
 * Steps pay per batch change, not per token (DESIGN.md §8,
 * "Multi-step decode runs"): after an iteration that leaves the
 * queue and the prefill list empty, the engine plans the quiet
 * decode steps up to the next one that can change its batch and
 * schedules one Step event there. Those steps are applied lazily —
 * each one's tick, KV growth, prediction re-peeks and records are
 * exact, but members' progress is written back only when something
 * observes or changes the engine. Every public entry that reads
 * state a run advances (clock, KV, member progress, metrics)
 * settles the steps that started before the context's current
 * tick first; an arrival also ends the run.
 */

#ifndef LIGHTLLM_ENGINE_SERVING_ENGINE_HH
#define LIGHTLLM_ENGINE_SERVING_ENGINE_HH

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/flat_id_table.hh"
#include "base/token_stream.hh"
#include "base/types.hh"
#include "core/future_memory.hh"
#include "core/scheduler.hh"
#include "core/scheduling_policy.hh"
#include "engine/engine_config.hh"
#include "memory/kv_block_manager.hh"
#include "memory/prefix_cache.hh"
#include "metrics/collector.hh"
#include "metrics/report.hh"
#include "model/perf_model.hh"
#include "sim/sim_context.hh"
#include "workload/client_pool.hh"
#include "workload/request_spec.hh"

namespace lightllm {

namespace trace {
class EngineTrace;
}

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

    /** Full pipeline: admission policy + queue-ordering policy. */
    ServingEngine(model::PerfModel perf_model,
                  std::unique_ptr<core::SchedulingPolicy> policy,
                  EngineConfig config = {});

    /**
     * Compatibility adapter: wraps `scheduler` in a SchedulingPolicy
     * with the FCFS queue policy, which reproduces the seed's
     * count-based FCFS-prefix admissions bit-identically.
     */
    ServingEngine(model::PerfModel perf_model,
                  std::unique_ptr<core::Scheduler> scheduler,
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
     * Attach a flight-recorder sink (see trace/trace_recorder.hh);
     * nullptr detaches. Must be called before any request is
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
    void setOnFinish(FinishCallback callback);

    /** Register a latency-record listener (e.g. the cluster's SLO
     *  monitor fan-in). Delivered with the same timing discipline
     *  as setOnFinish, immediately before it at the same event. */
    void setOnRecord(RecordCallback callback);

    /**
     * Drive the owned context with stepOnce() until it returns
     * false (see RunLimits for where the limits stop it). Owned
     * context only.
     *
     * @return The final metrics report.
     */
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
     * (work stealing onto a freshly warmed instance). The queue
     * head keeps its position here, so head-of-line semantics and
     * TTFT of the oldest work are unaffected; requests holding
     * engine state (admitted, evicted-with-history, swapped out)
     * never move. The engine keeps running.
     */
    std::vector<DrainedRequest> stealQueued(std::size_t max_requests);

    /** True once drainQueued() was called. */
    bool draining() const { return draining_; }

    /** Snapshot the metrics collected so far (cluster use). */
    metrics::RunReport report();

    // --- Introspection (tests, benches) ------------------------------
    //
    // A decode run holds the queues, the batch membership and the
    // finished count fixed (anything that changes them ends it), so
    // the accessors reading only those need not settle.

    /** True when any request is running, prefilling, or queued. */
    bool hasWork() const;

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

    Tick now();
    std::size_t runningSize() const { return running_.size(); }
    std::size_t waitingSize() const { return waiting_.size(); }
    std::size_t numFinished() const { return finished_; }
    const memory::KvBlockManager &kvManager();

    /** The engine's prefix cache; null when disabled. */
    const memory::PrefixCache *prefixCache();
    const model::PerfModel &perfModel() const { return perf_; }

    /** The context carrying this engine's events: its own, or the
     *  shared one attached (tests schedule probe events on it). */
    sim::SimContext &context() { return *context_; }
    core::SchedulingPolicy &policy() { return *policy_; }
    core::Scheduler &scheduler() { return policy_->admission(); }
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

    /**
     * High-water mark of the per-request state slab: the number of
     * EngineRequest slots ever allocated. Bounded by the peak
     * concurrent request count, not the total served — finished
     * requests recycle their slot (tests pin this).
     */
    std::size_t requestSlabSize() const
    {
        return requestSlab_.size();
    }

    /** Sessions whose last turn finished here holding a block-hash
     *  chain the session's next turn may inherit (tests). */
    std::vector<std::uint64_t> heldSessionChains() const;

    /** The chain held for `session`; empty when none (tests). */
    std::span<const PrefixHash>
    sessionChain(std::uint64_t session) const;

  private:
    /** Engine-side mutable request state. The fields every decode
     *  step reads for every member lead, next to the spec's
     *  lengths, so a step touches few cache lines per member. */
    struct EngineRequest
    {
        /** Generation-tagged handle: the index is the slab
         *  position, the generation moves on every recycle. Keys
         *  the KV allocation and the policy's per-request state. */
        RequestSlot slot = kInvalidSlot;

        /** Tokens generated; during a decode run this and the
         *  emission ticks lag by the run's unsynced steps (see
         *  syncRun). */
        TokenCount generated = 0;

        /** The audit's cached peek, max(peek, generated): it holds
         *  while generated < predictedUntil (the peek's horizon) and
         *  predictedEpoch is the engine's predictionEpoch_. */
        TokenCount predicted = 0;
        TokenCount predictedUntil = 0;
        std::uint64_t predictedEpoch = 0;

        Tick firstToken = -1;
        Tick lastEmit = -1;
        Tick maxGap = 0;

        workload::RequestSpec spec;
        Tick arrival = 0;
        int evictions = 0;

        /** Admission order stamp for the eviction policy. */
        std::uint64_t admitSeq = 0;

        /** Prompt tokens still to process (split-fuse prefill). */
        TokenCount remainingPrompt = 0;

        /** KV lives in host memory awaiting swap-in. */
        bool swappedOut = false;

        /** Prompt tokens resident in shared prefix-cache blocks
         *  (0 unless admitted through a cache match). */
        TokenCount cachedPrefix = 0;

        /** Admitted this iteration with migrated KV: the iteration
         *  moves it straight to running (no compute, no
         *  emission — the first token came from the prefill pool). */
        bool migratedAdmit = false;

        /** The request's block-hash chain (prefix-cache mode),
         *  extended in place as larger caps ask for more blocks:
         *  no token of the request is folded twice. A session turn
         *  may start from the chain its previous turn left (see
         *  inheritSessionChain). */
        std::vector<PrefixHash> hashes;

        /** Prediction-audit membership mark (see carryAuditMembers;
         *  only ever compared against the current step's marks). */
        std::uint64_t auditMark = 0;

        /** Tokens generation will produce (EOS or cap). */
        TokenCount
        targetOutput() const
        {
            return spec.effectiveOutputLen();
        }
    };

    /** Arrival-event handler: move the pending request into the
     *  wait queue, stamped with its recorded arrival, and wake the
     *  actor. */
    void deliverArrival(std::uint64_t token, Tick when);

    /** One engine iteration: admissions, the dedicated prefill
     *  phase when split-fuse is off, then the step body. */
    void iterateOnce();

    /** Ensure a Step event is scheduled no later than
     *  max(now_, when). */
    void wakeActor(Tick when);

    /** Step handler: finish the decode run ending at `when`, if
     *  any, then run one iteration there and plan what follows. */
    void onStepEvent(Tick when);

    /**
     * Plan the quiet decode steps that follow the iteration just
     * run: with an empty queue and prefill list, every step up to
     * (not including) the first that finishes a member, fails
     * batchCanGrow() or starts at or after the limits' maxTicks.
     *
     * @return The tick the next Step event belongs at: the run's
     *         end, or now_ when nothing was planned.
     */
    Tick planRun();

    /** True while planned steps remain unsettled. */
    bool runPending() const
    {
        return decodeRun_.settled < decodeRun_.ends.size();
    }

    /** The phase whose members take a fresh block at the step
     *  after one that crossed `phase`. */
    std::uint32_t nextCrossing(std::uint32_t phase) const;

    /** Apply the next planned step: its KV block crossings,
     *  prediction lapses, audit and step records. */
    void settleStep();

    /** Apply every planned step that started before `when`: what
     *  an event at `when` sees (deliveries fire before steps at
     *  equal ticks). */
    void settleTo(Tick when);

    /** settleTo the context's current tick. */
    void settleNow() { settleTo(context_->now()); }

    /** Write the settled steps into the members: generated count,
     *  emission ticks and the deferred KV slack fills. */
    void syncRun();

    /** syncRun, then drop the plan's unsettled steps. */
    void endRun();

    /** Rescore the carried predicted audit after a decode-run step
     *  moved the predictions of the members in decodeRun_.moved:
     *  each moved entry slides to its Eq. 2 slot, then one scan. */
    void moveLapsedEntries();

    /** File `member` in the lapse calendar at `step`, unless the
     *  run ends before it. */
    void fileLapse(std::uint32_t member, TokenCount step);

    /** Ask the policy for a decision and execute it. */
    void admitRequests();

    /** Admit one request: allocate KV (reusing any cached prefix)
     *  and queue its prefill over the uncached suffix. */
    bool admitOne(EngineRequest *request);

    /**
     * Prompt tokens of `request` whose KV is resident via
     * disaggregated migration: `spec.migratedPrefix` on the first
     * admission attempt, 0 once any local history exists (an
     * eviction or swap drops the migrated copy, so the prompt must
     * recompute locally).
     */
    static TokenCount migratedResidentTokens(
        const EngineRequest &request);

    /**
     * The first cap / blockSize hashes of the request's stream
     * (prompt segments, then generated output when outputKey names
     * it), fewer if the stream ends sooner. Extends
     * EngineRequest::hashes when it is short; the span is valid
     * until the next extension.
     */
    std::span<const PrefixHash> hashChain(EngineRequest &request,
                                          TokenCount cap);

    /**
     * The request's prompt block-hash chain, capped one token short
     * of its recompute prompt (a fully cached prompt still prefills
     * its last token) and at the tokens whose content is known
     * (prompt; plus regenerated output when outputKey is set).
     * Prefix-cache mode only.
     */
    std::span<const PrefixHash> promptHashes(EngineRequest &request);

    /** Cache the request's full KV blocks whose content is
     *  identified (prompt, plus generated tokens when the spec
     *  names their content). No-op outside prefix-cache mode. */
    void cacheInsert(EngineRequest *request);

    /**
     * A session turn arrived: take the chain its session's last
     * turn here left, provided that turn's stream is a
     * segment-wise prefix of this turn's segments (so its hashes
     * are this stream's first hashes). No-op outside prefix-cache
     * mode.
     */
    void inheritSessionChain(EngineRequest &request);

    /** A session turn finished: leave its stream and complete
     *  chain for the session's next turn (after cacheInsert).
     *  No-op outside prefix-cache mode. */
    void handOffSessionChain(EngineRequest &request);

    /** Process all pending prefills as dedicated iterations. */
    void runPrefillPhase();

    /** The one step body: a decode step over the running batch
     *  fused with up to one chunk of pending prompt tokens (none
     *  without split-fuse: the prefill phase ran first). */
    void runStep();

    /** Close the prefill span and join the decoding batch. */
    void startDecoding(EngineRequest *request);

    /** Migrated admission: join the batch, no compute or emission. */
    void joinMigrated(EngineRequest *request);

    /** Emit a prefilled request's first token; true when that
     *  finished it (the caller runs finishRequest), otherwise it
     *  joins the decoding batch. */
    bool completePrefill(EngineRequest *request);

    /**
     * Evict one running request; the victim is chosen by the
     * scheduling policy (queue-policy victim ranking over the
     * configured LIFO/FIFO tie-break).
     *
     * @return Stall ticks charged to the current iteration (the
     *         swap-out transfer; recompute eviction is free now and
     *         pays at re-prefill).
     */
    Tick evictOne();

    /** Evict the given running request (decision executor);
     *  `reactive` distinguishes the mid-decode allocation-failure
     *  path from a scheduler-decided eviction (trace cause). */
    Tick evictRequest(RequestId id, bool reactive);

    /** Mark a token emission for `request` at `tick`. */
    void recordEmission(EngineRequest &request, Tick tick);

    /** Complete a request and notify listeners. */
    void finishRequest(EngineRequest *request);

    /** One carried audit member: the slot it held when it joined
     *  (a slab entry taken over by a later request no longer
     *  matches). */
    struct AuditMember
    {
        EngineRequest *request = nullptr;
        RequestSlot slot = kInvalidSlot;
    };

    /**
     * One prediction-audit batch, carried across steps in its last
     * Eq. 2 order (members[i] is the request entries[i] describes),
     * with the M* of its last scan.
     */
    struct AuditBatch
    {
        std::vector<AuditMember> members;
        std::vector<core::BatchEntry> entries;
        TokenCount peak = 0;
    };

    /**
     * This step's true and predicted M* (DESIGN.md §8). A uniform
     * decode step leaves every Eq. 3 term invariant, so the true M*
     * is rescanned only after the membership changed or while a
     * member is prefill-pending, and the predicted one also after a
     * member's prediction changed. `ahead` is how many steps every
     * decoding member's `generated` lags (a decode run's unsynced
     * steps): rescans score the batch in that lagging frame, which
     * shifts every Eq. 3 term's two parts by opposite amounts.
     */
    std::pair<TokenCount, TokenCount> auditStep(TokenCount ahead = 0);

    /**
     * Bring both audit batches up to the current batch (running
     * plus prefill-pending): drop requests that left, append
     * requests that joined, keep survivors in their carried order.
     * Membership goes by slot, not by pointer, so a recycled slab
     * entry that takes over a departed request's place joins as a
     * new member.
     */
    void carryAuditMembers();

    /** Re-peek `request`'s prediction when its cached one lapsed
     *  (or unconditionally with `force`). */
    void refreshPrediction(EngineRequest &request, bool force);

    /** Peek `request`'s prediction at `generated` tokens; flags a
     *  changed value. */
    void peekAt(EngineRequest &request, TokenCount generated);

    /** Rescan the true / predicted batch from its requests, whose
     *  `generated` lags by `ahead` steps. */
    void rescanTrue(TokenCount ahead);
    void rescanPredicted(TokenCount ahead);

    /** M* of a refreshed audit batch: restore its Eq. 2 order by
     *  insertion sort, then one scan (DESIGN.md §8). */
    static TokenCount carriedPeak(AuditBatch &batch);

    /** Trace a successful admission (queued → prefill spans). */
    void traceAdmit(const EngineRequest &request);

    /** Emit the per-iteration engine counters (detail >= steps). */
    void traceStepCounters(std::int64_t batch_size,
                           TokenCount used_tokens,
                           TokenCount true_future,
                           TokenCount predicted_future);

    /** Scheduler context over the current queues. */
    core::SchedulerContext buildContext();

    /** Admissions the batch cap leaves room for (unbounded when
     *  config_.maxBatchSize is 0). */
    std::size_t admitRoom() const;

    /** Policy-facing view of one engine request. */
    static core::RunningView runningViewOf(
        const EngineRequest &request, bool prefilling);

    /** Cached-prefix tokens the cache would cover for a waiting
     *  request right now (no LRU effect). */
    TokenCount peekCachedPrefix(EngineRequest &request);

    /** Scale a modelled latency by the engine time factor. */
    Tick scaled(Tick duration) const;

    /** True when a stop limit has been reached. */
    bool limitsReached(const RunLimits &limits) const;

    model::PerfModel perf_;
    std::unique_ptr<core::SchedulingPolicy> policy_;
    EngineConfig config_;
    memory::KvBlockManager kv_;

    /** Radix prefix cache over kv_; null when disabled. Declared
     *  after kv_ so its teardown (dropping retained blocks) runs
     *  while the manager is alive. */
    std::unique_ptr<memory::PrefixCache> prefixCache_;

    metrics::MetricsCollector collector_;

    /** Flight-recorder sink; null (the default) = tracing off and
     *  every hook reduces to this one branch. */
    trace::EngineTrace *trace_ = nullptr;

    /** The context the engine starts on; null once attachContext()
     *  swapped in a shared one. */
    std::unique_ptr<sim::SimContext> ownedContext_;

    /** Context carrying this engine's events (owned or shared). */
    sim::SimContext *context_ = nullptr;

    bool draining_ = false;

    /** The limits of the driving stepOnce() call (none on a shared
     *  context); planRun stops at their maxTicks. */
    RunLimits limits_;

    /**
     * A planned decode run (DESIGN.md §8): quiet steps over the
     * running batch, whose membership holds for the whole run, so
     * member i is running_[i]. Steps are numbered from 1; ends[s-1]
     * is step s's end tick, the next step's start.
     */
    struct DecodeRun
    {
        std::vector<Tick> ends;
        Tick start = 0;

        /** Steps applied (now_ is the next one's start). */
        std::size_t settled = 0;

        /** Steps written into the members (syncRun). */
        std::size_t synced = 0;

        /** Settled growth tokens not yet placed in the KV manager:
         *  kv_.usedTokens() + kvLag is the stepwise count. */
        TokenCount kvLag = 0;

        /** Per member: its allocation's fill at the run's start
         *  modulo the block size (planning scratch). */
        std::vector<std::uint32_t> phase;

        /** The members of each phase, in member order:
         *  phaseMembers[phaseStart[p] .. phaseStart[p + 1]). */
        std::vector<std::uint32_t> phaseStart;
        std::vector<std::uint32_t> phaseMembers;

        /** The phase crossing at the next step to settle. */
        std::uint32_t crossing = 0;

        /** Per member: the step its KV allocation is placed to. */
        std::vector<std::size_t> kvSynced;

        /**
         * The lapse calendar: lapseHead[s] is the first member whose
         * cached prediction lapses at step s, lapseNext[i] the next
         * member lapsing at member i's step (kNoMember ends a list).
         * A lapse past the run's last step is not filed; steps past
         * the latest lapse filed have no head.
         */
        std::vector<std::uint32_t> lapseHead;
        std::vector<std::uint32_t> lapseNext;

        /** Members whose prediction moved at the step being settled
         *  (settleStep scratch). */
        std::vector<std::uint32_t> moved;

        /** Per member: its entry's index in the carried predicted
         *  audit; built from memberOfSlab on first use after a
         *  rescan reordered the entries. */
        std::vector<std::uint32_t> auditPos;
        bool auditPosValid = false;

        /** Member index by request slab index (valid for members). */
        std::vector<std::uint32_t> memberOfSlab;
    };
    static constexpr std::uint32_t kNoMember = ~std::uint32_t{0};
    DecodeRun decodeRun_;

    /** The pending Step event, if any. */
    sim::EventId stepEvent_ = sim::kInvalidEventId;
    bool stepScheduled_ = false;
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
     *  can fire). */
    FlatIdTable<std::uint32_t> pendingArrivals_;
    std::uint64_t nextArrivalToken_ = 0;

    /** Arrival slab: entries are recycled through arrivalFree_, so
     *  a warmed engine's submit path allocates nothing. */
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

    /** Grab a recycled (or fresh) slab entry, reset to defaults. */
    EngineRequest *allocRequest();

    /** Drop the id entry, release the slot (the policy drops its
     *  per-request state; the handle's generation moves on) and
     *  return the slab entry to the free list (field reset happens
     *  on reuse in allocRequest). */
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

    /**
     * Parked payload of one deferred finish notification. The spec
     * is moved out of the dying request into a recycled slab slot,
     * so the completion event only captures a slab index — small
     * enough for the event queue's inline handler storage (see
     * DESIGN.md §8).
     */
    struct DeferredNotify
    {
        workload::RequestSpec spec;
        metrics::RequestRecord record;
        Tick tick = 0;
    };

    /** Deferred-notification slab + free slot indices. */
    std::vector<DeferredNotify> notifySlab_;
    std::vector<std::size_t> notifyFree_;

    // Scratch buffers reused across iterations.
    core::SchedulingDecision decisionScratch_;
    std::vector<core::RunningView> runningViews_;
    std::vector<core::WaitingView> waitingViews_;
    std::vector<RequestId> victimScratch_;
    std::vector<EngineRequest *> finishedScratch_;
    std::vector<EngineRequest *> swappedInScratch_;

    /** The prediction audit's true and predicted batches. */
    AuditBatch auditTrue_;
    AuditBatch auditPredicted_;

    /** Source of audit membership marks (two per reconcile). */
    std::uint64_t auditEpoch_ = 0;

    /** The audit batch changed since the last audit (a join, a
     *  departure, or a pending member starting to decode). */
    bool auditMembersChanged_ = true;

    /** A member's cached prediction changed since the last
     *  predicted rescan. */
    bool auditPredictionChanged_ = true;

    /** Bumped whenever the policy observes a finish: every cached
     *  prediction lapses (see core::PredictionPeek). */
    std::uint64_t predictionEpoch_ = 1;

    std::vector<memory::BlockId> matchScratch_;
    std::vector<PromptSegment> streamScratch_;

    /** A session's last finished turn here: its stream (prompt
     *  segments, then the identified reply) and that stream's
     *  block-hash chain. Empty once the next turn took it. */
    struct SessionChain
    {
        std::vector<PromptSegment> stream;
        std::vector<PrefixHash> hashes;
    };

    /** Chain memo by RequestSpec::sessionKey: at most one per
     *  session that finished a turn here. Buffers are swapped, not
     *  copied, between memo and requests. */
    std::unordered_map<std::uint64_t, SessionChain> sessionChains_;
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_SERVING_ENGINE_HH
