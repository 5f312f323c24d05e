#include "engine/serving_engine.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "base/logging.hh"

namespace lightllm {
namespace engine {

ServingEngine::ServingEngine(
    model::PerfModel perf_model,
    std::unique_ptr<core::SchedulingPolicy> policy,
    EngineConfig config)
    : perf_(std::move(perf_model)), policy_(std::move(policy)),
      config_(config),
      kv_(perf_.tokenCapacity(), config.blockSize),
      observer_(kv_.capacityTokens(), *policy_),
      ownedContext_(std::make_unique<sim::SimContext>()),
      context_(ownedContext_.get()), chains_(config.blockSize)
{
    LIGHTLLM_ASSERT(policy_ != nullptr,
                    "engine needs a scheduling policy");
    LIGHTLLM_ASSERT(config_.timeFactor > 0.0,
                    "time factor must be positive");
    if (config_.prefixCache) {
        prefixCache_ = std::make_unique<memory::PrefixCache>(kv_);
        kv_.attachPrefixCache(prefixCache_.get());
    }
}

ServingEngine::~ServingEngine() = default;

void
ServingEngine::attachContext(sim::SimContext &context)
{
    LIGHTLLM_ASSERT(!ran_, "cannot attach a context after run()");
    LIGHTLLM_ASSERT(requests_.empty() && pendingArrivals_.empty(),
                    "cannot attach a context after submissions");
    context_ = &context;
    ownedContext_.reset();
}

void
ServingEngine::attachTrace(trace::EngineTrace *sink)
{
    LIGHTLLM_ASSERT(requests_.empty() && pendingArrivals_.empty(),
                    "attach tracing before submissions");
    observer_.attach(sink);
}

void
ServingEngine::submitAt(const workload::RequestSpec &spec, Tick arrival)
{
    // Clamped to the context clock: the engine's own clock may
    // legitimately be ahead of it (at its iteration's end).
    const Tick when = std::max(arrival, context_->now());
    submitStamped(spec, when, when);
}

void
ServingEngine::submitStamped(const workload::RequestSpec &spec,
                             Tick deliver, Tick stamp)
{
    LIGHTLLM_ASSERT(spec.id != kInvalidRequestId, "invalid request id");
    LIGHTLLM_ASSERT(spec.inputLen >= 1, "request ", spec.id,
                    " has empty prompt");
    LIGHTLLM_ASSERT(spec.maxNewTokens >= 1, "request ", spec.id,
                    " has zero max_new_tokens");
    LIGHTLLM_ASSERT(spec.effectiveOutputLen() >= 1, "request ",
                    spec.id, " would generate no tokens");
    LIGHTLLM_ASSERT(!draining_, "request ", spec.id,
                    " submitted to a draining engine");
    const Tick when = std::max(deliver, context_->now());
    LIGHTLLM_ASSERT(stamp >= 0 && stamp <= when, "request ",
                    spec.id, " arrival stamp ", stamp,
                    " after its delivery tick ", when);
    undeliveredTokens_ += spec.inputLen;
    // The event captures only a token; the spec's single copy lives
    // in the arrival slab until delivery (or drain claw-back).
    const std::uint64_t token = nextArrivalToken_++;
    const sim::EventId event = context_->schedule(
        when, [this, token](Tick fire) {
            deliverArrival(token, fire);
        });
    std::uint32_t entry;
    if (arrivalFree_.empty()) {
        entry = static_cast<std::uint32_t>(arrivalSlab_.size());
        arrivalSlab_.emplace_back();
    } else {
        entry = arrivalFree_.back();
        arrivalFree_.pop_back();
    }
    arrivalSlab_[entry].event = event;
    arrivalSlab_[entry].spec = spec;
    arrivalSlab_[entry].stamp = stamp;
    pendingArrivals_.insert(token, entry);
}

void
ServingEngine::deliverArrival(std::uint64_t token, Tick when)
{
    const std::uint32_t *pending = pendingArrivals_.find(token);
    LIGHTLLM_ASSERT(pending != nullptr,
                    "arrival event for unknown token ", token);
    const std::uint32_t entry = *pending;
    // The queue is no longer empty: the step after the ones that
    // started before `when` is a full iteration.
    settleTo(when);
    endRun();
    EngineRequest *raw = allocRequest();
    raw->spec = arrivalSlab_[entry].spec;
    raw->arrival = arrivalSlab_[entry].stamp;
    pendingArrivals_.erase(token);
    arrivalFree_.push_back(entry);
    if (prefixCache_)
        chains_.inherit(*raw);
    const RequestId id = raw->spec.id;
    const bool inserted = requests_.tryInsert(id, slotIndex(raw->slot));
    LIGHTLLM_ASSERT(inserted, "duplicate request id ", id);
    waiting_.push_back(raw);
    undeliveredTokens_ -= raw->spec.inputLen;
    observer_.queued(*raw, when);
    wakeActor(when);
}

EngineRequest *
ServingEngine::allocRequest()
{
    if (!requestFree_.empty()) {
        EngineRequest *request = requestFree_.back();
        requestFree_.pop_back();
        // Reset by value, keeping the slot handle recycleRequest
        // bumped and the hash vector's capacity (the one
        // per-request allocation worth saving).
        const RequestSlot slot = request->slot;
        std::vector<PrefixHash> hashes = std::move(request->hashes);
        hashes.clear();
        *request = EngineRequest{};
        request->slot = slot;
        request->hashes = std::move(hashes);
        return request;
    }
    requestSlab_.push_back(std::make_unique<EngineRequest>());
    EngineRequest *request = requestSlab_.back().get();
    request->slot = makeSlot(
        static_cast<std::uint32_t>(requestSlab_.size() - 1), 0);
    return request;
}

void
ServingEngine::recycleRequest(EngineRequest *request)
{
    // spec.id survives a move of the spec (integral member), so
    // recycling after a deferred-notify payload move still erases
    // the right map entry.
    requests_.erase(request->spec.id);
    policy_->onSlotReleased(request->slot, request->spec.id);
    request->slot =
        makeSlot(slotIndex(request->slot),
                 static_cast<std::uint32_t>(request->slot >> 32) + 1);
    requestFree_.push_back(request);
}

Tick
ServingEngine::deliverySpawnFloor() const
{
    // Every completion notification fires at the end tick of the
    // iteration that produced it, and each phase advances the clock
    // by at least one scaled minimal phase latency. Take the minimum
    // over every phase this configuration reaches, at the smallest
    // arguments (every latency is non-decreasing in each).
    Tick floor = scaled(perf_.prefillLatency(1));
    floor = std::min(floor, scaled(perf_.fusedStepLatency(1, 1, 0)));
    if (config_.splitFuseChunk > 0)
        floor =
            std::min(floor, scaled(perf_.fusedStepLatency(0, 0, 1)));
    if (config_.evictionMode == EvictionMode::Swap)
        floor = std::min(floor, scaled(perf_.swapLatency(1)));
    return std::max<Tick>(1, floor);
}

void
ServingEngine::wakeActor(Tick when)
{
    // An iteration can never start before the engine finished its
    // previous one, nor before the triggering event.
    const Tick start = std::max(now_, when);
    if (stepEvent_ == sim::kInvalidEventId) {
        stepEvent_ = context_->schedule(
            start, [this](Tick tick) { onStepEvent(tick); },
            sim::EventClass::Step);
        stepTick_ = start;
        return;
    }
    if (start < stepTick_) {
        // An arrival landed before the idle-scheduled iteration:
        // pull the iteration forward so the engine reacts at the
        // arrival tick.
        context_->reschedule(stepEvent_, start);
        stepTick_ = start;
    }
}

void
ServingEngine::onStepEvent(Tick when)
{
    stepEvent_ = sim::kInvalidEventId;
    settleTo(when);
    endRun();
    LIGHTLLM_ASSERT(when >= now_, "step event at ", when,
                    " behind engine clock ", now_);
    now_ = when;
    if (!hasWork())
        return;  // drained or spuriously woken; nothing to do
    admitRequests();
    if (config_.splitFuseChunk == 0 && !prefillPending_.empty())
        runPrefillPhase();
    runStep();
    if (hasWork())
        wakeActor(planRun());
}

Tick
ServingEngine::planRun()
{
    if (!waiting_.empty() || !prefillPending_.empty() ||
        running_.empty()) {
        return now_;
    }
    return run_.plan(running_, kv_, perf_, config_.timeFactor, now_,
                     limits_.maxTicks, predictionEpoch_);
}

void
ServingEngine::settleStep()
{
    const DecodeRun::Step step = run_.settle();
    // KV: the members whose allocation is full take a fresh block,
    // in member order, catching up their deferred slack fills first
    // — block ids and prefix-cache reclaims follow the stepwise
    // order. The rest of the step's growth stays deferred.
    for (const std::uint32_t i : step.crossings) {
        const RequestSlot slot = running_[i]->slot;
        kv_.growInSlack(slot, run_.catchUp(i) - 1);
        kv_.growByOne(slot);
    }
    // The lapsing members re-peek at this step's length (peeks are
    // read-only, so their order does not matter) and are filed
    // again at their new horizon. With the audit carried from an
    // earlier step, a moved one is repaired in place.
    for (const std::uint32_t i : step.lapses) {
        EngineRequest &request = *running_[i];
        const TokenCount generated = request.generated + step.ahead;
        if (peekAt(request, generated)) {
            if (audit_.rescanPending())
                audit_.predictionChanged();
            else
                audit_.slide(request);
        }
        // Between lapses the entry's l_hat, max(predicted,
        // generated), must stay put: a peek holds at least to one
        // token short of its horizon.
        LIGHTLLM_ASSERT(request.predicted + 1 >= request.predictedUntil,
                        "prediction ", request.predicted,
                        " ends before its horizon ",
                        request.predictedUntil);
        run_.fileLapse(i, static_cast<TokenCount>(step.index) +
                              request.predictedUntil - generated);
    }
    now_ = step.end;
    recordDecodeStep(static_cast<std::int64_t>(running_.size()),
                     kv_.usedTokens() + run_.kvLag(), step.duration,
                     step.ahead);
}

void
ServingEngine::settleTo(Tick when)
{
    // now_ is the next planned step's start.
    while (run_.pending() && now_ < when)
        settleStep();
}

void
ServingEngine::cacheInsert(EngineRequest *request)
{
    if (!prefixCache_ || request->spec.segments.empty())
        return;
    const workload::RequestSpec &spec = request->spec;
    const TokenCount known = spec.inputLen +
        (spec.outputKey != 0 ? request->generated : 0);
    const std::span<const PrefixHash> hashes =
        chains_.hashChain(*request, known);
    const std::vector<memory::BlockId> &table =
        kv_.blockTable(request->slot);
    // Full identified blocks are always a prefix of the block
    // table (the allocation covers prompt + at least one token).
    const std::size_t count = std::min(hashes.size(), table.size());
    prefixCache_->insertHeld(request->slot, hashes.first(count));
}

core::SchedulerContext
ServingEngine::buildContext(bool queues)
{
    auto view = [](const EngineRequest *request, bool prefilling) {
        return core::RunningView{
            request->spec.id,      request->spec.inputLen,
            request->generated,    request->spec.maxNewTokens,
            request->spec.outputLen, request->admitSeq,
            request->spec.cls, prefilling,
            request->cachedPrefix, request->slot};
    };
    runningViews_.clear();
    for (const EngineRequest *request : running_)
        runningViews_.push_back(view(request, false));
    core::SchedulerContext ctx;
    ctx.now = now_;
    ctx.capacityTokens = kv_.capacityTokens();
    ctx.usedTokens = kv_.usedTokens();
    // Block rounding wastes at most blockSize - 1 slots per request,
    // and admission allocates one extra slot for the prefill token.
    ctx.perRequestOverhead = kv_.blockSize();
    if (queues) {
        // Admitted-but-prefilling requests already hold KV memory
        // and will generate; the scheduler must see them as part of
        // the running batch (they are not eviction candidates).
        for (const EngineRequest *request : prefillPending_)
            runningViews_.push_back(view(request, true));
        waitingViews_.clear();
        for (EngineRequest *request : waiting_) {
            // Migrated KV counts as a resident prefix: the handoff
            // queue's dispatch gate already reserved its memory
            // here (and there is no prefill compute to budget for).
            // So does the cached prefix (peeked: no LRU effect),
            // except for a swap-in, which restores its KV wholesale.
            TokenCount resident = request->migratedResident();
            if (prefixCache_ && !request->spec.segments.empty() &&
                !request->swappedOut) {
                const auto blocks = static_cast<TokenCount>(
                    prefixCache_->peek(chains_.promptHashes(*request)));
                resident = std::max(resident, blocks * kv_.blockSize());
            }
            waitingViews_.push_back(core::WaitingView{
                request->spec.id, request->spec.inputLen,
                request->generated, request->spec.maxNewTokens,
                request->arrival, request->spec.outputLen,
                request->spec.cls, resident, request->slot});
        }
        ctx.admitRoom = admitRoom();
        ctx.waiting = waitingViews_;
    }
    ctx.running = runningViews_;
    return ctx;
}

std::size_t
ServingEngine::admitRoom() const
{
    if (config_.maxBatchSize == 0)
        return std::numeric_limits<std::size_t>::max();
    const std::size_t active = running_.size() + prefillPending_.size();
    return config_.maxBatchSize > active ? config_.maxBatchSize - active
                                         : 0;
}

bool
ServingEngine::admitOne(EngineRequest *request)
{
    const RequestSlot slot = request->slot;
    if (request->swappedOut) {
        // Swap-in restores the KV exactly as it was evicted.
        const TokenCount tokens =
            request->spec.inputLen + request->generated;
        if (!kv_.allocate(slot, tokens))
            return false;
        request->remainingPrompt = 0;
    } else if (request->migratedResident() > 0) {
        // Disaggregated handoff: the prompt's KV arrived over the
        // interconnect; private resident memory, no prefill compute
        // and no emission (the prefill pool made the first token).
        if (!kv_.allocate(slot, request->spec.inputLen))
            return false;
        request->remainingPrompt = 0;
        request->migratedAdmit = true;
    } else {
        // Allocate prompt + recompute tokens + one slot for the
        // token the prefill itself emits.
        const TokenCount prompt =
            request->spec.inputLen + request->generated;
        const TokenCount tokens = prompt + 1;
        if (prefixCache_ && !request->spec.segments.empty()) {
            // Reuse every cached full block of the prompt: only the
            // uncached suffix is allocated and prefilled.
            if (prefixCache_->allocateMatched(
                    slot, tokens, chains_.promptHashes(*request)) < 0)
                return false;
            const TokenCount shared = kv_.requestSharedTokens(slot);
            observer_.prefixLookup(prompt, shared);
            request->cachedPrefix = shared;
            request->remainingPrompt = prompt - shared;
        } else {
            if (!kv_.allocate(slot, tokens))
                return false;
            request->remainingPrompt = prompt;
        }
    }
    request->admitSeq = nextAdmitSeq_++;
    request->predictedUntil = 0;  // re-peek on (re)admission
    prefillPending_.push_back(request);
    audit_.membersChanged();
    return true;
}

void
ServingEngine::admitRequests()
{
    if (waiting_.empty())
        return;

    const core::SchedulerContext ctx = buildContext();
    core::SchedulingDecision &decision = decisionScratch_;
    policy_->decideInto(ctx, decision);

    const std::string error = core::validateDecision(decision, ctx);
    LIGHTLLM_ASSERT(error.empty(), "invalid scheduling decision: ",
                    error);

    LIGHTLLM_ASSERT(decision.admit.size() <= admitRoom(),
                    "decision admits ", decision.admit.size(),
                    " past the batch room ", admitRoom());
    // An idle engine must make progress: the pipeline force-admits
    // its head-of-order request when nothing fits.
    LIGHTLLM_ASSERT(!decision.admit.empty() || !running_.empty() ||
                        !prefillPending_.empty(),
                    "an idle admission round admitted nothing");

    std::size_t admitted = 0;
    for (RequestId id : decision.admit) {
        const auto it = std::find_if(
            waiting_.begin(), waiting_.end(),
            [id](const EngineRequest *request) {
                return request->spec.id == id;
            });
        LIGHTLLM_ASSERT(it != waiting_.end(),
                        "admitted id ", id, " left the queue");
        EngineRequest *request = *it;
        if (!admitOne(request)) {
            if (running_.empty() && prefillPending_.empty()) {
                throw std::invalid_argument(concat(
                    "request ", request->spec.id, " (prompt ",
                    request->spec.inputLen + request->generated,
                    " tokens) cannot fit in capacity ",
                    kv_.capacityTokens()));
            }
            break;
        }
        waiting_.erase(it);
        ++admitted;
        observer_.admitted(*request, now_, kv_.usedTokens());
    }
    observer_.admissionRound(now_, admitted, waiting_.size());
}

void
ServingEngine::finishRequest(EngineRequest *request)
{
    metrics::RequestRecord record;
    record.id = request->spec.id;
    record.cls = request->spec.cls;
    record.inputLen = request->spec.inputLen;
    record.outputTokens = request->generated;
    record.arrival = request->arrival;
    record.firstToken = request->firstToken;
    record.finish = now_;
    record.maxGap = request->maxGap;
    record.evictions = request->evictions;
    // Before the policy forgets the request: a traced prediction
    // still reflects the estimate the scheduler was operating under.
    observer_.finished(*request, record);

    // Retain the request's identified full blocks (prompt and, for
    // session turns, the generated reply) before the references
    // drop: the next turn's prompt extends exactly this stream.
    cacheInsert(request);
    if (prefixCache_)
        chains_.handOff(*request);
    kv_.release(request->slot);
    policy_->onRequestFinished(request->spec.id,
                               request->generated);
    // The policy saw a new length: every cached prediction lapses.
    ++predictionEpoch_;
    audit_.membersChanged();
    ++finished_;
    if (config_.warmupRequests > 0 &&
        finished_ == config_.warmupRequests) {
        observer_.warmupEnded(now_);
    }

    if (!onFinish_ && !onRecord_) {
        recycleRequest(request);
        return;
    }
    // Defer the notification to the exact finish tick: listeners
    // (router, clients, SLO monitors) then observe the completion in
    // global event order, not mid-way through this iteration. One
    // event carries both callbacks, record first; the payload parks
    // in a recycled slab slot (no steady-state allocation).
    std::size_t idx;
    if (!notifyFree_.empty()) {
        idx = notifyFree_.back();
        notifyFree_.pop_back();
    } else {
        idx = notifySlab_.size();
        notifySlab_.emplace_back();
    }
    DeferredNotify &note = notifySlab_[idx];
    note.spec = std::move(request->spec);
    note.record = record;
    note.tick = now_;
    recycleRequest(request);
    context_->schedule(note.tick, [this, idx](Tick) {
        // Re-index per use: the slab may have grown between capture
        // and delivery.
        if (onRecord_)
            onRecord_(notifySlab_[idx].record);
        if (onFinish_)
            onFinish_(notifySlab_[idx].spec, notifySlab_[idx].tick);
        notifyFree_.push_back(idx);
    });
}

Tick
ServingEngine::evictOne()
{
    LIGHTLLM_ASSERT(!running_.empty(),
                    "eviction with empty running batch");
    // Victim choice is the policy's: build a context over the
    // decoding batch only (prefilling requests are not evictable)
    // and let the queue policy rank candidates, tie-broken by the
    // engine-configured admission order.
    const core::SchedulerContext ctx = buildContext(false);
    policy_->victimOrder(ctx, config_.evictionPolicy, victimScratch_);
    const RequestId id = victimScratch_.front();
    const auto victim_it = std::find_if(
        running_.begin(), running_.end(),
        [id](const EngineRequest *request) {
            return request->spec.id == id;
        });
    LIGHTLLM_ASSERT(victim_it != running_.end(),
                    "eviction victim ", id, " is not decoding");
    EngineRequest *victim = *victim_it;
    running_.erase(victim_it);
    audit_.membersChanged();

    const TokenCount victim_tokens = kv_.requestTokens(victim->slot);
    // release() only drops references: blocks the prefix cache (or
    // another sharer) holds survive, so the victim's re-admission
    // can re-match its prefix instead of recomputing it.
    kv_.release(victim->slot);
    victim->evictions += 1;
    victim->remainingPrompt = 0;
    victim->cachedPrefix = 0;
    victim->swappedOut = config_.evictionMode == EvictionMode::Swap;
    policy_->onRequestEvicted(victim->spec.id);
    // Back to the front of the queue; the KV is either rebuilt by a
    // future recompute prefill or restored by a swap-in.
    waiting_.push_front(victim);
    observer_.evicted(*victim, now_, victim_tokens);
    return victim->swappedOut ? scaled(perf_.swapLatency(victim_tokens))
                              : 0;
}

bool
ServingEngine::peekAt(EngineRequest &request, TokenCount generated)
{
    // Read-only peek: consumes no RNG and creates no sticky state.
    const core::PredictionPeek peek = policy_->peekWithHorizon(
        request.slot, request.spec.id, generated,
        request.spec.maxNewTokens);
    const TokenCount predicted = std::max(peek.predicted, generated);
    const bool moved = predicted != request.predicted;
    request.predicted = predicted;
    request.predictedUntil = peek.horizon;
    request.predictedEpoch = predictionEpoch_;
    return moved;
}

void
ServingEngine::recordDecodeStep(std::int64_t batch, TokenCount used,
                                Tick duration, TokenCount ahead)
{
    // Prefill-pending members have not grown, which a horizon does
    // not cover, so they are peeked afresh; they force a rescan.
    for (EngineRequest *request : prefillPending_)
        peekAt(*request, request->generated);
    observer_.step(batch, used,
                   audit_.step(running_, prefillPending_, ahead),
                   duration, now_, waiting_.size());
}

void
ServingEngine::startDecoding(EngineRequest *request)
{
    observer_.decoding(*request, now_);
    kv_.joinBatch(request->slot);
    running_.push_back(request);
    audit_.membersChanged();
}

void
ServingEngine::joinMigrated(EngineRequest *request)
{
    // Migrated KV is already resident (the transfer was paid before
    // dispatch, the first token came from the prefill pool).
    request->migratedAdmit = false;
    observer_.migrated(*request, now_);
    startDecoding(request);
}

bool
ServingEngine::completePrefill(EngineRequest *request)
{
    request->remainingPrompt = 0;
    request->generated += 1;
    request->recordEmission(now_);
    if (request->generated >= request->targetOutput()) {
        observer_.prefillEnded(*request, now_);
        return true;  // finishRequest does its own cacheInsert
    }
    // The freshly prefilled prompt blocks are now valid KV: publish
    // them so concurrent same-prefix requests share.
    cacheInsert(request);
    startDecoding(request);
    return false;
}

void
ServingEngine::runPrefillPhase()
{
    for (EngineRequest *request : prefillPending_) {
        if (request->swappedOut) {
            // Swap-in: no compute, no new token (the request
            // resumes decoding from where it was).
            swapIn(*request, true);
            startDecoding(request);
            continue;
        }
        if (request->migratedAdmit) {
            joinMigrated(request);
            continue;
        }
        const Tick duration =
            scaled(perf_.prefillLatency(request->remainingPrompt));
        now_ += duration;
        observer_.prefill(request->remainingPrompt);
        if (completePrefill(request))
            finishRequest(request);
    }
    prefillPending_.clear();
}

Tick
ServingEngine::swapIn(EngineRequest &request, bool advance)
{
    const TokenCount tokens = request.spec.inputLen + request.generated;
    const Tick cost = scaled(perf_.swapLatency(tokens));
    if (advance)
        now_ += cost;
    request.swappedOut = false;
    observer_.swappedIn(request, now_, tokens);
    return cost;
}

void
ServingEngine::runStep()
{
    // Migrated admissions join the batch before it extends, as in
    // runPrefillPhase; they emit nothing this step.
    std::erase_if(prefillPending_, [&](EngineRequest *request) {
        if (!request->migratedAdmit)
            return false;
        joinMigrated(request);
        return true;
    });

    // The KV manager tracks the batch's block demand, so this test
    // is O(1); nothing between a passing test and the growth walk
    // below touches the KV manager.
    Tick extra_stall = 0;
    while (!running_.empty() && !kv_.batchCanGrow()) {
        if (running_.size() == 1) {
            // A lone request that cannot extend would evict and
            // re-admit itself forever.
            throw std::invalid_argument(concat(
                "request ", running_.front()->spec.id,
                " outgrew the KV capacity of ", kv_.capacityTokens(),
                " tokens; raise capacity or lower max_new_tokens"));
        }
        extra_stall += evictOne();
    }

    // Swap-ins restore admitted-but-offloaded requests; they join
    // the batch after this step (no token emitted while restoring).
    swappedInScratch_.clear();
    std::erase_if(prefillPending_, [&](EngineRequest *request) {
        if (!request->swappedOut)
            return false;
        extra_stall += swapIn(*request, false);
        swappedInScratch_.push_back(request);
        audit_.membersChanged();
        return true;
    });

    // Consume up to one chunk of pending prompt tokens (front
    // requests first). Without split-fuse the prefill phase has
    // already emptied the pending list, so the chunk is 0.
    TokenCount chunk_used = 0;
    for (EngineRequest *request : prefillPending_) {
        if (chunk_used >= config_.splitFuseChunk)
            break;
        const TokenCount take = std::min(
            config_.splitFuseChunk - chunk_used,
            request->remainingPrompt);
        request->remainingPrompt -= take;
        chunk_used += take;
        if (take > 0)
            observer_.chunk(*request, now_, take);
    }

    // Walk one: grow, advance, sum the batch KV, and re-peek the
    // members whose cached prediction lapsed.
    TokenCount batch_kv = 0;
    for (EngineRequest *request : running_) {
        kv_.growByOne(request->slot);
        request->generated += 1;
        batch_kv += request->spec.inputLen + request->generated;
        if ((request->generated >= request->predictedUntil ||
             request->predictedEpoch != predictionEpoch_) &&
            peekAt(*request, request->generated)) {
            audit_.predictionChanged();
        }
    }

    const auto batch_size = static_cast<std::int64_t>(running_.size());
    if (batch_size == 0 && chunk_used == 0 && swappedInScratch_.empty())
        return;
    Tick duration = extra_stall;
    if (batch_size > 0 || chunk_used > 0) {
        duration += scaled(perf_.fusedStepLatency(
            batch_size, batch_kv, chunk_used));
    }
    now_ += duration;
    if (batch_size > 0)
        recordDecodeStep(batch_size, kv_.usedTokens(), duration, 0);
    if (chunk_used > 0)
        observer_.prefill(chunk_used);

    // Walk two: emissions and completions.
    finishedScratch_.clear();
    std::erase_if(running_, [&](EngineRequest *request) {
        request->recordEmission(now_);
        if (request->generated < request->targetOutput())
            return false;
        observer_.decodeEnded(*request, now_);
        finishedScratch_.push_back(request);
        return true;
    });

    // Requests whose prefill completed emit their first token and
    // join the running batch.
    std::erase_if(prefillPending_, [&](EngineRequest *request) {
        if (request->remainingPrompt > 0)
            return false;
        if (completePrefill(request))
            finishedScratch_.push_back(request);
        return true;
    });

    for (EngineRequest *request : finishedScratch_)
        finishRequest(request);

    // Restored requests resume decoding from the next step.
    for (EngineRequest *request : swappedInScratch_)
        startDecoding(request);
}

bool
ServingEngine::limitsReached(const RunLimits &limits) const
{
    return (limits.maxFinishedRequests > 0 &&
            finished_ >= limits.maxFinishedRequests) ||
        (limits.maxTicks > 0 && now_ >= limits.maxTicks);
}

bool
ServingEngine::stepOnce(const RunLimits &limits)
{
    LIGHTLLM_ASSERT(ownedContext_ != nullptr,
                    "a shared SimContext drives attached engines");
    limits_ = limits;
    // Checked before any delivery: a run its last iteration stopped
    // delivers nothing more (no arrival joins the queue or trace).
    if (limitsReached(limits))
        return false;
    // The owned context's one Step-class event is this engine's next
    // Step: every delivery due before the next iteration fires first
    // (an arrival on an idle engine schedules the Step; one landing
    // in a decode run ends the run, moving the Step to now_).
    sim::EventQueue &queue = context_->queue();
    while (!queue.empty() &&
           queue.peekHead().cls == sim::EventClass::Delivery &&
           (!run_.pending() || queue.peekHead().when <= now_)) {
        context_->runNext();
    }
    if (run_.pending()) {
        settleStep();
        return true;
    }
    if (queue.empty())
        return false;  // drained
    // The clock moves to the iteration's start tick before the
    // limits are checked: an idle-gap arrival past maxTicks still
    // stretches the makespan to its own tick.
    now_ = std::max(now_, queue.peekHead().when);
    if (limitsReached(limits))
        return false;
    context_->runNext();
    return true;
}

metrics::RunReport
ServingEngine::run(const RunLimits &limits)
{
    LIGHTLLM_ASSERT(!ran_, "engine instances are single-run");
    ran_ = true;
    while (stepOnce(limits)) {
    }
    return report();
}

std::vector<ServingEngine::DrainedRequest>
ServingEngine::drainQueued()
{
    LIGHTLLM_ASSERT(!draining_, "engine drained twice");
    settleNow();
    draining_ = true;

    std::vector<DrainedRequest> redispatch;
    handBackQueued(0, redispatch);

    // Claw back in-flight arrival events; they re-enter the router
    // at their original arrival ticks. Sorted by (tick, token) so
    // the re-dispatch order never depends on hash-map iteration
    // (tokens increase in submission order).
    std::vector<std::pair<Tick, std::uint64_t>> pending;
    pending.reserve(pendingArrivals_.size());
    pendingArrivals_.forEach([&](std::uint64_t token,
                                 std::uint32_t entry) {
        pending.emplace_back(
            context_->eventTick(arrivalSlab_[entry].event), token);
    });
    std::sort(pending.begin(), pending.end());
    for (const auto &[tick, token] : pending) {
        const PendingArrival &entry =
            arrivalSlab_[*pendingArrivals_.find(token)];
        context_->cancel(entry.event);
        undeliveredTokens_ -= entry.spec.inputLen;
        redispatch.push_back(
            DrainedRequest{entry.spec, tick, entry.stamp});
    }
    // A drained engine takes no further submissions.
    pendingArrivals_.clear();
    arrivalSlab_.clear();
    arrivalFree_.clear();
    return redispatch;
}

std::vector<ServingEngine::DrainedRequest>
ServingEngine::stealQueued(std::size_t max_requests)
{
    LIGHTLLM_ASSERT(!draining_,
                    "cannot steal from a draining engine");
    settleNow();

    // Tail to head: the thief takes the freshest backlog so the
    // queue head (and its TTFT clock) stays put.
    std::size_t from = waiting_.size();
    for (std::size_t taken = 0; from > 0 && taken < max_requests;)
        taken += waiting_[--from]->holdsHistory() ? 0 : 1;
    std::vector<DrainedRequest> stolen;
    handBackQueued(from, stolen);
    return stolen;
}

void
ServingEngine::handBackQueued(std::size_t from,
                              std::vector<DrainedRequest> &out)
{
    // Requests holding engine history (evicted or swapped out
    // mid-flight) stay: their KV rebuild and emission records live
    // here. The rest leave in queue order and re-enter a router
    // now, carrying their original arrival stamps so TTFT keeps
    // counting their wait here.
    const auto first = std::stable_partition(
        waiting_.begin() + static_cast<std::ptrdiff_t>(from),
        waiting_.end(),
        [](const EngineRequest *request) {
            return request->holdsHistory();
        });
    const Tick tick = context_->now();
    for (auto it = first; it != waiting_.end(); ++it) {
        EngineRequest *request = *it;
        observer_.drained(*request, tick);
        out.push_back(
            DrainedRequest{request->spec, tick, request->arrival});
        recycleRequest(request);
    }
    waiting_.erase(first, waiting_.end());
}

metrics::RunReport
ServingEngine::report()
{
    settleNow();
    return observer_.report(policy_->name(), now_);
}

const memory::KvBlockManager &
ServingEngine::kvManager()
{
    settleNow();
    syncRun();
    return kv_;
}

TokenCount
ServingEngine::outstandingTokens()
{
    settleNow();
    TokenCount total =
        kv_.usedTokens() + run_.kvLag() + undeliveredTokens_;
    for (const EngineRequest *request : waiting_)
        total += request->spec.inputLen + request->generated;
    return total;
}

TokenCount
ServingEngine::predictedLoadTokens()
{
    settleNow();
    syncRun();
    const core::SchedulerContext ctx = buildContext();
    return policy_->estimateLoad(ctx) + undeliveredTokens_;
}

TokenCount
ServingEngine::pendingPrefillTokens() const
{
    // In-flight arrivals are conservatively counted as full
    // prompts (their migration status is unknown until delivery).
    TokenCount total = undeliveredTokens_;
    for (const EngineRequest *request : waiting_) {
        total += request->spec.inputLen + request->generated -
            request->migratedResident();
    }
    for (const EngineRequest *request : prefillPending_)
        total += request->remainingPrompt;
    return total;
}

} // namespace engine
} // namespace lightllm
