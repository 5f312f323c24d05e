#include "engine/serving_engine.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "core/future_memory.hh"
#include "trace/trace_recorder.hh"

namespace lightllm {
namespace engine {

ServingEngine::ServingEngine(
    model::PerfModel perf_model,
    std::unique_ptr<core::SchedulingPolicy> policy,
    EngineConfig config)
    : perf_(std::move(perf_model)), policy_(std::move(policy)),
      config_(config),
      kv_(perf_.tokenCapacity(), config.blockSize),
      collector_(kv_.capacityTokens(), config.timeseriesInterval),
      ownedContext_(std::make_unique<sim::SimContext>()),
      context_(ownedContext_.get())
{
    LIGHTLLM_ASSERT(policy_ != nullptr,
                    "engine needs a scheduling policy");
    LIGHTLLM_ASSERT(config_.timeFactor > 0.0,
                    "time factor must be positive");
    LIGHTLLM_ASSERT(!config_.splitFuse || config_.splitFuseChunk > 0,
                    "split-fuse chunk must be positive");
    if (config_.prefixCache) {
        prefixCache_ = std::make_unique<memory::PrefixCache>(kv_);
        kv_.attachPrefixCache(prefixCache_.get());
    }
}

ServingEngine::ServingEngine(model::PerfModel perf_model,
                             std::unique_ptr<core::Scheduler> scheduler,
                             EngineConfig config)
    : ServingEngine(std::move(perf_model),
                    std::make_unique<core::SchedulingPolicy>(
                        std::move(scheduler)),
                    config)
{
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
    trace_ = sink;
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
    // The event captures only a token; the spec's single copy
    // lives in pendingArrivals_ until delivery (or drain
    // claw-back).
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
    const workload::RequestSpec spec = arrivalSlab_[entry].spec;
    const Tick stamp = arrivalSlab_[entry].stamp;
    pendingArrivals_.erase(token);
    arrivalFree_.push_back(entry);
    EngineRequest *raw = allocRequest();
    raw->spec = spec;
    raw->arrival = stamp;
    inheritSessionChain(*raw);
    const bool inserted =
        requests_.tryInsert(spec.id, slotIndex(raw->slot));
    LIGHTLLM_ASSERT(inserted, "duplicate request id ", spec.id);
    waiting_.push_back(raw);
    undeliveredTokens_ -= spec.inputLen;
    if (trace_ != nullptr) {
        trace_->begin(trace::TraceName::Queued, spec.id, when,
                      spec.inputLen,
                      policy_->peekPrediction(spec.id, 0,
                                              spec.maxNewTokens),
                      spec.effectiveOutputLen());
    }
    wakeActor(when);
}

void
ServingEngine::setOnFinish(FinishCallback callback)
{
    onFinish_ = std::move(callback);
}

void
ServingEngine::setOnRecord(RecordCallback callback)
{
    onRecord_ = std::move(callback);
}

ServingEngine::EngineRequest *
ServingEngine::allocRequest()
{
    if (!requestFree_.empty()) {
        EngineRequest *request = requestFree_.back();
        requestFree_.pop_back();
        // Reset to constructed defaults, keeping the hash vector's
        // capacity (the one per-request allocation worth saving).
        request->spec = workload::RequestSpec{};
        request->generated = 0;
        request->arrival = 0;
        request->firstToken = -1;
        request->lastEmit = -1;
        request->maxGap = 0;
        request->evictions = 0;
        request->admitSeq = 0;
        request->remainingPrompt = 0;
        request->swappedOut = false;
        request->cachedPrefix = 0;
        request->migratedAdmit = false;
        request->hashes.clear();
        request->auditMark = 0;
        request->predicted = 0;
        request->predictedUntil = 0;
        request->predictedEpoch = 0;
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
    // iteration that produced it, and each phase advances the
    // engine clock by at least one scaled minimal phase latency
    // (scaled() floors at one tick). Take the minimum over every
    // phase reachable under this engine's configuration, with the
    // smallest arguments a phase can see: every latency is
    // non-decreasing in each argument, so larger ones never win.
    Tick floor = scaled(perf_.prefillLatency(1));
    floor = std::min(floor, scaled(perf_.fusedStepLatency(1, 1, 0)));
    if (config_.splitFuse)
        floor =
            std::min(floor, scaled(perf_.fusedStepLatency(0, 0, 1)));
    if (config_.evictionMode == EvictionMode::Swap)
        floor = std::min(floor, scaled(perf_.swapLatency(1)));
    return std::max<Tick>(1, floor);
}

Tick
ServingEngine::scaled(Tick duration) const
{
    const auto scaled_ticks = static_cast<Tick>(
        static_cast<double>(duration) * config_.timeFactor + 0.5);
    return std::max<Tick>(1, scaled_ticks);
}

void
ServingEngine::wakeActor(Tick when)
{
    // An iteration can never start before the engine finished its
    // previous one, nor before the triggering event.
    const Tick start = std::max(now_, when);
    if (!stepScheduled_) {
        stepEvent_ = context_->schedule(
            start, [this](Tick tick) { onStepEvent(tick); },
            sim::EventClass::Step);
        stepScheduled_ = true;
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
    stepScheduled_ = false;
    stepEvent_ = sim::kInvalidEventId;
    settleTo(when);
    endRun();
    LIGHTLLM_ASSERT(when >= now_, "step event at ", when,
                    " behind engine clock ", now_);
    now_ = when;
    if (!hasWork())
        return;  // drained or spuriously woken; nothing to do
    iterateOnce();
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
    DecodeRun &run = decodeRun_;
    const auto batch = static_cast<TokenCount>(running_.size());
    const TokenCount block = kv_.blockSize();
    // One walk: the first finishing step (true lengths are known),
    // the batch's KV tokens and its members' block phases.
    TokenCount finish = std::numeric_limits<TokenCount>::max();
    TokenCount batch_kv = 0;
    run.phase.resize(running_.size());
    run.phaseStart.assign(static_cast<std::size_t>(block) + 1, 0);
    for (std::size_t i = 0; i < running_.size(); ++i) {
        const EngineRequest *request = running_[i];
        finish = std::min(finish,
                          request->targetOutput() - request->generated);
        batch_kv += request->spec.inputLen + request->generated;
        run.phase[i] = static_cast<std::uint32_t>(
            kv_.requestTokens(request->slot) % block);
        ++run.phaseStart[run.phase[i] + 1];
    }
    // Lay the members out by phase, in member order within a phase,
    // so a step's crossings take their blocks in stepwise order.
    for (std::size_t p = 0; p < static_cast<std::size_t>(block); ++p)
        run.phaseStart[p + 1] += run.phaseStart[p];
    run.phaseMembers.resize(running_.size());
    for (std::size_t i = 0; i < running_.size(); ++i)
        run.phaseMembers[run.phaseStart[run.phase[i]]++] =
            static_cast<std::uint32_t>(i);
    for (std::size_t p = static_cast<std::size_t>(block); p > 0; --p)
        run.phaseStart[p] = run.phaseStart[p - 1];
    run.phaseStart[0] = 0;
    auto phase_count = [&run](std::uint32_t p) {
        return static_cast<std::int64_t>(run.phaseStart[p + 1] -
                                         run.phaseStart[p]);
    };
    // Each crossing (see nextCrossing) takes a block off the free
    // list or out of the reclaimable cache, so batchCanGrow() holds
    // while the steps' crossings fit in what was available at the
    // start.
    const std::int64_t available =
        kv_.freeBlocks() + kv_.reclaimableBlocks();
    std::int64_t crossings = 0;
    Tick tick = now_;
    run.ends.clear();
    std::uint32_t phase = 0;  // step 1 crosses phase 0
    for (TokenCount step = 1; step < finish; ++step) {
        if (limits_.maxTicks > 0 && tick >= limits_.maxTicks)
            break;
        crossings += phase_count(phase);
        if (crossings > available)
            break;
        tick += scaled(perf_.fusedStepLatency(batch,
                                              batch_kv + batch * step,
                                              0));
        run.ends.push_back(tick);
        phase = nextCrossing(phase);
    }
    LIGHTLLM_ASSERT((phase_count(0) <= available) == kv_.batchCanGrow(),
                    "decode-run plan disagrees with batchCanGrow");
    if (run.ends.empty())
        return now_;

    // A member re-peeks at the first step its length reaches the
    // horizon, or at once when a finish moved the epoch.
    run.lapseHead.clear();
    run.lapseNext.resize(running_.size());
    for (std::size_t i = 0; i < running_.size(); ++i) {
        const EngineRequest *request = running_[i];
        const auto member = static_cast<std::uint32_t>(i);
        fileLapse(member,
                  request->predictedEpoch != predictionEpoch_
                      ? 1
                      : std::max<TokenCount>(1, request->predictedUntil -
                                                    request->generated));
        const std::size_t slab = slotIndex(request->slot);
        if (slab >= run.memberOfSlab.size())
            run.memberOfSlab.resize(slab + 1);
        run.memberOfSlab[slab] = member;
    }
    run.auditPosValid = false;
    run.crossing = 0;
    run.start = now_;
    run.settled = 0;
    run.synced = 0;
    run.kvLag = 0;
    run.kvSynced.assign(running_.size(), 0);
    return tick;
}

void
ServingEngine::fileLapse(std::uint32_t member, TokenCount step)
{
    // The calendar grows to the latest lapse filed, which is
    // usually far short of the run's last step.
    DecodeRun &run = decodeRun_;
    if (step > static_cast<TokenCount>(run.ends.size()))
        return;
    const auto at = static_cast<std::size_t>(step);
    if (at >= run.lapseHead.size())
        run.lapseHead.resize(at + 1, kNoMember);
    run.lapseNext[member] = run.lapseHead[at];
    run.lapseHead[at] = member;
}

std::uint32_t
ServingEngine::nextCrossing(std::uint32_t phase) const
{
    // A member whose allocation held f tokens at the run's start is
    // full before step s when (f + s - 1) % block == 0, and then
    // takes a fresh block: step 1 crosses phase 0, and each later
    // step the phase one below its predecessor's, mod block.
    return phase == 0 ? static_cast<std::uint32_t>(kv_.blockSize() - 1)
                      : phase - 1;
}

void
ServingEngine::settleStep()
{
    DecodeRun &run = decodeRun_;
    const std::size_t step = ++run.settled;
    const auto ahead = static_cast<TokenCount>(step - run.synced);
    const auto batch = static_cast<std::int64_t>(running_.size());

    // KV: the members whose allocation is full take a fresh block,
    // in member order, catching up their deferred slack fills first
    // — block ids and prefix-cache reclaims follow the stepwise
    // order. The rest of the step's growth stays deferred.
    const std::uint32_t phase = run.crossing;
    run.crossing = nextCrossing(phase);
    for (std::uint32_t k = run.phaseStart[phase];
         k < run.phaseStart[phase + 1]; ++k) {
        const std::uint32_t i = run.phaseMembers[k];
        const RequestSlot slot = running_[i]->slot;
        const auto lag = static_cast<TokenCount>(step - run.kvSynced[i]);
        kv_.growInSlack(slot, lag - 1);
        kv_.growByOne(slot);
        run.kvSynced[i] = step;
        run.kvLag -= lag;
    }
    run.kvLag += batch;

    // The members filed at this step re-peek at its length (peeks
    // are read-only, so their order does not matter) and are filed
    // again at their new horizon. With the audit carried from an
    // earlier step, the moved ones are repaired in place (see
    // moveLapsedEntries).
    const bool rescan = auditMembersChanged_ || auditPredictionChanged_;
    for (std::uint32_t i = step < run.lapseHead.size()
             ? run.lapseHead[step]
             : kNoMember;
         i != kNoMember;) {
        const std::uint32_t next = run.lapseNext[i];
        EngineRequest &request = *running_[i];
        const TokenCount generated = request.generated + ahead;
        const TokenCount before = request.predicted;
        peekAt(request, generated);
        // Between lapses the entry's l_hat, max(predicted,
        // generated), must stay put: a peek holds at least to one
        // token short of its horizon.
        LIGHTLLM_ASSERT(request.predicted + 1 >= request.predictedUntil,
                        "prediction ", request.predicted,
                        " ends before its horizon ",
                        request.predictedUntil);
        if (request.predicted != before)
            run.moved.push_back(i);
        fileLapse(i, static_cast<TokenCount>(step) +
                         request.predictedUntil - generated);
        i = next;
    }

    const Tick duration =
        run.ends[step - 1] - (step == 1 ? run.start : run.ends[step - 2]);
    now_ = run.ends[step - 1];
    if (!run.moved.empty() && !rescan)
        moveLapsedEntries();
    run.moved.clear();
    const auto [true_future, predicted_future] = auditStep(ahead);
    const TokenCount used = kv_.usedTokens() + run.kvLag;
    collector_.onDecodeStep(batch, used, true_future, predicted_future,
                            now_, duration);
    if (trace_ != nullptr && trace_->stepsEnabled()) {
        traceStepCounters(batch, used, true_future, predicted_future);
    }
}

void
ServingEngine::moveLapsedEntries()
{
    // The carried entries lag their requests' lengths by one shared
    // amount, which leaves every M_i unchanged, while each l_hat is
    // the absolute max(predicted, generated): a moved member
    // overwrites its own entry's l_hat and slides it to its Eq. 2
    // slot past the entries it now out- or under-runs (the rest of
    // the batch stays sorted), then one scan rescores the batch.
    DecodeRun &run = decodeRun_;
    std::vector<core::BatchEntry> &entries = auditPredicted_.entries;
    std::vector<AuditMember> &members = auditPredicted_.members;
    auto member_of = [&run](const AuditMember &tag) {
        return run.memberOfSlab[slotIndex(tag.slot)];
    };
    if (!run.auditPosValid) {
        // Without a rescan pending the audit holds exactly the run's
        // members (joins and prefill-pending members flag one).
        LIGHTLLM_ASSERT(members.size() == running_.size(),
                        "carried audit of ", members.size(),
                        " members over a run of ", running_.size());
        run.auditPos.resize(running_.size());
        for (std::size_t p = 0; p < members.size(); ++p) {
            run.auditPos[member_of(members[p])] =
                static_cast<std::uint32_t>(p);
        }
        run.auditPosValid = true;
    }
    for (const std::uint32_t member : run.moved) {
        const std::size_t at = run.auditPos[member];
        entries[at].predictedOutputLen = running_[member]->predicted;
        core::slideToOrder(
            std::span<core::BatchEntry>(entries),
            std::span<AuditMember>(members), at,
            [&](const AuditMember &tag, std::size_t i) {
                run.auditPos[member_of(tag)] =
                    static_cast<std::uint32_t>(i);
            });
    }
    auditPredicted_.peak = core::sortedPeak(entries);
    auditPredictionChanged_ = false;
}

void
ServingEngine::settleTo(Tick when)
{
    // now_ is the next planned step's start.
    while (runPending() && now_ < when)
        settleStep();
}

void
ServingEngine::syncRun()
{
    DecodeRun &run = decodeRun_;
    if (run.settled == run.synced)
        return;
    const std::size_t from = run.synced;
    const std::size_t to = run.settled;
    // Every member emitted at each settled step's end: the first
    // gap is per member, the later ones are the step durations.
    Tick widest = 0;
    for (std::size_t i = from + 1; i < to; ++i)
        widest = std::max(widest, run.ends[i] - run.ends[i - 1]);
    for (std::size_t i = 0; i < running_.size(); ++i) {
        EngineRequest &request = *running_[i];
        // Slack fills only: a crossing would have placed the rest.
        kv_.growInSlack(request.slot,
                        static_cast<TokenCount>(to - run.kvSynced[i]));
        run.kvSynced[i] = to;
        request.generated += static_cast<TokenCount>(to - from);
        recordEmission(request, run.ends[from]);
        request.maxGap = std::max(request.maxGap, widest);
        request.lastEmit = run.ends[to - 1];
    }
    run.kvLag = 0;
    run.synced = to;
}

void
ServingEngine::endRun()
{
    syncRun();
    decodeRun_.ends.clear();
    decodeRun_.settled = 0;
    decodeRun_.synced = 0;
}

core::RunningView
ServingEngine::runningViewOf(const EngineRequest &request,
                             bool prefilling)
{
    return core::RunningView{
        request.spec.id,      request.spec.inputLen,
        request.generated,    request.spec.maxNewTokens,
        request.spec.outputLen, request.admitSeq,
        request.spec.cls, prefilling,
        request.cachedPrefix, request.slot};
}

std::span<const PrefixHash>
ServingEngine::hashChain(EngineRequest &request, TokenCount cap)
{
    const workload::RequestSpec &spec = request.spec;
    // Content-identified tokens: the prompt segments always; the
    // generated output only when the spec names its content.
    const TokenCount output =
        spec.outputKey != 0 ? request.generated : 0;
    const auto full_blocks =
        static_cast<std::size_t>(cap / kv_.blockSize());
    if (request.hashes.size() < full_blocks) {
        // The stream only grows (output is appended), and an
        // inherited chain covers a segment-wise prefix of the
        // prompt, so the chain held so far is a prefix of the one
        // to this cap.
        streamScratch_.assign(spec.segments.begin(),
                              spec.segments.end());
        if (output > 0)
            streamScratch_.push_back(
                PromptSegment{spec.outputKey, output});
        extendBlockHashChain(streamScratch_, kv_.blockSize(), cap,
                             request.hashes);
    }
    // Shorter than full_blocks only when the stream ends before cap.
    return std::span<const PrefixHash>(request.hashes)
        .first(std::min(request.hashes.size(), full_blocks));
}

std::span<const PrefixHash>
ServingEngine::promptHashes(EngineRequest &request)
{
    const workload::RequestSpec &spec = request.spec;
    const TokenCount prompt = spec.inputLen + request.generated;
    const TokenCount known = spec.outputKey != 0
        ? prompt
        : spec.inputLen;
    // One short of the prompt: the final prompt token is always
    // prefilled (it produces the logits for the first new token).
    return hashChain(request, std::min(known, prompt - 1));
}

TokenCount
ServingEngine::peekCachedPrefix(EngineRequest &request)
{
    // Swap-in restores the KV wholesale (admitOne allocates the
    // full footprint privately), so schedulers must not discount a
    // swapped-out candidate.
    if (!prefixCache_ || request.spec.segments.empty() ||
        request.swappedOut) {
        return 0;
    }
    const auto matched = static_cast<TokenCount>(
        prefixCache_->peek(promptHashes(request)));
    return matched * kv_.blockSize();
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
        hashChain(*request, known);
    const std::vector<memory::BlockId> &table =
        kv_.blockTable(request->slot);
    // Full identified blocks are always a prefix of the block
    // table (the allocation covers prompt + at least one token).
    const std::size_t count = std::min(hashes.size(), table.size());
    prefixCache_->insert(
        hashes.first(count),
        std::span<const memory::BlockId>(table).first(count));
}

void
ServingEngine::inheritSessionChain(EngineRequest &request)
{
    const workload::RequestSpec &spec = request.spec;
    if (!prefixCache_ || spec.sessionKey == 0 ||
        spec.segments.empty())
        return;
    const auto it = sessionChains_.find(spec.sessionKey);
    if (it == sessionChains_.end())
        return;
    SessionChain &memo = it->second;
    // A stale turn (the session's later turns ran elsewhere) still
    // qualifies; a stream that diverged does not.
    if (memo.stream.empty() ||
        !isSegmentPrefix(memo.stream, spec.segments))
        return;
    // hashChain resumes past the inherited blocks; the request's
    // emptied buffer goes back to the memo for the next hand-off.
    request.hashes.swap(memo.hashes);
    memo.stream.clear();
}

void
ServingEngine::handOffSessionChain(EngineRequest &request)
{
    const workload::RequestSpec &spec = request.spec;
    if (!prefixCache_ || spec.sessionKey == 0 ||
        spec.segments.empty())
        return;
    // cacheInsert extended the chain over every full block of this
    // stream: the prompt, then the reply when its content is named.
    SessionChain &memo = sessionChains_[spec.sessionKey];
    memo.stream.assign(spec.segments.begin(), spec.segments.end());
    if (spec.outputKey != 0 && request.generated > 0) {
        memo.stream.push_back(
            PromptSegment{spec.outputKey, request.generated});
    }
    memo.hashes.swap(request.hashes);
}

std::vector<std::uint64_t>
ServingEngine::heldSessionChains() const
{
    std::vector<std::uint64_t> sessions;
    for (const auto &[session, memo] : sessionChains_) {
        if (!memo.stream.empty())
            sessions.push_back(session);
    }
    return sessions;
}

std::span<const PrefixHash>
ServingEngine::sessionChain(std::uint64_t session) const
{
    const auto it = sessionChains_.find(session);
    if (it == sessionChains_.end() || it->second.stream.empty())
        return {};
    return it->second.hashes;
}

core::SchedulerContext
ServingEngine::buildContext()
{
    runningViews_.clear();
    for (const EngineRequest *request : running_)
        runningViews_.push_back(runningViewOf(*request, false));
    // Admitted-but-prefilling requests already hold KV memory and
    // will generate; the scheduler must see them as part of the
    // running batch (they are not eviction candidates, though).
    for (const EngineRequest *request : prefillPending_)
        runningViews_.push_back(runningViewOf(*request, true));

    waitingViews_.clear();
    for (EngineRequest *request : waiting_) {
        // Migrated KV counts as a resident prefix: the dispatch
        // gate of the handoff queue already reserved its memory on
        // this instance, so the schedulers must not charge it
        // again (and there is no prefill compute to budget for).
        const TokenCount resident =
            std::max(peekCachedPrefix(*request),
                     migratedResidentTokens(*request));
        waitingViews_.push_back(core::WaitingView{
            request->spec.id, request->spec.inputLen,
            request->generated, request->spec.maxNewTokens,
            request->arrival, request->spec.outputLen,
            request->spec.cls, resident, request->slot});
    }

    core::SchedulerContext ctx;
    ctx.now = now_;
    ctx.capacityTokens = kv_.capacityTokens();
    ctx.usedTokens = kv_.usedTokens();
    // Block rounding wastes at most blockSize - 1 slots per request,
    // and admission allocates one extra slot for the prefill token.
    ctx.perRequestOverhead = kv_.blockSize();
    ctx.admitRoom = admitRoom();
    ctx.running = runningViews_;
    ctx.waiting = waitingViews_;
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
    } else if (migratedResidentTokens(*request) > 0) {
        // Disaggregated handoff: the KV of the whole prompt arrived
        // over the interconnect. Allocate it as private resident
        // memory; no prefill compute and no emission (the first
        // token was produced by the prefill pool).
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
            // uncached suffix is allocated — and only it is
            // prefilled.
            matchScratch_.clear();
            prefixCache_->match(promptHashes(*request),
                                matchScratch_);
            if (!kv_.allocateShared(slot, tokens, matchScratch_))
                return false;
            const TokenCount shared = kv_.requestSharedTokens(slot);
            collector_.onPrefixLookup(prompt, shared);
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
    auditMembersChanged_ = true;
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
    if (!error.empty())
        fatal("invalid scheduling decision: ", error);

    // Proactive evictions first: they free the memory the
    // admissions below were planned against.
    Tick eviction_stall = 0;
    for (RequestId id : decision.evict)
        eviction_stall += evictRequest(id, false);
    now_ += eviction_stall;

    // The policy stopped at the room it was given; evictions only
    // widen it.
    LIGHTLLM_ASSERT(decision.admit.size() <= admitRoom(),
                    "decision admits ", decision.admit.size(),
                    " past the batch room ", admitRoom());

    if (decision.admit.empty() && running_.empty() &&
        prefillPending_.empty()) {
        // Backstop for custom policies: the built-in pipeline
        // already force-admits its head-of-order request when the
        // system is idle (see SchedulingPolicy::decide).
        decision.admit.push_back(waiting_.front()->spec.id);
    }

    std::int64_t admitted = 0;
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
                fatal("request ", request->spec.id, " (prompt ",
                      request->spec.inputLen + request->generated,
                      " tokens) cannot fit in capacity ",
                      kv_.capacityTokens());
            }
            break;
        }
        waiting_.erase(it);
        ++admitted;
        if (trace_ != nullptr)
            traceAdmit(*request);
    }
    if (trace_ != nullptr && trace_->stepsEnabled()) {
        trace_->instant(
            trace::TraceName::AdmissionRound, kInvalidRequestId,
            now_, admitted,
            static_cast<std::int64_t>(decision.evict.size()),
            static_cast<std::int64_t>(waiting_.size()));
    }
}

void
ServingEngine::traceAdmit(const EngineRequest &request)
{
    const RequestId id = request.spec.id;
    trace_->end(trace::TraceName::Queued, id, now_);
    trace_->instant(
        trace::TraceName::Admit, id, now_,
        policy_->peekPrediction(id, request.generated,
                                request.spec.maxNewTokens),
        request.spec.effectiveOutputLen(), now_ - request.arrival);
    trace_->begin(trace::TraceName::Prefill, id, now_,
                  request.remainingPrompt, request.cachedPrefix,
                  kv_.usedTokens());
}

void
ServingEngine::recordEmission(EngineRequest &request, Tick tick)
{
    if (request.firstToken < 0)
        request.firstToken = tick;
    if (request.lastEmit >= 0)
        request.maxGap = std::max(request.maxGap,
                                  tick - request.lastEmit);
    request.lastEmit = tick;
}

void
ServingEngine::finishRequest(EngineRequest *request)
{
    if (trace_ != nullptr) {
        // Before the policy forgets the request: the peeked
        // prediction still reflects the estimate the scheduler was
        // operating under.
        trace_->instant(
            trace::TraceName::Finish, request->spec.id, now_,
            request->generated,
            policy_->peekPrediction(request->spec.id,
                                    request->generated,
                                    request->spec.maxNewTokens),
            request->evictions);
    }
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
    collector_.onRequestFinished(record);

    // Retain the request's identified full blocks (prompt and, for
    // session turns, the generated reply) before the references
    // drop: the next turn's prompt extends exactly this stream.
    cacheInsert(request);
    handOffSessionChain(*request);
    kv_.release(request->slot);
    policy_->onRequestFinished(request->spec.id,
                               request->generated);
    // The policy saw a new length: every cached prediction lapses.
    ++predictionEpoch_;
    auditMembersChanged_ = true;
    ++finished_;
    if (config_.warmupRequests > 0 &&
        finished_ == config_.warmupRequests) {
        collector_.resetMeasurement(now_);
    }

    if (!onFinish_ && !onRecord_) {
        recycleRequest(request);
        return;
    }
    // Defer the notification to the context at the exact finish
    // tick: listeners (router, clients, SLO monitors) then observe
    // the completion in global event order rather than mid-way
    // through this engine's iteration. One event carries both
    // callbacks, record first. The payload (spec moved out of the
    // dying request + record) parks in a recycled slab slot so the
    // event lambda stays small enough for the queue's inline
    // handler storage — the notify path allocates nothing in
    // steady state.
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
    runningViews_.clear();
    for (const EngineRequest *request : running_)
        runningViews_.push_back(runningViewOf(*request, false));
    core::SchedulerContext ctx;
    ctx.now = now_;
    ctx.capacityTokens = kv_.capacityTokens();
    ctx.usedTokens = kv_.usedTokens();
    ctx.perRequestOverhead = kv_.blockSize();
    ctx.running = runningViews_;

    const core::VictimOrder order =
        config_.evictionPolicy == EvictionPolicy::Lifo
        ? core::VictimOrder::NewestFirst
        : core::VictimOrder::OldestFirst;
    policy_->victimOrder(ctx, order, victimScratch_);
    return evictRequest(victimScratch_.front(), true);
}

Tick
ServingEngine::evictRequest(RequestId id, bool reactive)
{
    const auto victim_it = std::find_if(
        running_.begin(), running_.end(),
        [id](const EngineRequest *request) {
            return request->spec.id == id;
        });
    LIGHTLLM_ASSERT(victim_it != running_.end(),
                    "eviction victim ", id, " is not decoding");
    EngineRequest *victim = *victim_it;
    running_.erase(victim_it);
    auditMembersChanged_ = true;

    const TokenCount victim_tokens = kv_.requestTokens(victim->slot);
    // release() only drops references: blocks the prefix cache (or
    // another sharer) holds survive, so the victim's re-admission
    // can re-match its prefix instead of recomputing it.
    kv_.release(victim->slot);
    victim->evictions += 1;
    victim->remainingPrompt = 0;
    victim->cachedPrefix = 0;
    collector_.onEviction(victim->evictions == 1);
    policy_->onRequestEvicted(victim->spec.id);
    // Back to the front of the queue; the KV is either rebuilt by a
    // future recompute prefill or restored by a swap-in.
    waiting_.push_front(victim);

    if (trace_ != nullptr) {
        const auto cause = static_cast<std::int64_t>(
            reactive ? trace::EvictCause::Reactive
                     : trace::EvictCause::Proactive);
        trace_->end(trace::TraceName::Decode, id, now_,
                    victim->generated);
        trace_->instant(trace::TraceName::Evict, id, now_, cause,
                        victim->generated, victim->evictions);
        if (config_.evictionMode == EvictionMode::Swap) {
            trace_->instant(trace::TraceName::SwapOut, id, now_,
                            victim_tokens);
        }
        trace_->begin(trace::TraceName::Queued, id, now_,
                      victim->spec.inputLen,
                      policy_->peekPrediction(
                          id, victim->generated,
                          victim->spec.maxNewTokens),
                      victim->spec.effectiveOutputLen());
    }

    if (config_.evictionMode == EvictionMode::Swap) {
        victim->swappedOut = true;
        const Tick cost = scaled(perf_.swapLatency(victim_tokens));
        collector_.onSwap(victim_tokens, cost);
        return cost;
    }
    return 0;
}

void
ServingEngine::carryAuditMembers()
{
    // Members carry this reconcile's `member` mark. A carried entry
    // survives only if its request carries the mark and still holds
    // the slot it joined with (a departed request, or a recycled
    // slab entry now queued, free or serving a newer request, does
    // not), and then flips it to `kept`, so no member is ever
    // carried twice. Both batches always hold the same members.
    const std::uint64_t member = ++auditEpoch_;
    const std::uint64_t kept = ++auditEpoch_;
    for (EngineRequest *request : running_)
        request->auditMark = member;
    for (EngineRequest *request : prefillPending_)
        request->auditMark = member;
    std::erase_if(auditTrue_.members, [&](const AuditMember &carried) {
        EngineRequest *request = carried.request;
        if (request->auditMark != member ||
            request->slot != carried.slot) {
            return true;
        }
        request->auditMark = kept;
        return false;
    });
    std::erase_if(auditPredicted_.members,
                  [&](const AuditMember &carried) {
                      return carried.request->auditMark != kept ||
                          carried.request->slot != carried.slot;
                  });
    auto join = [&](EngineRequest *request) {
        if (request->auditMark == kept)
            return;
        request->auditMark = kept;
        auditTrue_.members.push_back({request, request->slot});
        auditPredicted_.members.push_back({request, request->slot});
    };
    for (EngineRequest *request : running_)
        join(request);
    for (EngineRequest *request : prefillPending_)
        join(request);
}

TokenCount
ServingEngine::carriedPeak(AuditBatch &batch)
{
    core::restoreRemainingOrder(
        std::span<core::BatchEntry>(batch.entries),
        std::span<AuditMember>(batch.members));
    return core::sortedPeak(batch.entries);
}

void
ServingEngine::refreshPrediction(EngineRequest &request, bool force)
{
    if (!force && request.generated < request.predictedUntil &&
        request.predictedEpoch == predictionEpoch_) {
        return;
    }
    peekAt(request, request.generated);
}

void
ServingEngine::peekAt(EngineRequest &request, TokenCount generated)
{
    // Read-only peek: consumes no RNG and creates no sticky state.
    const core::PredictionPeek peek = policy_->peekWithHorizon(
        request.slot, request.spec.id, generated,
        request.spec.maxNewTokens);
    const TokenCount predicted = std::max(peek.predicted, generated);
    if (predicted != request.predicted)
        auditPredictionChanged_ = true;
    request.predicted = predicted;
    request.predictedUntil = peek.horizon;
    request.predictedEpoch = predictionEpoch_;
}

void
ServingEngine::rescanTrue(TokenCount ahead)
{
    auditTrue_.entries.clear();
    for (const AuditMember &member : auditTrue_.members) {
        const EngineRequest *request = member.request;
        auditTrue_.entries.push_back(core::BatchEntry{
            request->spec.inputLen - request->cachedPrefix,
            request->generated,
            std::max(request->targetOutput(),
                     request->generated + ahead)});
    }
    auditTrue_.peak = carriedPeak(auditTrue_);
}

void
ServingEngine::rescanPredicted(TokenCount ahead)
{
    // Same batch as the true audit, but with the target lengths the
    // scheduler believes in. Decoding members were re-peeked as
    // they advanced; prefill-pending ones have not grown, which a
    // horizon does not cover, so they are peeked afresh.
    for (EngineRequest *request : prefillPending_)
        refreshPrediction(*request, true);
    auditPredicted_.entries.clear();
    for (const AuditMember &member : auditPredicted_.members) {
        const EngineRequest *request = member.request;
        auditPredicted_.entries.push_back(core::BatchEntry{
            request->spec.inputLen - request->cachedPrefix,
            request->generated,
            std::max(request->predicted, request->generated + ahead)});
    }
    auditPredicted_.peak = carriedPeak(auditPredicted_);
    auditPredictionChanged_ = false;
    decodeRun_.auditPosValid = false;
}

std::pair<TokenCount, TokenCount>
ServingEngine::auditStep(TokenCount ahead)
{
    // While the membership holds and every member decodes, the step
    // just taken added one token to every member: P_i + i * r_i is
    // unchanged for every i (DESIGN.md §8), so both carried peaks
    // still hold unless a prediction moved.
    if (auditMembersChanged_ || !prefillPending_.empty()) {
        carryAuditMembers();
        rescanTrue(ahead);
        rescanPredicted(ahead);
        auditMembersChanged_ = false;
    } else if (auditPredictionChanged_) {
        rescanPredicted(ahead);
    }
    return {auditTrue_.peak, auditPredicted_.peak};
}

void
ServingEngine::startDecoding(EngineRequest *request)
{
    if (trace_ != nullptr) {
        trace_->end(trace::TraceName::Prefill, request->spec.id,
                    now_);
        trace_->begin(trace::TraceName::Decode, request->spec.id,
                      now_, request->generated);
    }
    kv_.joinBatch(request->slot);
    running_.push_back(request);
    auditMembersChanged_ = true;
}

void
ServingEngine::joinMigrated(EngineRequest *request)
{
    // Migrated KV is already resident: straight to the decode
    // batch. The transfer cost was paid on the interconnect before
    // dispatch, and the first token came from the prefill pool.
    request->migratedAdmit = false;
    if (trace_ != nullptr) {
        trace_->instant(trace::TraceName::Migrated, request->spec.id,
                        now_, request->spec.migratedPrefix);
    }
    startDecoding(request);
}

bool
ServingEngine::completePrefill(EngineRequest *request)
{
    request->remainingPrompt = 0;
    request->generated += 1;
    recordEmission(*request, now_);
    if (request->generated >= request->targetOutput()) {
        if (trace_ != nullptr)
            trace_->end(trace::TraceName::Prefill, request->spec.id,
                        now_);
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
            // Swap-in: restore the KV; no compute, no new token
            // (the request resumes decoding from where it was).
            const TokenCount tokens =
                request->spec.inputLen + request->generated;
            const Tick duration = scaled(perf_.swapLatency(tokens));
            now_ += duration;
            collector_.onSwap(tokens, duration);
            request->swappedOut = false;
            if (trace_ != nullptr) {
                trace_->instant(trace::TraceName::SwapIn,
                                request->spec.id, now_, tokens);
            }
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
        collector_.onPrefill(request->remainingPrompt, duration);
        if (completePrefill(request))
            finishRequest(request);
    }
    prefillPending_.clear();
}

void
ServingEngine::traceStepCounters(std::int64_t batch_size,
                                 TokenCount used_tokens,
                                 TokenCount true_future,
                                 TokenCount predicted_future)
{
    trace_->counter(trace::TraceName::BatchSize, now_, batch_size);
    trace_->counter(trace::TraceName::KvUsed, now_, used_tokens);
    trace_->counter(trace::TraceName::KvFutureTrue, now_,
                    true_future);
    trace_->counter(trace::TraceName::KvFuturePred, now_,
                    predicted_future);
    trace_->counter(trace::TraceName::QueueDepth, now_,
                    static_cast<std::int64_t>(waiting_.size()));
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

    // The KV manager tracks the batch's block demand as members
    // join, grow and leave, so the feasibility test is O(1); nothing
    // between a passing test and the growth walk below touches the
    // KV manager.
    Tick extra_stall = 0;
    while (!running_.empty() && !kv_.batchCanGrow()) {
        if (running_.size() == 1) {
            // A lone request that cannot extend would evict and
            // re-admit itself forever.
            fatal("request ", running_.front()->spec.id,
                  " outgrew the KV capacity of ",
                  kv_.capacityTokens(),
                  " tokens; raise capacity or lower "
                  "max_new_tokens");
        }
        extra_stall += evictOne();
    }

    // Swap-ins restore admitted-but-offloaded requests; they join
    // the batch after this step (no token emitted while restoring).
    swappedInScratch_.clear();
    std::erase_if(prefillPending_, [&](EngineRequest *request) {
        if (!request->swappedOut)
            return false;
        const TokenCount tokens =
            request->spec.inputLen + request->generated;
        const Tick cost = scaled(perf_.swapLatency(tokens));
        extra_stall += cost;
        collector_.onSwap(tokens, cost);
        request->swappedOut = false;
        if (trace_ != nullptr) {
            trace_->instant(trace::TraceName::SwapIn,
                            request->spec.id, now_, tokens);
        }
        swappedInScratch_.push_back(request);
        auditMembersChanged_ = true;
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
        if (take > 0 && trace_ != nullptr &&
            trace_->stepsEnabled()) {
            trace_->instant(trace::TraceName::Chunk,
                            request->spec.id, now_, take,
                            request->remainingPrompt);
        }
    }

    // Walk one: grow, advance, sum the batch KV, and re-peek the
    // members whose cached prediction lapsed.
    TokenCount batch_kv = 0;
    for (EngineRequest *request : running_) {
        kv_.growByOne(request->slot);
        request->generated += 1;
        batch_kv += request->spec.inputLen + request->generated;
        refreshPrediction(*request, false);
    }

    const auto batch_size =
        static_cast<std::int64_t>(running_.size());
    if (batch_size == 0 && chunk_used == 0 &&
        swappedInScratch_.empty()) {
        return;
    }
    Tick duration = extra_stall;
    if (batch_size > 0 || chunk_used > 0) {
        duration += scaled(perf_.fusedStepLatency(
            batch_size, batch_kv, chunk_used));
    }
    now_ += duration;
    if (batch_size > 0) {
        const auto [true_future, predicted_future] = auditStep();
        collector_.onDecodeStep(batch_size, kv_.usedTokens(),
                                true_future, predicted_future,
                                now_, duration);
        if (trace_ != nullptr && trace_->stepsEnabled()) {
            traceStepCounters(batch_size, kv_.usedTokens(),
                              true_future, predicted_future);
        }
    }
    if (chunk_used > 0)
        collector_.onPrefill(chunk_used, duration);

    // Walk two: emissions and completions.
    finishedScratch_.clear();
    std::erase_if(running_, [&](EngineRequest *request) {
        recordEmission(*request, now_);
        if (request->generated < request->targetOutput())
            return false;
        if (trace_ != nullptr)
            trace_->end(trace::TraceName::Decode, request->spec.id,
                        now_, request->generated);
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
    if (limits.maxFinishedRequests > 0 &&
        finished_ >= limits.maxFinishedRequests) {
        return true;
    }
    if (limits.maxTicks > 0 && now_ >= limits.maxTicks)
        return true;
    return false;
}

void
ServingEngine::iterateOnce()
{
    admitRequests();
    if (!config_.splitFuse && !prefillPending_.empty())
        runPrefillPhase();
    runStep();
}

bool
ServingEngine::stepOnce(const RunLimits &limits)
{
    LIGHTLLM_ASSERT(ownedContext_ != nullptr,
                    "a shared SimContext drives attached engines");
    limits_ = limits;
    // Checked before any delivery: a run its last iteration stopped
    // delivers nothing more (no arrival joins the queue, or the
    // trace, after the limit).
    if (limitsReached(limits))
        return false;
    // The owned context holds only this engine's events, so the
    // one Step-class event is its next Step: every delivery due
    // before the next iteration fires first (an arrival on an idle
    // engine schedules the Step; one landing in a decode run ends
    // the run and moves the Step to the next step's start, now_).
    sim::EventQueue &queue = context_->queue();
    while (!queue.empty() &&
           queue.peekHead().cls == sim::EventClass::Delivery &&
           (!runPending() || queue.peekHead().when <= now_)) {
        context_->runNext();
    }
    if (runPending()) {
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

    // Queued-but-never-admitted requests leave in queue order and
    // re-enter a router immediately, carrying their original
    // arrival stamps so TTFT keeps counting their pre-drain wait.
    // Requests holding engine history (evicted or swapped out
    // mid-flight) stay: their KV rebuild and emission records live
    // here.
    const Tick drain_tick = context_->now();
    std::deque<EngineRequest *> keep;
    for (EngineRequest *request : waiting_) {
        if (request->generated > 0 || request->evictions > 0 ||
            request->swappedOut) {
            keep.push_back(request);
            continue;
        }
        if (trace_ != nullptr) {
            trace_->end(trace::TraceName::Queued,
                        request->spec.id, drain_tick);
            trace_->instant(trace::TraceName::Drained,
                            request->spec.id, drain_tick);
        }
        redispatch.push_back(DrainedRequest{
            request->spec, drain_tick, request->arrival});
        recycleRequest(request);
    }
    waiting_ = std::move(keep);

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

    std::vector<DrainedRequest> stolen;
    if (max_requests == 0 || waiting_.empty())
        return stolen;

    // Tail-to-head scan: the thief takes the freshest backlog so
    // the queue head (and its TTFT clock) stays put. Requests with
    // engine history stay regardless, as in drainQueued().
    std::vector<EngineRequest *> take;
    for (auto it = waiting_.rbegin();
         it != waiting_.rend() && take.size() < max_requests; ++it) {
        EngineRequest *request = *it;
        if (request->generated > 0 || request->evictions > 0 ||
            request->swappedOut) {
            continue;
        }
        take.push_back(request);
    }
    if (take.empty())
        return stolen;

    std::deque<EngineRequest *> keep;
    for (EngineRequest *request : waiting_) {
        if (std::find(take.begin(), take.end(), request) !=
            take.end()) {
            continue;
        }
        keep.push_back(request);
    }
    waiting_ = std::move(keep);

    // Queue order (oldest first) for deterministic re-dispatch.
    std::reverse(take.begin(), take.end());
    const Tick steal_tick = context_->now();
    stolen.reserve(take.size());
    for (EngineRequest *request : take) {
        if (trace_ != nullptr) {
            trace_->end(trace::TraceName::Queued,
                        request->spec.id, steal_tick);
            trace_->instant(trace::TraceName::Drained,
                            request->spec.id, steal_tick);
        }
        stolen.push_back(DrainedRequest{request->spec, steal_tick,
                                        request->arrival});
        recycleRequest(request);
    }
    return stolen;
}

metrics::RunReport
ServingEngine::report()
{
    settleNow();
    return collector_.finish(policy_->name(), now_);
}

Tick
ServingEngine::now()
{
    settleNow();
    return now_;
}

const memory::KvBlockManager &
ServingEngine::kvManager()
{
    settleNow();
    syncRun();
    return kv_;
}

const memory::PrefixCache *
ServingEngine::prefixCache()
{
    settleNow();
    syncRun();
    return prefixCache_.get();
}

bool
ServingEngine::hasWork() const
{
    return !running_.empty() || !prefillPending_.empty() ||
        !waiting_.empty();
}

TokenCount
ServingEngine::outstandingTokens()
{
    settleNow();
    TokenCount total =
        kv_.usedTokens() + decodeRun_.kvLag + undeliveredTokens_;
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
ServingEngine::migratedResidentTokens(const EngineRequest &request)
{
    if (request.spec.migratedPrefix > 0 && request.generated == 0 &&
        request.evictions == 0 && !request.swappedOut) {
        return request.spec.migratedPrefix;
    }
    return 0;
}

TokenCount
ServingEngine::pendingPrefillTokens() const
{
    // In-flight arrivals are conservatively counted as full
    // prompts (their migration status is unknown until delivery).
    TokenCount total = undeliveredTokens_;
    for (const EngineRequest *request : waiting_) {
        total += request->spec.inputLen + request->generated -
            migratedResidentTokens(*request);
    }
    for (const EngineRequest *request : prefillPending_)
        total += request->remainingPrompt;
    return total;
}

} // namespace engine
} // namespace lightllm
