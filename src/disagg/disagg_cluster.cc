#include "disagg/disagg_cluster.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "base/logging.hh"
#include "stats/percentile.hh"

namespace lightllm {
namespace disagg {

ByteCount
migrationBytes(const DisaggConfig &config, TokenCount kv_tokens)
{
    LIGHTLLM_ASSERT(kv_tokens > 0, "empty migration");
    const TokenCount blocks =
        (kv_tokens + config.blockSize - 1) / config.blockSize;
    return blocks * config.blockSize * config.kvBytesPerToken;
}

Tick
migrationTransferTicks(const DisaggConfig &config,
                       TokenCount kv_tokens)
{
    const double seconds =
        static_cast<double>(migrationBytes(config, kv_tokens)) /
        config.linkBandwidth;
    return config.transferLatency + secondsToTicks(seconds);
}

DisaggCluster::DisaggCluster(
    std::vector<std::unique_ptr<engine::ServingEngine>>
        prefill_instances,
    std::vector<std::unique_ptr<engine::ServingEngine>>
        decode_instances,
    DisaggConfig config, sim::SimContext &context)
    : config_(config), context_(context)
{
    LIGHTLLM_ASSERT(config_.kvBytesPerToken > 0,
                    "disagg config needs the model's KV bytes per "
                    "token");
    LIGHTLLM_ASSERT(config_.blockSize >= 1, "bad KV block size");
    LIGHTLLM_ASSERT(config_.linkBandwidth > 0,
                    "interconnect bandwidth must be positive");
    LIGHTLLM_ASSERT(config_.transferLatency >= 0,
                    "negative transfer latency");
    LIGHTLLM_ASSERT(config_.handoffDepth >= 1,
                    "handoff queue needs room for at least one "
                    "transfer");
    prefillPool_ = std::make_unique<cluster::ServingCluster>(
        std::move(prefill_instances),
        cluster::RoutingPolicy::PrefillLoad, context_);
    decodePool_ = std::make_unique<cluster::ServingCluster>(
        std::move(decode_instances),
        cluster::RoutingPolicy::FutureMemory, context_);
    prefillPool_->setOnFinish(
        [this](const workload::RequestSpec &spec, Tick tick) {
            handlePrefillFinish(spec, tick);
        });
    decodePool_->setOnFinish(
        [this](const workload::RequestSpec &spec, Tick tick) {
            handleDecodeFinish(spec, tick);
        });
}

void
DisaggCluster::setOnFinish(FinishCallback callback)
{
    onFinish_ = std::move(callback);
}

void
DisaggCluster::attachTrace(trace::TraceRecorder *recorder)
{
    // Prefill sinks first, then decode: the trace's pid layout
    // mirrors the pool construction order above.
    prefillPool_->setTraceRecorder(recorder, "prefill");
    decodePool_->setTraceRecorder(recorder, "decode");
}

void
DisaggCluster::submitAt(const workload::RequestSpec &spec,
                        Tick arrival)
{
    ++offered_;

    Pending pending;
    pending.original = spec;
    if (spec.effectiveOutputLen() > 1) {
        // Decode-side sub-request: the prompt plus the token the
        // prefill emitted are resident migrated KV; the remaining
        // output is generated here. Content identities are cleared
        // — migrated blocks are private to this request.
        workload::RequestSpec decode = spec;
        decode.inputLen = spec.inputLen + 1;
        decode.outputLen = spec.effectiveOutputLen() - 1;
        decode.maxNewTokens = decode.outputLen;
        decode.segments.clear();
        decode.outputKey = 0;
        decode.sessionKey = 0;
        decode.migratedPrefix = decode.inputLen;
        decode.arrivalTick = -1;
        pending.decodeSpec = std::move(decode);
    }
    const bool inserted =
        pending_.emplace(spec.id, std::move(pending)).second;
    LIGHTLLM_ASSERT(inserted, "request id ", spec.id,
                    " submitted while still in flight");

    // Prefill-side sub-request: full prompt, exactly one token (the
    // real TTFT is its completion).
    workload::RequestSpec prefill = spec;
    prefill.outputLen = 1;
    prefill.maxNewTokens = 1;
    prefill.migratedPrefix = 0;
    prefillPool_->submitAt(prefill, arrival);
}

void
DisaggCluster::handlePrefillFinish(
    const workload::RequestSpec &spec, Tick tick)
{
    const auto it = pending_.find(spec.id);
    LIGHTLLM_ASSERT(it != pending_.end(),
                    "prefill completion for unknown request ",
                    spec.id);
    Pending &pending = it->second;
    if (pending.original.effectiveOutputLen() <= 1) {
        // Single-token request: nothing to migrate, the prefill
        // completion is the end-to-end completion.
        finishUser(pending.original, tick);
        pending_.erase(it);
        return;
    }
    // KV migration: prompt + first token, whole blocks, serialized
    // over the interconnect. The handoff decision happens when the
    // transfer lands.
    const TokenCount kv_tokens = pending.decodeSpec.inputLen;
    migratedKvBytesTotal_ += migrationBytes(config_, kv_tokens);
    ++migratedRequests_;
    context_.schedule(
        tick + migrationTransferTicks(config_, kv_tokens),
        [this, id = spec.id](Tick when) {
            onTransferComplete(id, when);
        });
}

void
DisaggCluster::onTransferComplete(RequestId id, Tick when)
{
    if (handoff_.size() >= config_.handoffDepth) {
        // Backpressure by rejection: the decode side cannot absorb
        // the migration rate. The prefill work is sunk cost; the
        // open-loop client sees a drop.
        ++handoffShed_;
        shedIds_.insert(id);
        pending_.erase(id);
        return;
    }
    handoff_.push_back(HandoffEntry{id, when});
    tryDispatch(when);
}

bool
DisaggCluster::decodeRoomFor(TokenCount kv_tokens)
{
    const autoscale::FleetSnapshot snap = decodePool_->snapshot();
    TokenCount best_room =
        std::numeric_limits<TokenCount>::min();
    TokenCount best_capacity = 0;
    for (const auto &instance : snap.instances) {
        if (instance.warming || instance.draining)
            continue;
        best_capacity =
            std::max(best_capacity, instance.capacityTokens);
        best_room = std::max(best_room,
                             instance.capacityTokens -
                                 instance.outstandingTokens);
    }
    if (kv_tokens > best_capacity) {
        throw std::invalid_argument(concat(
            "migrated KV of ", kv_tokens,
            " tokens exceeds every decode instance's capacity of ",
            best_capacity, " tokens"));
    }
    return best_room - inFlightDispatchTokens_ >= kv_tokens;
}

void
DisaggCluster::tryDispatch(Tick when)
{
    while (!handoff_.empty()) {
        const HandoffEntry entry = handoff_.front();
        const Pending &pending = pending_.at(entry.id);
        const TokenCount kv_tokens = pending.decodeSpec.inputLen;
        if (!decodeRoomFor(kv_tokens))
            break;
        handoff_.pop_front();
        handoffWaits_.push_back(
            ticksToSeconds(when - entry.enqueuedAt));
        // Reserve the KV's room until the submission becomes
        // visible in the instances' outstanding counters (elastic
        // pools defer routing within the tick), then re-check the
        // queue — capacity may remain for the next head.
        inFlightDispatchTokens_ += kv_tokens;
        decodePool_->submitAt(pending.decodeSpec, when);
        context_.schedule(when + 1, [this, kv_tokens](Tick tick) {
            inFlightDispatchTokens_ -= kv_tokens;
            tryDispatch(tick);
        });
    }
}

void
DisaggCluster::handleDecodeFinish(
    const workload::RequestSpec &spec, Tick tick)
{
    const auto it = pending_.find(spec.id);
    LIGHTLLM_ASSERT(it != pending_.end(),
                    "decode completion for unknown request ",
                    spec.id);
    finishUser(it->second.original, tick);
    pending_.erase(it);
    tryDispatch(tick);
}

void
DisaggCluster::finishUser(const workload::RequestSpec &original,
                          Tick tick)
{
    ++finishedUsers_;
    lastUserFinishTick_ = std::max(lastUserFinishTick_, tick);
    if (onFinish_)
        onFinish_(original, tick);
}

bool
DisaggCluster::quiescent() const
{
    return finishedUsers_ + handoffShed_ +
            prefillPool_->shedRequests() ==
        offered_;
}

void
DisaggCluster::enableAutoscale(
    const autoscale::AutoscaleConfig &config,
    std::unique_ptr<autoscale::ScalePolicy> prefill_policy,
    std::unique_ptr<autoscale::ScalePolicy> decode_policy,
    const cluster::ServingCluster::InstanceFactory &factory)
{
    prefillPool_->enableAutoscale(config, std::move(prefill_policy),
                                  factory);
    autoscale::AutoscaleConfig decode_config = config;
    decode_config.shedPolicy = autoscale::ShedPolicy::Never;
    decodePool_->enableAutoscale(decode_config,
                                 std::move(decode_policy), factory);
}

void
DisaggCluster::controlTick(Tick when)
{
    // One decision per elastic pool per tick: the pools share the
    // cadence but never the signal — each scaler sees only its own
    // pool's completions and snapshots, so prefill-heavy traffic
    // grows the prefill pool and decode-heavy the decode pool.
    if (prefillPool_->autoscaler())
        prefillPool_->controlOnce();
    if (decodePool_->autoscaler())
        decodePool_->controlOnce();
    // A freshly warmed decode instance may unblock the handoff.
    tryDispatch(when);
    if (!quiescent()) {
        context_.schedule(when + autoscale::kControlInterval,
                          [this](Tick tick) { controlTick(tick); });
    }
}

metrics::RunReport
DisaggCluster::run()
{
    LIGHTLLM_ASSERT(!ran_, "disagg clusters are single-run");
    ran_ = true;
    if (decodePool_->autoscaler()) {
        LIGHTLLM_ASSERT(
            decodePool_->autoscaler()->config().shedPolicy ==
                autoscale::ShedPolicy::Never,
            "the decode pool must not shed at the router (the "
            "bounded handoff queue is the shed point)");
    }
    if (prefillPool_->autoscaler() || decodePool_->autoscaler()) {
        context_.schedule(autoscale::kControlInterval,
                          [this](Tick tick) { controlTick(tick); });
    }
    context_.runToCompletion();
    LIGHTLLM_ASSERT(quiescent(),
                    "event queue ran dry with requests still in "
                    "flight");

    // Both pools' cost clocks stop at the end of service — the last
    // user-visible completion anywhere.
    const metrics::RunReport prefill_report =
        prefillPool_->finalizeReport(lastUserFinishTick_);
    const metrics::RunReport decode_report =
        decodePool_->finalizeReport(lastUserFinishTick_);
    return assembleReport(prefill_report, decode_report);
}

metrics::RunReport
DisaggCluster::assembleReport(
    const metrics::RunReport &prefill_report,
    const metrics::RunReport &decode_report)
{
    metrics::ReportMerger merger(
        "Disagg(P" + std::to_string(prefillPool_->numInstances()) +
        "+D" + std::to_string(decodePool_->numInstances()) + ")");
    merger.add(prefill_report);
    merger.add(decode_report);
    metrics::RunReport merged = merger.finish();

    // Reassemble end-to-end per-request records across the handoff.
    std::unordered_map<RequestId, const metrics::RequestRecord *>
        prefill_records;
    for (const auto &record : prefill_report.requests)
        prefill_records.emplace(record.id, &record);

    std::vector<metrics::RequestRecord> combined;
    combined.reserve(prefill_report.requests.size());
    for (const auto &decode : decode_report.requests) {
        const auto it = prefill_records.find(decode.id);
        LIGHTLLM_ASSERT(it != prefill_records.end(),
                        "decode-side record ", decode.id,
                        " without a prefill-side record");
        const metrics::RequestRecord &prefill = *it->second;
        metrics::RequestRecord record = prefill;
        record.outputTokens =
            prefill.outputTokens + decode.outputTokens;
        record.finish = decode.finish;
        // The migration gap (transfer + handoff wait + decode
        // admission + first decode step) is a real inter-token
        // stall the user observes: it competes with both pools'
        // internal gaps for the request's MTPOT.
        record.maxGap =
            std::max({prefill.maxGap, decode.maxGap,
                      decode.firstToken - prefill.firstToken});
        record.evictions = prefill.evictions + decode.evictions;
        combined.push_back(record);
        prefill_records.erase(it);
    }
    for (const auto &record : prefill_report.requests) {
        if (prefill_records.find(record.id) ==
            prefill_records.end()) {
            continue;  // paired above
        }
        // Dropped at the handoff: the user saw a rejection, not a
        // completion — no end-to-end record.
        if (shedIds_.find(record.id) != shedIds_.end())
            continue;
        combined.push_back(record);
    }
    merged.requests = std::move(combined);
    merged.numFinished = merged.requests.size();

    // Pool-level sums double-count the pipeline: offered is what
    // the users submitted, shed adds the handoff drops.
    merged.offeredRequests = offered_;
    merged.shedRequests = prefill_report.shedRequests +
        decode_report.shedRequests + handoffShed_;

    merged.disaggregated = true;
    const auto prefillDigest = prefill_report.latencyDigest();
    const auto decodeDigest = decode_report.latencyDigest();
    merged.prefillPool = metrics::RunReport::PoolStats{
        prefill_report.numFinished,
        prefillDigest.ttftPercentile(0.99),
        prefillDigest.mtpotPercentile(0.99)};
    merged.decodePool = metrics::RunReport::PoolStats{
        decode_report.numFinished,
        decodeDigest.ttftPercentile(0.99),
        decodeDigest.mtpotPercentile(0.99)};
    merged.handoffQueueP99Seconds =
        handoffWaits_.empty()
            ? 0.0
            : stats::percentile(handoffWaits_, 0.99);
    merged.migratedKvBytes = migratedKvBytesTotal_;
    merged.migratedRequests = migratedRequests_;
    merged.handoffShedRequests = handoffShed_;
    return merged;
}

} // namespace disagg
} // namespace lightllm
