/**
 * @file
 * The serving engine's one observation seam (DESIGN.md §8, §10).
 *
 * ServingEngine reports each event once, here. The observer hands it
 * to the sinks that count it: the MetricsCollector, which every run
 * has, and the flight recorder's EngineTrace when one is attached.
 * Only this class writes the trace's event names and argument slots.
 * It is concrete: with tracing off, an event only the trace records
 * costs one inline null test, and no event calls through a virtual
 * or std::function or allocates.
 */

#ifndef LIGHTLLM_ENGINE_ENGINE_OBSERVER_HH
#define LIGHTLLM_ENGINE_ENGINE_OBSERVER_HH

#include <cstdint>
#include <string>
#include <utility>

#include "base/types.hh"
#include "core/scheduling_policy.hh"
#include "engine/engine_request.hh"
#include "metrics/collector.hh"
#include "metrics/report.hh"
#include "trace/trace_recorder.hh"

namespace lightllm {
namespace engine {

/** The collector plus the optional trace sink of one engine. */
class EngineObserver
{
    using Name = trace::TraceName;

  public:
    /** `policy` answers the prediction peeks of the trace's queue,
     *  admit and finish events, made only while a sink is attached
     *  (a peek consumes no RNG and changes no state). */
    EngineObserver(TokenCount capacity_tokens,
                   core::SchedulingPolicy &policy)
        : collector_(capacity_tokens), policy_(policy)
    {
    }

    /** Attach a trace sink; nullptr detaches. */
    void
    attach(trace::EngineTrace *sink)
    {
        trace_ = sink;
        steps_ = sink != nullptr && sink->stepsEnabled();
    }

    /** `request` (re)joined the wait queue at `at`. */
    void
    queued(const EngineRequest &request, Tick at)
    {
        if (trace_ != nullptr) {
            trace_->begin(Name::Queued, request.spec.id, at,
                          request.spec.inputLen, peek(request),
                          request.spec.effectiveOutputLen());
        }
    }

    /** An admission found `hit` of its `prompt` tokens cached. */
    void
    prefixLookup(TokenCount prompt, TokenCount hit)
    {
        collector_.onPrefixLookup(prompt, hit);
    }

    /** `request` left the queue for its prefill, `kv_used` tokens
     *  allocated after its admission. */
    void
    admitted(const EngineRequest &request, Tick now, TokenCount kv_used)
    {
        if (trace_ == nullptr)
            return;
        const RequestId id = request.spec.id;
        trace_->end(Name::Queued, id, now);
        trace_->instant(Name::Admit, id, now, peek(request),
                        request.spec.effectiveOutputLen(),
                        now - request.arrival);
        trace_->begin(Name::Prefill, id, now, request.remainingPrompt,
                      request.cachedPrefix, kv_used);
    }

    /** An admission round ended, `waiting` requests still queued.
     *  The schema's `evicted` arg stays 0: rounds only admit. */
    void
    admissionRound(Tick now, std::size_t admitted, std::size_t waiting)
    {
        if (steps_) {
            trace_->instant(Name::AdmissionRound, kInvalidRequestId, now,
                            static_cast<std::int64_t>(admitted), 0,
                            static_cast<std::int64_t>(waiting));
        }
    }

    /** A prefill iteration, or a step's chunk, took `tokens`. */
    void prefill(TokenCount tokens) { collector_.onPrefill(tokens); }

    /** A fused step took `taken` of `request`'s prompt tokens. */
    void
    chunk(const EngineRequest &request, Tick now, TokenCount taken)
    {
        if (steps_) {
            trace_->instant(Name::Chunk, request.spec.id, now, taken,
                            request.remainingPrompt);
        }
    }

    /** `request`'s prefill span closed; it joined the batch. */
    void
    decoding(const EngineRequest &request, Tick now)
    {
        if (trace_ != nullptr) {
            trace_->end(Name::Prefill, request.spec.id, now);
            trace_->begin(Name::Decode, request.spec.id, now,
                          request.generated);
        }
    }

    /** `request` joined with its prompt's KV migrated in. */
    void
    migrated(const EngineRequest &request, Tick now)
    {
        if (trace_ != nullptr) {
            trace_->instant(Name::Migrated, request.spec.id, now,
                            request.spec.migratedPrefix);
        }
    }

    /** A decode step over `batch` members holding `used` tokens,
     *  ending at `now` with `waiting` requests queued; `future` is
     *  the audit's true and predicted M*. */
    void
    step(std::int64_t batch, TokenCount used,
         std::pair<TokenCount, TokenCount> future, Tick duration,
         Tick now, std::size_t waiting)
    {
        collector_.onDecodeStep(batch, used, future.first,
                                future.second, duration);
        if (!steps_)
            return;
        trace_->counter(Name::BatchSize, now, batch);
        trace_->counter(Name::KvUsed, now, used);
        trace_->counter(Name::KvFutureTrue, now, future.first);
        trace_->counter(Name::KvFuturePred, now, future.second);
        trace_->counter(Name::QueueDepth, now,
                        static_cast<std::int64_t>(waiting));
    }

    /** A step could not grow, so `victim` left the batch for the
     *  queue front, releasing `tokens` of KV. A swap-mode victim is
     *  swappedOut. */
    void evicted(const EngineRequest &victim, Tick now,
                 TokenCount tokens);

    /** `request`'s `tokens` of KV came back from the host. */
    void swappedIn(const EngineRequest &request, Tick now,
                   TokenCount tokens);

    /** `request` finished with its prefill's token, or with a
     *  decode step's: its open span closes. */
    void
    prefillEnded(const EngineRequest &request, Tick now)
    {
        if (trace_ != nullptr)
            trace_->end(Name::Prefill, request.spec.id, now);
    }
    void
    decodeEnded(const EngineRequest &request, Tick now)
    {
        if (trace_ != nullptr) {
            trace_->end(Name::Decode, request.spec.id, now,
                        request.generated);
        }
    }

    /** `request` completed as `record`, before the policy forgets
     *  it (the trace peeks the prediction it ran under). */
    void finished(const EngineRequest &request,
                  const metrics::RequestRecord &record);

    /** A never-admitted `request` left the queue at `at`. */
    void
    drained(const EngineRequest &request, Tick at)
    {
        if (trace_ != nullptr) {
            trace_->end(Name::Queued, request.spec.id, at);
            trace_->instant(Name::Drained, request.spec.id, at);
        }
    }

    /** The warm-up requests finished: measure from `now`. */
    void warmupEnded(Tick now) { collector_.resetMeasurement(now); }

    /** The report of the run so far, ending at `makespan`. */
    metrics::RunReport
    report(std::string scheduler_name, Tick makespan)
    {
        return collector_.finish(std::move(scheduler_name), makespan);
    }

  private:
    /** The policy's prediction for `request` as it stands. */
    TokenCount
    peek(const EngineRequest &request)
    {
        return policy_
            .peekWithHorizon(request.slot, request.spec.id,
                             request.generated,
                             request.spec.maxNewTokens)
            .predicted;
    }

    metrics::MetricsCollector collector_;
    core::SchedulingPolicy &policy_;

    /** Null (the default): tracing off. `steps_`: the sink takes
     *  step-level telemetry (counters, rounds, chunks). */
    trace::EngineTrace *trace_ = nullptr;
    bool steps_ = false;
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_ENGINE_OBSERVER_HH
