#include "engine/engine_observer.hh"

namespace lightllm {
namespace engine {

void
EngineObserver::evicted(const EngineRequest &victim, Tick now,
                        TokenCount tokens)
{
    collector_.onEviction(victim.evictions == 1);
    if (trace_ != nullptr) {
        const RequestId id = victim.spec.id;
        const auto cause =
            static_cast<std::int64_t>(trace::EvictCause::Reactive);
        trace_->end(Name::Decode, id, now, victim.generated);
        trace_->instant(Name::Evict, id, now, cause, victim.generated,
                        victim.evictions);
        if (victim.swappedOut)
            trace_->instant(Name::SwapOut, id, now, tokens);
        queued(victim, now);
    }
    if (victim.swappedOut)
        collector_.onSwap(tokens);
}

void
EngineObserver::swappedIn(const EngineRequest &request, Tick now,
                          TokenCount tokens)
{
    collector_.onSwap(tokens);
    if (trace_ != nullptr)
        trace_->instant(Name::SwapIn, request.spec.id, now, tokens);
}

void
EngineObserver::finished(const EngineRequest &request,
                         const metrics::RequestRecord &record)
{
    if (trace_ != nullptr) {
        trace_->instant(Name::Finish, record.id, record.finish,
                        record.outputTokens, peek(request),
                        record.evictions);
    }
    collector_.onRequestFinished(record);
}

} // namespace engine
} // namespace lightllm
