#include "core/scheduling_decision.hh"

#include <unordered_set>

namespace lightllm {
namespace core {

std::string
validateDecision(const SchedulingDecision &decision,
                 const SchedulerContext &ctx)
{
    // Saturated engines produce empty decisions most iterations;
    // skip the membership sets entirely then.
    if (decision.admit.empty())
        return "";

    std::unordered_set<RequestId> waiting_ids;
    waiting_ids.reserve(ctx.waiting.size());
    for (const auto &view : ctx.waiting)
        waiting_ids.insert(view.id);

    std::unordered_set<RequestId> seen;
    seen.reserve(decision.admit.size());
    for (RequestId id : decision.admit) {
        if (!waiting_ids.contains(id)) {
            return "admit id " + std::to_string(id) +
                " is not in the waiting queue";
        }
        if (!seen.insert(id).second) {
            return "admit id " + std::to_string(id) +
                " appears more than once";
        }
    }
    return "";
}

} // namespace core
} // namespace lightllm
