#include "engine/prediction_audit.hh"

#include <algorithm>
#include <initializer_list>

#include "base/logging.hh"

namespace lightllm {
namespace engine {

void
PredictionAudit::slide(const EngineRequest &request)
{
    // The carried entries lag their requests' lengths by one shared
    // amount, which leaves every M_i unchanged, while each l_hat is
    // absolute: the moved entry takes its new one and slides.
    std::vector<core::BatchEntry> &entries = predicted_.entries;
    std::vector<Member> &members = predicted_.members;
    LIGHTLLM_ASSERT(!rescanPending(),
                    "audit slide with a rescan pending");
    if (!positionValid_) {
        for (std::size_t p = 0; p < members.size(); ++p) {
            const std::size_t slab = slotIndex(members[p].slot);
            if (slab >= position_.size())
                position_.resize(slab + 1);
            position_[slab] = static_cast<std::uint32_t>(p);
        }
        positionValid_ = true;
    }
    const std::size_t at = position_[slotIndex(request.slot)];
    LIGHTLLM_ASSERT(members[at].slot == request.slot,
                    "audit slide of a request outside the batch");
    entries[at].predictedOutputLen = request.predicted;
    core::slideToOrder(std::span<core::BatchEntry>(entries),
                       std::span<Member>(members), at,
                       [this](const Member &tag, std::size_t i) {
                           position_[slotIndex(tag.slot)] =
                               static_cast<std::uint32_t>(i);
                       });
    slid_ = true;
}

std::pair<TokenCount, TokenCount>
PredictionAudit::step(std::span<EngineRequest *const> running,
                      std::span<EngineRequest *const> pending,
                      TokenCount ahead)
{
    // While the membership holds and every member decodes, the step
    // just taken added one token to every member: P_i + i * r_i is
    // unchanged for every i (DESIGN.md §8), so both carried peaks
    // still hold unless a prediction moved.
    if (membersChanged_ || !pending.empty()) {
        carry(running, pending);
        rescan(true_, ahead, [](const EngineRequest &request) {
            return request.targetOutput();
        });
        membersChanged_ = false;
        predictionChanged_ = true;
    }
    if (predictionChanged_) {
        rescan(predicted_, ahead, [](const EngineRequest &request) {
            return request.predicted;
        });
        positionValid_ = false;
    } else if (slid_) {
        predicted_.peak = core::sortedPeak(predicted_.entries);
    }
    predictionChanged_ = false;
    slid_ = false;
    return {true_.peak, predicted_.peak};
}

void
PredictionAudit::carry(std::span<EngineRequest *const> running,
                       std::span<EngineRequest *const> pending)
{
    // A carried entry survives only if its request carries this
    // carry's `member` mark and still holds the slot it joined with
    // (a recycled slab entry serving a newer request does not); it
    // flips the mark to `kept`, so no member is carried twice. Both
    // batches always hold the same members.
    const std::uint64_t member = ++epoch_;
    const std::uint64_t kept = ++epoch_;
    const auto batch = {running, pending};
    for (const std::span<EngineRequest *const> list : batch) {
        for (EngineRequest *request : list)
            request->auditMark = member;
    }
    std::erase_if(true_.members, [&](const Member &carried) {
        EngineRequest *request = carried.request;
        if (request->auditMark != member ||
            request->slot != carried.slot) {
            return true;
        }
        request->auditMark = kept;
        return false;
    });
    std::erase_if(predicted_.members, [&](const Member &carried) {
        return carried.request->auditMark != kept ||
            carried.request->slot != carried.slot;
    });
    for (const std::span<EngineRequest *const> list : batch) {
        for (EngineRequest *request : list) {
            if (request->auditMark == kept)
                continue;
            request->auditMark = kept;
            true_.members.push_back({request, request->slot});
            predicted_.members.push_back({request, request->slot});
        }
    }
}

template <typename Target>
void
PredictionAudit::rescan(Batch &batch, TokenCount ahead, Target target)
{
    batch.entries.clear();
    for (const Member &member : batch.members) {
        const EngineRequest &request = *member.request;
        batch.entries.push_back(core::BatchEntry{
            request.spec.inputLen - request.cachedPrefix,
            request.generated,
            std::max(target(request), request.generated + ahead)});
    }
    core::restoreRemainingOrder(
        std::span<core::BatchEntry>(batch.entries),
        std::span<Member>(batch.members));
    batch.peak = core::sortedPeak(batch.entries);
}

} // namespace engine
} // namespace lightllm
