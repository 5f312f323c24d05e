/**
 * @file
 * The engine's prediction audit (DESIGN.md §8): each decode step's
 * true and predicted peak future memory M* (Eq. 2-4) of the batch,
 * from the true output lengths and from the members' cached
 * predictions. A uniform decode step leaves every Eq. 3 term
 * invariant, so both batches are carried across steps in Eq. 2 order
 * and rescanned only after the membership changed or while a member
 * is prefill-pending, the predicted one also after a prediction
 * changed. The engine flags those changes and makes the peeks.
 */

#ifndef LIGHTLLM_ENGINE_PREDICTION_AUDIT_HH
#define LIGHTLLM_ENGINE_PREDICTION_AUDIT_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "core/future_memory.hh"
#include "engine/engine_request.hh"

namespace lightllm {
namespace engine {

/** The carried true and predicted audit batches. */
class PredictionAudit
{
  public:
    /** A join, a departure, or a pending member starting to decode. */
    void membersChanged() { membersChanged_ = true; }

    /** A member's cached prediction changed. */
    void predictionChanged() { predictionChanged_ = true; }

    /** True when the next step() rescans the predicted batch. */
    bool
    rescanPending() const
    {
        return membersChanged_ || predictionChanged_;
    }

    /** `request`'s prediction moved with no rescan pending (a
     *  decode-run lapse): its carried entry takes the new l_hat and
     *  slides to its Eq. 2 slot; the next step() rescores in one
     *  scan. */
    void slide(const EngineRequest &request);

    /**
     * This step's true and predicted M* over `running` plus the
     * prefill-pending `pending`. Every decoding member's `generated`
     * lags by `ahead` steps (a decode run's unsynced steps): rescans
     * score the batch in that lagging frame, which shifts every
     * Eq. 3 term's two parts by opposite amounts.
     */
    std::pair<TokenCount, TokenCount>
    step(std::span<EngineRequest *const> running,
         std::span<EngineRequest *const> pending, TokenCount ahead);

  private:
    /** A carried member and the slot it joined with (a slab entry a
     *  later request took over no longer matches). */
    struct Member
    {
        EngineRequest *request = nullptr;
        RequestSlot slot = kInvalidSlot;
    };

    /** A batch in its last Eq. 2 order (members[i] is the request
     *  entries[i] describes), with the M* of its last scan. */
    struct Batch
    {
        std::vector<Member> members;
        std::vector<core::BatchEntry> entries;
        TokenCount peak = 0;
    };

    /** Bring both batches up to running + pending: drop requests
     *  that left, append requests that joined, keep survivors in
     *  their carried order. */
    void carry(std::span<EngineRequest *const> running,
               std::span<EngineRequest *const> pending);

    /** Rewrite `batch`'s entries from its members (l_hat
     *  max(target, generated + ahead)), restore Eq. 2 order by
     *  insertion sort, then one scan. */
    template <typename Target>
    static void rescan(Batch &batch, TokenCount ahead, Target target);

    Batch true_;
    Batch predicted_;

    /** Index of each predicted entry by its request's slab index;
     *  rebuilt on the first slide after a rescan. */
    std::vector<std::uint32_t> position_;
    bool positionValid_ = false;

    /** Source of membership marks (two per carry). */
    std::uint64_t epoch_ = 0;
    bool membersChanged_ = true;
    bool predictionChanged_ = true;
    bool slid_ = false;
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_PREDICTION_AUDIT_HH
