/**
 * @file
 * Oracle scheduler — the paper's "theoretical optimum".
 *
 * Identical future-required-memory admission logic to the
 * Past-Future scheduler, but with ground-truth output lengths in
 * place of sampled predictions and no reserved margin. It is
 * impossible in a real service (output lengths are unknown) and
 * exists purely as the upper bound rows of Table 1 / the optimum
 * point of Figure 8.
 */

#ifndef LIGHTLLM_CORE_ORACLE_SCHEDULER_HH
#define LIGHTLLM_CORE_ORACLE_SCHEDULER_HH

#include <vector>

#include "core/future_memory.hh"
#include "core/scheduler.hh"

namespace lightllm {
namespace core {

/** Future-memory admission with perfect output-length knowledge. */
class OracleScheduler : public Scheduler
{
  public:
    OracleScheduler() = default;

    void beginAdmissionRound(const SchedulerContext &ctx) override;

    bool tryAdmit(const WaitingView &candidate) override;

    /** The cap holds until the request reaches it (capPeek). */
    PredictionPeek peekWithHorizon(RequestSlot slot, RequestId id,
                                   TokenCount generated_len,
                                   TokenCount max_new_tokens) override;

    std::string name() const override;

  private:
    /** Running batch plus this round's admissions, in Eq. 2 order. */
    std::vector<BatchEntry> entries_;

    // Admission-round state.
    TokenCount capacity_ = 0;
    TokenCount perRequestOverhead_ = 0;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_ORACLE_SCHEDULER_HH
