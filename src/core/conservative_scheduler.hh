/**
 * @file
 * Conservative scheduler (TGI / DeepSpeed-MII style).
 *
 * Assumes every request — running or queued — will generate its full
 * max_new_tokens, and admits a queued request only when the sum of
 * worst-case footprints fits in (capacity * overcommit). With
 * overcommit = 1 this never evicts, at the cost of very low memory
 * utilisation and long queues; Table 1 also evaluates overcommit
 * ratios > 1, which trade queueing for evictions.
 */

#ifndef LIGHTLLM_CORE_CONSERVATIVE_SCHEDULER_HH
#define LIGHTLLM_CORE_CONSERVATIVE_SCHEDULER_HH

#include "core/scheduler.hh"

namespace lightllm {
namespace core {

/** Worst-case (max_new_tokens) admission policy. */
class ConservativeScheduler : public Scheduler
{
  public:
    /**
     * @param overcommit Capacity multiplier (1.0 = strict
     *        worst-case; 1.5 = the paper's "overcommit=150%").
     */
    explicit ConservativeScheduler(double overcommit = 1.0);

    void beginAdmissionRound(const SchedulerContext &ctx) override;

    bool tryAdmit(const WaitingView &candidate) override;

    /** The cap holds until the request reaches it (capPeek). */
    PredictionPeek peekWithHorizon(RequestSlot slot, RequestId id,
                                   TokenCount generated_len,
                                   TokenCount max_new_tokens) override;

    std::string name() const override;

  private:
    double overcommit_;

    // Admission-round state.
    TokenCount limit_ = 0;
    TokenCount committed_ = 0;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_CONSERVATIVE_SCHEDULER_HH
