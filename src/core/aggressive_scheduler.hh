/**
 * @file
 * Aggressive scheduler (vLLM style).
 *
 * Ignores future output growth entirely: a queued request is
 * admitted whenever its *current* footprint (prompt + any already
 * generated tokens) fits under a memory watermark. Utilisation is
 * high, but on decode-heavy workloads the running batch outgrows
 * memory and requests must be evicted and recomputed — the paper's
 * Table 1 measures up to 93.7% evicted requests at watermark=99%.
 */

#ifndef LIGHTLLM_CORE_AGGRESSIVE_SCHEDULER_HH
#define LIGHTLLM_CORE_AGGRESSIVE_SCHEDULER_HH

#include "core/scheduler.hh"

namespace lightllm {
namespace core {

/** Input-length-only admission policy under a memory watermark. */
class AggressiveScheduler : public Scheduler
{
  public:
    /**
     * @param watermark Fraction of capacity the current footprint
     *        may reach after admission (the paper evaluates 0.90,
     *        0.95 and 0.99).
     */
    explicit AggressiveScheduler(double watermark = 0.95);

    void beginAdmissionRound(const SchedulerContext &ctx) override;

    bool tryAdmit(const WaitingView &candidate) override;

    /** The cap holds until the request reaches it (capPeek). */
    PredictionPeek peekWithHorizon(RequestSlot slot, RequestId id,
                                   TokenCount generated_len,
                                   TokenCount max_new_tokens) override;

    std::string name() const override;

  private:
    double watermark_;

    // Admission-round state.
    TokenCount limit_ = 0;
    TokenCount used_ = 0;
};

} // namespace core
} // namespace lightllm

#endif // LIGHTLLM_CORE_AGGRESSIVE_SCHEDULER_HH
