#include "autoscale/slo_monitor.hh"

#include "base/logging.hh"

namespace lightllm {
namespace autoscale {

SloMonitor::SloMonitor(metrics::SlaSpec sla, Tick window)
    : sla_(sla), window_(window)
{
    LIGHTLLM_ASSERT(window_ > 0, "monitor window must be positive");
    LIGHTLLM_ASSERT(sla_.ttftLimit > 0 && sla_.mtpotLimit > 0,
                    "monitor needs positive SLA limits");
}

void
SloMonitor::observe(const metrics::RequestRecord &record)
{
    LIGHTLLM_ASSERT(samples_.empty() ||
                        record.finish >= samples_.back().finish,
                    "completions must arrive in time order");
    const bool compliant = record.ttft() < sla_.ttftLimit &&
        record.maxGap < sla_.mtpotLimit;
    samples_.push_back(Sample{record.finish, compliant});
    compliant_ += compliant ? 1 : 0;
}

SloStats
SloMonitor::stats(Tick now)
{
    // Drop the samples that fell out of the window ending at `now`.
    while (!samples_.empty() &&
           samples_.front().finish < now - window_) {
        compliant_ -= samples_.front().compliant ? 1 : 0;
        samples_.pop_front();
    }

    SloStats out;
    out.samples = samples_.size();
    if (out.samples > 0) {
        out.attainment = static_cast<double>(compliant_) /
            static_cast<double>(out.samples);
    }
    return out;
}

} // namespace autoscale
} // namespace lightllm
