#include "core/scheduler_factory.hh"

#include "base/logging.hh"
#include "core/aggressive_scheduler.hh"
#include "core/conservative_scheduler.hh"
#include "core/oracle_scheduler.hh"

namespace lightllm {
namespace core {

SchedulerConfig
SchedulerConfig::conservative(double overcommit)
{
    SchedulerConfig config;
    config.kind = SchedulerKind::Conservative;
    config.overcommit = overcommit;
    return config;
}

SchedulerConfig
SchedulerConfig::aggressive(double watermark)
{
    SchedulerConfig config;
    config.kind = SchedulerKind::Aggressive;
    config.watermark = watermark;
    return config;
}

SchedulerConfig
SchedulerConfig::pastFutureDefault(double reserved_ratio)
{
    SchedulerConfig config;
    config.kind = SchedulerKind::PastFuture;
    config.pastFuture.reservedRatio = reserved_ratio;
    return config;
}

SchedulerConfig
SchedulerConfig::oracle()
{
    SchedulerConfig config;
    config.kind = SchedulerKind::Oracle;
    return config;
}

std::unique_ptr<Scheduler>
makeScheduler(const SchedulerConfig &config)
{
    switch (config.kind) {
      case SchedulerKind::Conservative:
        return std::make_unique<ConservativeScheduler>(
            config.overcommit);
      case SchedulerKind::Aggressive:
        return std::make_unique<AggressiveScheduler>(
            config.watermark);
      case SchedulerKind::PastFuture:
        return std::make_unique<PastFutureScheduler>(
            config.pastFuture);
      case SchedulerKind::Oracle:
        return std::make_unique<OracleScheduler>();
    }
    panic("unknown scheduler kind");
}

std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const SchedulerConfig &config)
{
    if (config.tenantTree) {
        return std::make_unique<SchedulingPolicy>(
            makeScheduler(config), config.tenantSpec, config.queue);
    }
    return std::make_unique<SchedulingPolicy>(
        makeScheduler(config), makeQueuePolicy(config.queue));
}

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Conservative:
        return "conservative";
      case SchedulerKind::Aggressive:
        return "aggressive";
      case SchedulerKind::PastFuture:
        return "past-future";
      case SchedulerKind::Oracle:
        return "oracle";
    }
    return "unknown";
}

} // namespace core
} // namespace lightllm
