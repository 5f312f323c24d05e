#include "trace/trace_recorder.hh"

#include <iterator>

#include "base/logging.hh"

namespace lightllm {
namespace trace {

namespace {

/** One row per TraceName, in declaration order: the event's export
 *  name and the keys of its three argument slots (nullptr = slot
 *  unused). */
struct NameRow
{
    const char *name;
    const char *args[3];
};

constexpr NameRow kNames[] = {
    {"queued", {"input_len", "predicted_output", "true_output"}},
    {"prefill", {"prefill_tokens", "cached_prefix", "kv_used"}},
    {"decode", {"generated", nullptr, nullptr}},
    {"admit", {"predicted_output", "true_output", "queue_wait_us"}},
    {"evict", {"cause", "generated", "eviction_no"}},
    {"swap_out", {"tokens", nullptr, nullptr}},
    {"swap_in", {"tokens", nullptr, nullptr}},
    {"chunk", {"chunk_tokens", "remaining_prompt", nullptr}},
    {"migrated", {"migrated_prefix", nullptr, nullptr}},
    {"finish", {"generated", "predicted_output", "evictions"}},
    {"drained", {nullptr, nullptr, nullptr}},
    {"admission_round", {"admitted", "evicted", "queue_depth"}},
    {"batch_size", {"value", nullptr, nullptr}},
    {"kv_used", {"value", nullptr, nullptr}},
    {"kv_future_true", {"value", nullptr, nullptr}},
    {"kv_future_pred", {"value", nullptr, nullptr}},
    {"queue_depth", {"value", nullptr, nullptr}},
    {"shard_window", {"window_end_us", "staged_steps", "window_no"}},
    {"shard_compute", {"steps", "compute_ns", "window_no"}},
    {"shard_barrier", {"wait_ns", "window_no", nullptr}},
    {"mailbox_commit", {"commits", "window_no", nullptr}},
};
static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(TraceName::MailboxCommit) + 1,
              "one row per TraceName");

} // namespace

const char *
traceName(TraceName name)
{
    return kNames[static_cast<std::size_t>(name)].name;
}

const char *
traceArgKey(TraceName name, int slot)
{
    return kNames[static_cast<std::size_t>(name)].args[slot];
}

TraceRecorder::TraceRecorder(TraceConfig config)
    : config_(config)
{
    LIGHTLLM_ASSERT(config_.ringCapacity > 0,
                    "trace ring capacity must be positive");
}

EngineTrace *
TraceRecorder::createEngine(std::string label)
{
    if (config_.detail == TraceDetail::Off)
        return nullptr;
    const auto pid =
        static_cast<std::int32_t>(engines_.size() + 1);
    engines_.emplace_back(pid, std::move(label), config_.detail,
                          config_.ringCapacity);
    return &engines_.back();
}

ShardTrace *
TraceRecorder::createShard(std::string label)
{
    if (config_.detail < TraceDetail::Full)
        return nullptr;
    const auto tid = static_cast<std::int32_t>(shards_.size());
    shards_.emplace_back(tid, std::move(label),
                         config_.ringCapacity);
    return &shards_.back();
}

std::uint64_t
TraceRecorder::totalDropped() const
{
    std::uint64_t dropped = 0;
    for (const auto &engine : engines_)
        dropped += engine.ring().dropped();
    for (const auto &shard : shards_)
        dropped += shard.ring().dropped();
    return dropped;
}

} // namespace trace
} // namespace lightllm
