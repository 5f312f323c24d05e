/**
 * @file
 * Preallocated single-writer ring buffer of trace events.
 *
 * Capacity is fixed at construction (--trace-limit); when a run
 * emits more events than fit, the oldest are overwritten and
 * counted as dropped, so a trace always holds the *most recent*
 * window of activity — the part that explains how a run ended.
 *
 * Threading contract (same as MetricsCollector, DESIGN.md §9): a
 * ring is written by exactly one shard thread and read only after
 * the run has quiesced, so it needs no synchronization and the push
 * path is a store plus two increments.
 */

#ifndef LIGHTLLM_TRACE_TRACE_RING_HH
#define LIGHTLLM_TRACE_TRACE_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace_event.hh"

namespace lightllm {
namespace trace {

/** Fixed-capacity overwrite-oldest event buffer. */
class TraceRing
{
  public:
    /** @param capacity Maximum retained events (> 0). */
    explicit TraceRing(std::size_t capacity)
        : events_(capacity)
    {
    }

    /** Record one event (overwrites the oldest when full). */
    void push(const TraceEvent &event)
    {
        events_[head_] = event;
        head_ = head_ + 1 == events_.size() ? 0 : head_ + 1;
        if (size_ < events_.size())
            ++size_;
        else
            ++dropped_;
    }

    /** Retained events (≤ capacity). */
    std::size_t size() const { return size_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * The i-th retained event in recording order (0 = oldest
     * survivor). Valid only after the writer has quiesced.
     */
    const TraceEvent &at(std::size_t i) const
    {
        std::size_t start =
            size_ < events_.size() ? 0 : head_;
        std::size_t index = start + i;
        if (index >= events_.size())
            index -= events_.size();
        return events_[index];
    }

  private:
    std::vector<TraceEvent> events_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace trace
} // namespace lightllm

#endif // LIGHTLLM_TRACE_TRACE_RING_HH
