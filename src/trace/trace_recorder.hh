/**
 * @file
 * The flight recorder: per-engine and per-shard trace sinks plus
 * Perfetto/CSV export.
 *
 * A TraceRecorder owns one ring buffer per attached engine (request
 * lifecycle + step telemetry) and per co-sim shard (profiler
 * samples). Sinks are created on the coordinator thread before (or
 * between) simulation windows and then written lock-free by their
 * owning shard thread; export runs after the run has quiesced.
 *
 * Tracing is read-only by contract: sinks observe engine state but
 * never feed anything back, so a traced run's RunReport is
 * byte-identical to an untraced one (pinned by test_trace). Track
 * identity is simulation-stable — pid is the engine's attachment
 * order and tid is the request id — so traces are also identical
 * across `--sim-threads` settings (wall-clock shard samples live in
 * a separate pseudo-process and only exist at detail=full).
 */

#ifndef LIGHTLLM_TRACE_TRACE_RECORDER_HH
#define LIGHTLLM_TRACE_TRACE_RECORDER_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>

#include "base/types.hh"
#include "trace/trace_event.hh"
#include "trace/trace_ring.hh"

namespace lightllm {
namespace trace {

/** Recorder tunables (CLI: --trace-detail / --trace-limit). */
struct TraceConfig
{
    TraceDetail detail = TraceDetail::Off;

    /** Ring capacity per sink, in events. */
    std::size_t ringCapacity = 1 << 16;
};

/**
 * Per-engine trace sink. Written only by the shard thread that owns
 * the engine; all methods are trivial stores into the ring.
 */
class EngineTrace
{
  public:
    EngineTrace(std::int32_t pid, std::string label,
                TraceDetail detail, std::size_t capacity)
        : ring_(capacity), label_(std::move(label)), pid_(pid),
          detail_(detail)
    {
    }

    /** Step-level telemetry (counters, admission rounds) on? */
    bool stepsEnabled() const
    {
        return detail_ >= TraceDetail::Steps;
    }

    /** Open a lifecycle span on request `id`'s track. */
    void begin(TraceName name, RequestId id, Tick tick,
               std::int64_t a0 = 0, std::int64_t a1 = 0,
               std::int64_t a2 = 0)
    {
        ring_.push(TraceEvent{tick, id, a0, a1, a2, name,
                              TracePhase::Begin});
    }

    /** Close the span opened with the same name on `id`'s track. */
    void end(TraceName name, RequestId id, Tick tick,
             std::int64_t a0 = 0, std::int64_t a1 = 0,
             std::int64_t a2 = 0)
    {
        ring_.push(TraceEvent{tick, id, a0, a1, a2, name,
                              TracePhase::End});
    }

    /** Point event on request `id`'s track (or the engine track
     *  when id is kInvalidRequestId). */
    void instant(TraceName name, RequestId id, Tick tick,
                 std::int64_t a0 = 0, std::int64_t a1 = 0,
                 std::int64_t a2 = 0)
    {
        ring_.push(TraceEvent{tick, id, a0, a1, a2, name,
                              TracePhase::Instant});
    }

    /** Sampled counter on the engine track. */
    void counter(TraceName name, Tick tick, std::int64_t value)
    {
        ring_.push(TraceEvent{tick, kInvalidRequestId, value, 0, 0,
                              name, TracePhase::Counter});
    }

    const TraceRing &ring() const { return ring_; }
    std::int32_t pid() const { return pid_; }
    const std::string &label() const { return label_; }

  private:
    TraceRing ring_;
    std::string label_;
    std::int32_t pid_;
    TraceDetail detail_;
};

/**
 * Per-shard profiler sink for the sharded co-sim (detail=full):
 * wall-clock compute vs barrier-wait per window, mailbox commit
 * counts. Written only by the owning worker thread (the coordinator
 * sink only by the coordinator).
 */
class ShardTrace
{
  public:
    ShardTrace(std::int32_t tid, std::string label,
               std::size_t capacity)
        : ring_(capacity), label_(std::move(label)), tid_(tid)
    {
    }

    /** Profiler sample: tick is simulation time, args wall-clock. */
    void sample(TraceName name, Tick tick, std::int64_t a0 = 0,
                std::int64_t a1 = 0, std::int64_t a2 = 0)
    {
        ring_.push(TraceEvent{tick, kInvalidRequestId, a0, a1, a2,
                              name, TracePhase::Instant});
    }

    const TraceRing &ring() const { return ring_; }
    std::int32_t tid() const { return tid_; }
    const std::string &label() const { return label_; }

  private:
    TraceRing ring_;
    std::string label_;
    std::int32_t tid_;
};

/** Owner of all trace sinks for one run, and the export entry. */
class TraceRecorder
{
  public:
    explicit TraceRecorder(TraceConfig config);

    /**
     * Attach a new engine sink; pid is assigned in call order
     * (deterministic: engines are created/adopted only on the
     * coordinator thread). Pointer stays valid for the recorder's
     * lifetime. Returns nullptr at detail=off.
     */
    EngineTrace *createEngine(std::string label);

    /**
     * Attach a shard-profiler sink (tid in call order; create the
     * coordinator's first, then one per shard). Returns nullptr
     * below detail=full.
     */
    ShardTrace *createShard(std::string label);

    const std::deque<EngineTrace> &engines() const
    {
        return engines_;
    }
    const std::deque<ShardTrace> &shards() const { return shards_; }

    /** Events dropped across all rings (ring wraparound). */
    std::uint64_t totalDropped() const;

    // --- Export (trace_export.cc); run must have quiesced. ----------

    /** Chrome trace-event JSON, loadable in Perfetto. */
    void writeChromeJson(std::ostream &os) const;

    /** Per-request timeline CSV (one row per observed request). */
    void writeRequestCsv(std::ostream &os) const;

    /** File variants; return false when the file cannot be opened. */
    bool writeChromeJsonFile(const std::string &path) const;
    bool writeRequestCsvFile(const std::string &path) const;

  private:
    TraceConfig config_;

    // Deques: sink pointers handed to engines/shards must survive
    // later attachments (autoscale provisions engines mid-run).
    std::deque<EngineTrace> engines_;
    std::deque<ShardTrace> shards_;
};

} // namespace trace
} // namespace lightllm

#endif // LIGHTLLM_TRACE_TRACE_RECORDER_HH
