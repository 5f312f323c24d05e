/**
 * @file
 * Flight-recorder event vocabulary.
 *
 * A TraceEvent is a fixed-size POD stamped into a per-engine or
 * per-shard ring buffer on the simulation hot path; everything
 * string-like (event names, argument keys) is an enum resolved to
 * text only at export time. The vocabulary mirrors the Chrome
 * trace-event format so export is a direct mapping:
 *
 *   - Span (ph "B"/"E"): request lifecycle phases. Each request
 *     occupies its own Perfetto track (tid = request id + 1), and
 *     its phases are sequential (queued → prefill → decode, with
 *     eviction looping back to queued), so at most one span is open
 *     per track at any time.
 *   - Instant (ph "i"): point decisions — admission outcome,
 *     eviction (with cause), swap, migration, finish.
 *   - Counter (ph "C"): per-iteration engine telemetry on the
 *     engine's own track (tid 0) — batch size, KV used, true and
 *     predicted future-required memory, queue depth.
 *
 * See DESIGN.md §10 for the full taxonomy and the read-only
 * invariant that keeps traced runs byte-identical to untraced ones.
 */

#ifndef LIGHTLLM_TRACE_TRACE_EVENT_HH
#define LIGHTLLM_TRACE_TRACE_EVENT_HH

#include <cstdint>

#include "base/types.hh"

namespace lightllm {
namespace trace {

/**
 * How much the recorder captures. Each level is a superset of the
 * previous one; Off means no recorder is attached at all and every
 * hook compiles down to one branch on a null pointer.
 */
enum class TraceDetail : std::uint8_t
{
    Off,

    /** Per-request lifecycle spans and decision instants. */
    Requests,

    /** + per-iteration engine counters and admission-round
     *  outcomes. */
    Steps,

    /** + per-shard profiler samples (wall-clock compute vs
     *  barrier-wait, mailbox commits) for the sharded co-sim. */
    Full,
};

/** Chrome trace-event phase of an event. */
enum class TracePhase : std::uint8_t
{
    Begin,   ///< ph "B" — span open
    End,     ///< ph "E" — span close
    Instant, ///< ph "i" — point event
    Counter, ///< ph "C" — sampled value
};

/** Event name (resolved to text at export time). */
enum class TraceName : std::uint8_t
{
    // Request lifecycle spans (tid = request id + 1).
    Queued,
    Prefill,
    Decode,

    // Request decision instants.
    Admit,
    Evict,
    SwapOut,
    SwapIn,
    Chunk,
    Migrated,
    Finish,
    Drained,

    // Engine-track (tid 0) telemetry.
    AdmissionRound,
    BatchSize,
    KvUsed,
    KvFutureTrue,
    KvFuturePred,
    QueueDepth,

    // Shard-profiler samples (shards pseudo-process, pid 0).
    ShardWindow,
    ShardCompute,
    ShardBarrier,
    MailboxCommit,
};

/** Export-time display name of an event. */
const char *traceName(TraceName name);

/**
 * Export-time argument key of event `name`'s arg<slot>, or nullptr
 * when the event carries fewer than slot+1 arguments.
 */
const char *traceArgKey(TraceName name, int slot);

/**
 * One recorded event. POD, fixed size, stamped by value into the
 * ring — recording never touches the allocator.
 */
struct TraceEvent
{
    /** Simulation tick (µs — maps 1:1 onto Chrome's ts field). */
    Tick tick = 0;

    /** Request this event belongs to; kInvalidRequestId puts the
     *  event on the engine's own track (tid 0). */
    RequestId id = kInvalidRequestId;

    /** Per-name arguments (see traceArgKey). */
    std::int64_t arg0 = 0;
    std::int64_t arg1 = 0;
    std::int64_t arg2 = 0;

    TraceName name = TraceName::Queued;
    TracePhase phase = TracePhase::Instant;
};

/** Eviction causes recorded in Evict instants (arg0). Eviction is
 *  reactive only; the value keeps the schema's historical code. */
enum class EvictCause : std::int64_t
{
    /** The decode step could not extend the batch's KV. */
    Reactive = 1,
};

} // namespace trace
} // namespace lightllm

#endif // LIGHTLLM_TRACE_TRACE_EVENT_HH
