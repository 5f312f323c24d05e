/**
 * @file
 * Fundamental scalar type aliases shared across the library.
 *
 * The simulator reasons about three quantities: simulated time,
 * token counts (the unit of KV-cache accounting, following the
 * paper's Figures 5/6 which reason in "token capacity"), and raw
 * byte sizes (used only inside the performance model when deriving
 * token capacity from hardware memory).
 */

#ifndef LIGHTLLM_BASE_TYPES_HH
#define LIGHTLLM_BASE_TYPES_HH

#include <cstdint>
#include <limits>

namespace lightllm {

/** Simulated time in integer microseconds (deterministic). */
using Tick = std::int64_t;

/** Number of ticks in one simulated second. */
inline constexpr Tick kTicksPerSecond = 1'000'000;

/** Number of KV-cache token slots, or a count of tokens. */
using TokenCount = std::int64_t;

/** Raw byte size used by the performance model. */
using ByteCount = std::int64_t;

/** Monotonically increasing request identifier. */
using RequestId = std::int64_t;

/** Sentinel for "no request". */
inline constexpr RequestId kInvalidRequestId = -1;

/**
 * Dense, generation-tagged handle of one request's state inside an
 * engine (its EngineRequest slab entry, KV allocation and sticky
 * prediction sample). Low 32 bits: the slot index; high 32 bits: the
 * slot's generation, bumped every time the engine recycles the slot,
 * so a handle kept past its request's departure names nothing (the
 * sim::EventId scheme). RequestId stays the external identity.
 */
using RequestSlot = std::uint64_t;

/** Sentinel for "no slot" (callers outside an engine). */
inline constexpr RequestSlot kInvalidSlot = ~RequestSlot{0};

/** Index part of a slot handle. */
constexpr std::uint32_t
slotIndex(RequestSlot slot)
{
    return static_cast<std::uint32_t>(slot);
}

/** The handle of slot `index` in generation `generation`. */
constexpr RequestSlot
makeSlot(std::uint32_t index, std::uint32_t generation)
{
    return (RequestSlot{generation} << 32) | index;
}

/** Convert seconds (double) to ticks, rounding to nearest. */
constexpr Tick
secondsToTicks(double seconds)
{
    return static_cast<Tick>(
        seconds * static_cast<double>(kTicksPerSecond) + 0.5);
}

/** Convert ticks to fractional seconds. */
constexpr double
ticksToSeconds(Tick ticks)
{
    return static_cast<double>(ticks) /
        static_cast<double>(kTicksPerSecond);
}

/** The longest span a run takes, in ticks and in seconds: half of
 *  Tick's range, so secondsToTicks cannot overflow, and one such
 *  span added to a clock below the same bound still fits. */
inline constexpr Tick kMaxSpanTicks =
    std::numeric_limits<Tick>::max() / 2;
inline constexpr double kMaxSpanSeconds =
    ticksToSeconds(kMaxSpanTicks);

} // namespace lightllm

#endif // LIGHTLLM_BASE_TYPES_HH
