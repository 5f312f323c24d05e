/**
 * @file
 * Multi-turn conversation workload generator.
 *
 * Real chat traffic is dominated by sessions: every request of a
 * session shares the service's system prompt, and turn k's prompt
 * textually contains the whole history of turns 1..k-1 (user
 * messages and model replies). The generator models exactly that
 * structure with content-identified segments (base/token_stream.hh):
 *
 *   turn k prompt = [system][u1][r1]...[u_{k-1}][r_{k-1}][u_k]
 *
 * where the system segment's key is shared by *all* sessions and
 * the u/r keys are per-(session, turn). Because each reply segment
 * carries the spec's outputKey, a finished turn's generated blocks
 * are cacheable and the next turn's prompt — which begins with the
 * identical stream — matches them in the prefix cache.
 *
 * Sessions are closed-loop: turn k+1 is submitted `think_time`
 * after turn k finishes, so the driver plugs into engines and
 * clusters exactly like ClosedLoopClientPool.
 */

#ifndef LIGHTLLM_WORKLOAD_SESSION_GEN_HH
#define LIGHTLLM_WORKLOAD_SESSION_GEN_HH

#include <cstdint>
#include <vector>

#include "base/flat_id_table.hh"
#include "base/token_stream.hh"
#include "base/types.hh"
#include "workload/client_pool.hh"
#include "workload/request_spec.hh"

namespace lightllm {
namespace workload {

/** Generation cap shared by every session turn. */
inline constexpr TokenCount kSessionMaxNewTokens = 1024;

/** Shape of a multi-turn session workload. */
struct SessionWorkloadConfig
{
    /** Concurrent conversations. */
    std::size_t numSessions = 8;

    /** Requests per conversation (>= 1). */
    std::size_t turnsPerSession = 4;

    /** Shared system prompt prepended to every request. */
    TokenCount systemPromptTokens = 512;

    /** Pause between a turn finishing and the next being sent. */
    Tick thinkTime = 0;

    std::uint64_t seed = 42;
};

/**
 * Closed-loop driver submitting each session's turns in order.
 *
 * All lengths and content keys are pre-drawn in the constructor, so
 * the workload is a pure function of the config regardless of how
 * the serving side interleaves completions.
 */
class SessionGenerator
{
  public:
    SessionGenerator(const SessionWorkloadConfig &config,
                     RequestSink &sink);

    /** Submit every session's first turn at tick 0. */
    void start();

    /**
     * Notify the generator that a request finished; the owning
     * session submits its next turn after the think time.
     */
    void onRequestFinished(RequestId id, Tick finish_tick);

  private:
    struct Session
    {
        /** Pre-built specs, one per turn. */
        std::vector<RequestSpec> turns;
        std::size_t nextTurn = 0;
    };

    /** Submit session `index`'s next turn at `when`. */
    void submitTurn(std::size_t index, Tick when);

    SessionWorkloadConfig config_;
    RequestSink &sink_;
    std::vector<Session> sessions_;
    /** Session index of each submitted, unfinished turn. */
    FlatIdTable<std::size_t> owner_;
};

} // namespace workload
} // namespace lightllm

#endif // LIGHTLLM_WORKLOAD_SESSION_GEN_HH
