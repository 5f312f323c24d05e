/**
 * @file
 * Multi-step decode runs (DESIGN.md §8): the planner and settler of
 * the quiet decode steps between two batch changes. A run covers the
 * running batch, whose membership holds for the whole run (member i
 * is members[i]). Settling a step hands back the members whose
 * allocation takes a fresh block and those whose cached prediction
 * lapses; the engine applies the KV growth and the peeks itself. The
 * run keeps what the members' fields lag: the settled steps not yet
 * written into them and the growth not yet placed in the KV manager.
 */

#ifndef LIGHTLLM_ENGINE_DECODE_RUN_HH
#define LIGHTLLM_ENGINE_DECODE_RUN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/types.hh"
#include "engine/engine_request.hh"
#include "memory/kv_block_manager.hh"
#include "model/perf_model.hh"

namespace lightllm {
namespace engine {

/** A planned run: its steps' end ticks, the members' block phases
 *  and the lapse calendar. */
class DecodeRun
{
  public:
    /** One settled step (numbered from 1). */
    struct Step
    {
        std::size_t index = 0;

        /** Steps every member's `generated` lags at the step's end. */
        TokenCount ahead = 0;
        Tick end = 0;
        Tick duration = 0;

        /** Members taking a fresh block, in member order (stepwise
         *  block ids and cache reclaims); each catchUp()s first. */
        std::span<const std::uint32_t> crossings;

        /** Members whose prediction lapses: each re-peeks at its
         *  length and is filed again (fileLapse). */
        std::span<const std::uint32_t> lapses;
    };

    /**
     * Plan the quiet steps over `members` from `start`: every step
     * up to (not including) the first that finishes a member, fails
     * kv.batchCanGrow() or starts at or after `max_ticks` (0 = no
     * limit). A member's lapse is filed at the first step its length
     * reaches its horizon, or at step 1 when its peek predates
     * prediction epoch `epoch`.
     *
     * @return The run's end tick; `start` when nothing was planned.
     */
    Tick plan(std::span<EngineRequest *const> members,
              const memory::KvBlockManager &kv,
              const model::PerfModel &perf, double time_factor,
              Tick start, Tick max_ticks, std::uint64_t epoch);

    /** True while planned steps remain unsettled. */
    bool pending() const { return settled_ < ends_.size(); }

    Step settle();

    /** Steps of a crossing member's growth not yet placed, the
     *  crossing token included (growInSlack the rest, then
     *  growByOne); marks them placed. */
    TokenCount
    catchUp(std::uint32_t member)
    {
        const auto lag = static_cast<TokenCount>(settled_ -
                                                 kvSynced_[member]);
        kvSynced_[member] = settled_;
        kvLag_ -= lag;
        return lag;
    }

    /** File `member`'s lapse at `step`, unless the run ends first. */
    void fileLapse(std::uint32_t member, TokenCount step);

    /** Settled growth not placed in the KV manager:
     *  kv.usedTokens() + kvLag() is the stepwise count. */
    TokenCount kvLag() const { return kvLag_; }

    /** Write the settled steps into the members: generated count,
     *  emission ticks and the deferred slack fills. end() also drops
     *  the unsettled steps. */
    void sync(std::span<EngineRequest *const> members,
              memory::KvBlockManager &kv);
    void
    end(std::span<EngineRequest *const> members,
        memory::KvBlockManager &kv)
    {
        sync(members, kv);
        ends_.clear();
        settled_ = synced_ = 0;
    }

  private:
    static constexpr std::uint32_t kNoMember = ~std::uint32_t{0};

    /** The phase whose members take a fresh block at the step after
     *  one that crossed `phase`. */
    std::uint32_t nextCrossing(std::uint32_t phase) const;

    /** ends_[s - 1] is step s's end tick, the next step's start. */
    std::vector<Tick> ends_;
    Tick start_ = 0;
    TokenCount block_ = 1;
    TokenCount batch_ = 0;

    /** Steps applied; steps written into the members (sync). */
    std::size_t settled_ = 0;
    std::size_t synced_ = 0;
    TokenCount kvLag_ = 0;

    /** Per member: its allocation's fill at the run's start modulo
     *  the block size. The members of phase p, in member order, are
     *  phaseMembers_[phaseStart_[p] .. phaseStart_[p + 1]). */
    std::vector<std::uint32_t> phase_;
    std::vector<std::uint32_t> phaseStart_;
    std::vector<std::uint32_t> phaseMembers_;

    /** The phase crossing at the next step to settle. */
    std::uint32_t crossing_ = 0;

    /** Per member: the step its KV allocation is placed to. */
    std::vector<std::size_t> kvSynced_;

    /** The lapse calendar: lapseHead_[s] is the first member lapsing
     *  at step s, lapseNext_[i] the next one at member i's step
     *  (kNoMember ends a list). Steps past the latest lapse filed
     *  have no head; lapsed_ is the settled step's list. */
    std::vector<std::uint32_t> lapseHead_;
    std::vector<std::uint32_t> lapseNext_;
    std::vector<std::uint32_t> lapsed_;
};

} // namespace engine
} // namespace lightllm

#endif // LIGHTLLM_ENGINE_DECODE_RUN_HH
