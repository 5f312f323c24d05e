#include "engine/decode_run.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "engine/engine_config.hh"

namespace lightllm {
namespace engine {

Tick
DecodeRun::plan(std::span<EngineRequest *const> members,
                const memory::KvBlockManager &kv,
                const model::PerfModel &perf, double time_factor,
                Tick start, Tick max_ticks, std::uint64_t epoch)
{
    const std::size_t n = members.size();
    batch_ = static_cast<TokenCount>(n);
    block_ = kv.blockSize();
    // One walk: the first finishing step (true lengths are known),
    // the batch's KV tokens and its members' block phases.
    TokenCount finish = std::numeric_limits<TokenCount>::max();
    TokenCount batch_kv = 0;
    phase_.resize(n);
    phaseStart_.assign(static_cast<std::size_t>(block_) + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const EngineRequest &request = *members[i];
        finish = std::min(finish,
                          request.targetOutput() - request.generated);
        batch_kv += request.spec.inputLen + request.generated;
        phase_[i] = static_cast<std::uint32_t>(
            kv.requestTokens(request.slot) % block_);
        ++phaseStart_[phase_[i]];
    }
    // Lay the members out by phase, in member order within a phase,
    // so a step's crossings take their blocks in stepwise order.
    for (std::size_t p = 1; p < phaseStart_.size(); ++p)
        phaseStart_[p] += phaseStart_[p - 1];
    phaseMembers_.resize(n);
    for (std::size_t i = n; i-- > 0;)
        phaseMembers_[--phaseStart_[phase_[i]]] =
            static_cast<std::uint32_t>(i);
    auto phase_count = [this](std::uint32_t p) {
        return static_cast<std::int64_t>(phaseStart_[p + 1] -
                                         phaseStart_[p]);
    };
    // Each crossing takes a block off the free list or out of the
    // reclaimable cache, so batchCanGrow() holds while the steps'
    // crossings fit in what was available at the start.
    const std::int64_t available =
        kv.freeBlocks() + kv.reclaimableBlocks();
    std::int64_t crossings = 0;
    Tick tick = start;
    ends_.clear();
    std::uint32_t phase = 0;  // step 1 crosses phase 0
    for (TokenCount step = 1; step < finish; ++step) {
        if (max_ticks > 0 && tick >= max_ticks)
            break;
        crossings += phase_count(phase);
        if (crossings > available)
            break;
        tick += scaleTicks(
            perf.fusedStepLatency(batch_, batch_kv + batch_ * step, 0),
            time_factor);
        ends_.push_back(tick);
        phase = nextCrossing(phase);
    }
    LIGHTLLM_ASSERT((phase_count(0) <= available) == kv.batchCanGrow(),
                    "decode-run plan disagrees with batchCanGrow");
    if (ends_.empty())
        return start;

    // A member re-peeks at the first step its length reaches the
    // horizon, or at once when a finish moved the epoch.
    lapseHead_.clear();
    lapseNext_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const EngineRequest &request = *members[i];
        fileLapse(static_cast<std::uint32_t>(i),
                  request.predictedEpoch != epoch
                      ? 1
                      : std::max<TokenCount>(1, request.predictedUntil -
                                                    request.generated));
    }
    crossing_ = 0;
    start_ = start;
    settled_ = 0;
    synced_ = 0;
    kvLag_ = 0;
    kvSynced_.assign(n, 0);
    return tick;
}

void
DecodeRun::fileLapse(std::uint32_t member, TokenCount step)
{
    // The calendar grows to the latest lapse filed, which is
    // usually far short of the run's last step.
    if (step > static_cast<TokenCount>(ends_.size()))
        return;
    const auto at = static_cast<std::size_t>(step);
    if (at >= lapseHead_.size())
        lapseHead_.resize(at + 1, kNoMember);
    lapseNext_[member] = lapseHead_[at];
    lapseHead_[at] = member;
}

std::uint32_t
DecodeRun::nextCrossing(std::uint32_t phase) const
{
    // A member whose allocation held f tokens at the run's start is
    // full before step s when (f + s - 1) % block == 0, and then
    // takes a fresh block: step 1 crosses phase 0, and each later
    // step the phase one below its predecessor's, mod block.
    return phase == 0 ? static_cast<std::uint32_t>(block_ - 1)
                      : phase - 1;
}

DecodeRun::Step
DecodeRun::settle()
{
    Step step;
    step.index = ++settled_;
    step.ahead = static_cast<TokenCount>(settled_ - synced_);
    step.end = ends_[settled_ - 1];
    step.duration =
        step.end - (settled_ == 1 ? start_ : ends_[settled_ - 2]);
    // Every member grows a token; catchUp places the crossings'.
    kvLag_ += batch_;
    const std::uint32_t phase = crossing_;
    crossing_ = nextCrossing(phase);
    step.crossings = std::span<const std::uint32_t>(phaseMembers_)
                         .subspan(phaseStart_[phase],
                                  phaseStart_[phase + 1] -
                                      phaseStart_[phase]);
    // Copied out: refiling a member rewrites its calendar link.
    lapsed_.clear();
    for (std::uint32_t i = settled_ < lapseHead_.size()
             ? lapseHead_[settled_]
             : kNoMember;
         i != kNoMember; i = lapseNext_[i]) {
        lapsed_.push_back(i);
    }
    step.lapses = lapsed_;
    return step;
}

void
DecodeRun::sync(std::span<EngineRequest *const> members,
                memory::KvBlockManager &kv)
{
    if (settled_ == synced_)
        return;
    const std::size_t from = synced_;
    const std::size_t to = settled_;
    // Every member emitted at each settled step's end: the first
    // gap is per member, the later ones are the step durations.
    Tick widest = 0;
    for (std::size_t i = from + 1; i < to; ++i)
        widest = std::max(widest, ends_[i] - ends_[i - 1]);
    for (std::size_t i = 0; i < members.size(); ++i) {
        EngineRequest &request = *members[i];
        // Slack fills only: a crossing would have placed the rest.
        kv.growInSlack(request.slot,
                       static_cast<TokenCount>(to - kvSynced_[i]));
        kvSynced_[i] = to;
        request.generated += static_cast<TokenCount>(to - from);
        request.recordEmission(ends_[from]);
        request.maxGap = std::max(request.maxGap, widest);
        request.lastEmit = ends_[to - 1];
    }
    kvLag_ = 0;
    synced_ = to;
}

} // namespace engine
} // namespace lightllm
