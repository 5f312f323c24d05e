#include "workload/session_gen.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/rng.hh"

namespace lightllm {
namespace workload {

namespace {

/** Per-turn user message length, uniform in [lo, hi]. */
constexpr TokenCount kUserTokensLo = 32;
constexpr TokenCount kUserTokensHi = 256;

/** Per-turn ground-truth reply length, uniform in [lo, hi]
 *  (capped by kSessionMaxNewTokens). */
constexpr TokenCount kOutputTokensLo = 64;
constexpr TokenCount kOutputTokensHi = 512;

} // namespace

SessionGenerator::SessionGenerator(
    const SessionWorkloadConfig &config, RequestSink &sink)
    : config_(config), sink_(sink)
{
    LIGHTLLM_ASSERT(config_.numSessions >= 1,
                    "need at least one session");
    LIGHTLLM_ASSERT(config_.turnsPerSession >= 1,
                    "need at least one turn per session");
    LIGHTLLM_ASSERT(config_.systemPromptTokens >= 1,
                    "system prompt cannot be empty");

    // One system-prompt identity shared by the whole service.
    const std::uint64_t system_key =
        deriveContentKey(config_.seed, 0, 0);

    Rng rng(config_.seed);
    sessions_.resize(config_.numSessions);
    for (std::size_t s = 0; s < config_.numSessions; ++s) {
        Session &session = sessions_[s];
        session.turns.reserve(config_.turnsPerSession);

        // The conversation so far, shared-system-prompt first.
        std::vector<PromptSegment> history{
            PromptSegment{system_key, config_.systemPromptTokens}};
        TokenCount history_tokens = config_.systemPromptTokens;

        for (std::size_t t = 0; t < config_.turnsPerSession; ++t) {
            const TokenCount user_len =
                rng.uniformInt(kUserTokensLo, kUserTokensHi);
            const TokenCount output_len =
                std::min(rng.uniformInt(kOutputTokensLo,
                                        kOutputTokensHi),
                         kSessionMaxNewTokens);

            RequestSpec spec;
            spec.id = static_cast<RequestId>(
                s * config_.turnsPerSession + t);
            spec.maxNewTokens = kSessionMaxNewTokens;
            spec.outputLen = output_len;
            spec.cls = base::RequestClass{};
            spec.sessionKey =
                deriveContentKey(config_.seed ^ 0x5e551ull, s, 0);
            spec.outputKey = deriveContentKey(
                config_.seed ^ 0x0417ull, s, 2 * t + 1);

            spec.segments = history;
            spec.segments.push_back(PromptSegment{
                deriveContentKey(config_.seed ^ 0x0415ull, s,
                                 2 * t),
                user_len});
            spec.inputLen = history_tokens + user_len;

            session.turns.push_back(spec);

            // The next turn's prompt contains this user message and
            // the reply the model will actually generate
            // (effectiveOutputLen == outputLen: drawn within cap).
            history = session.turns.back().segments;
            history.push_back(
                PromptSegment{spec.outputKey, output_len});
            history_tokens = spec.inputLen + output_len;
        }
    }
}

void
SessionGenerator::start()
{
    for (std::size_t s = 0; s < sessions_.size(); ++s)
        submitTurn(s, 0);
}

void
SessionGenerator::submitTurn(std::size_t index, Tick when)
{
    Session &session = sessions_[index];
    if (session.nextTurn >= session.turns.size())
        return;
    const RequestSpec &spec = session.turns[session.nextTurn];
    ++session.nextTurn;
    owner_.tryInsert(spec.id, index);
    sink_.submitAt(spec, when);
}

void
SessionGenerator::onRequestFinished(RequestId id, Tick finish_tick)
{
    const std::size_t *owner = owner_.find(id);
    if (owner == nullptr)
        return;  // not ours (mixed workloads)
    const std::size_t index = *owner;
    owner_.erase(id);
    submitTurn(index, finish_tick + config_.thinkTime);
}

} // namespace workload
} // namespace lightllm
