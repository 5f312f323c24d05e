/**
 * @file
 * Shared test fixtures: the tiny synthetic platform and request
 * factory used by the engine, cluster, and exactness suites, the
 * hash the byte-pinning suites fold their outputs into, the check
 * that a call throws a diagnosis, and the count-based FCFS-prefix
 * reference and one-shot round the scheduling suites drive a
 * scheduler or policy with. One
 * definition keeps every suite on the same platform — a drifted
 * copy would silently test different token capacities.
 */

#ifndef LIGHTLLM_TESTS_TEST_FIXTURES_HH
#define LIGHTLLM_TESTS_TEST_FIXTURES_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/scheduler.hh"
#include "core/scheduling_decision.hh"
#include "core/scheduling_policy.hh"
#include "model/perf_model.hh"
#include "workload/request_spec.hh"

namespace lightllm {
namespace testfx {

/** A small synthetic model so tests control token capacity (and,
 *  through the bandwidth, how much each KV token slows a step). */
inline model::PerfModel
tinyPerf(double mem_megabytes, double mem_bandwidth = 1e12)
{
    model::ModelSpec spec;
    spec.name = "tiny";
    spec.numParams = 100'000;
    spec.numLayers = 2;
    spec.hiddenSize = 128;
    spec.numHeads = 2;
    spec.numKvHeads = 2;
    spec.headDim = 64;
    // kvBytesPerToken = 2*2*2*64*2 = 1024 bytes.
    model::HardwareSpec hw;
    hw.name = "tiny-gpu";
    hw.memBytesPerDevice =
        static_cast<ByteCount>(mem_megabytes * 1e6);
    hw.memBandwidthPerDevice = mem_bandwidth;
    hw.flopsPerDevice = 1e14;
    hw.hostLinkBandwidth = 25e9;
    return model::PerfModel(spec, hw);
}

/** A request spec with explicit lengths (EOS at `output`). */
inline workload::RequestSpec
makeRequest(RequestId id, TokenCount input, TokenCount output,
            TokenCount max_new = 4096)
{
    workload::RequestSpec spec;
    spec.id = id;
    spec.inputLen = input;
    spec.outputLen = output;
    spec.maxNewTokens = max_new;
    return spec;
}

/** FNV-1a over `bytes`: pins a rendered report or a drive's
 *  observations in one number. */
inline std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Success when `call` throws an `E` whose message contains
 *  `substring`; a failure says what happened instead. */
template <typename E, typename F>
::testing::AssertionResult
throwsWith(F &&call, const std::string &substring)
{
    try {
        call();
    } catch (const E &error) {
        const std::string message = error.what();
        if (message.find(substring) != std::string::npos)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
            << "message '" << message << "' lacks '" << substring
            << "'";
    }
    return ::testing::AssertionFailure() << "nothing was thrown";
}

/**
 * Number of requests to admit from the front of ctx.waiting (0
 * admits nothing) — Algorithm 1's FCFS-prefix semantics over the
 * round API: walk the queue in order and stop at the first candidate
 * that does not fit. The reference the flat FCFS pipeline's
 * decisions are checked against.
 */
inline std::size_t
selectAdmissions(core::Scheduler &scheduler,
                 const core::SchedulerContext &ctx)
{
    if (ctx.waiting.empty())
        return 0;  // nothing to decide; skip the prediction work
    scheduler.beginAdmissionRound(ctx);
    std::size_t admitted = 0;
    for (const auto &candidate : ctx.waiting) {
        if (!scheduler.tryAdmit(candidate))
            break;
        ++admitted;
    }
    return admitted;
}

/** A SchedulingPolicy whose decide() runs one round into a fresh
 *  decision, for suites that inspect single rounds. */
class OneShotPolicy : public core::SchedulingPolicy
{
  public:
    using SchedulingPolicy::SchedulingPolicy;

    core::SchedulingDecision
    decide(const core::SchedulerContext &ctx)
    {
        core::SchedulingDecision decision;
        decideInto(ctx, decision);
        return decision;
    }
};

} // namespace testfx
} // namespace lightllm

#endif // LIGHTLLM_TESTS_TEST_FIXTURES_HH
