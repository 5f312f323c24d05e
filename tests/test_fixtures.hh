/**
 * @file
 * Shared test fixtures: the tiny synthetic platform and request
 * factory used by the engine, cluster, and exactness suites, the
 * hash the byte-pinning suites fold their outputs into, the check
 * that a call throws a diagnosis, and the count-based FCFS-prefix
 * reference and one-shot round the scheduling suites drive a
 * scheduler or policy with, a from-scratch model of the Eq. 1 past
 * window, and the readers of public state that
 * only tests need (a Bernoulli draw, a dataset's output total, a
 * rate schedule's rate at a time, KV headroom, a fleet's routing
 * decisions per instance). One
 * definition keeps every suite on the same platform — a drifted
 * copy would silently test different token capacities.
 */

#ifndef LIGHTLLM_TESTS_TEST_FIXTURES_HH
#define LIGHTLLM_TESTS_TEST_FIXTURES_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "cluster/serving_cluster.hh"
#include "core/length_predictor.hh"
#include "core/scheduler.hh"
#include "core/scheduling_decision.hh"
#include "core/scheduling_policy.hh"
#include "memory/kv_block_manager.hh"
#include "model/perf_model.hh"
#include "workload/datasets.hh"
#include "workload/rate_schedule.hh"
#include "workload/request_spec.hh"
#include "workload/session_gen.hh"

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

/** A Bernoulli trial with probability p: one uniform draw. */
inline bool
bernoulli(Rng &rng, double p)
{
    return rng.uniformDouble() < p;
}

/**
 * The Eq. 1 past window modelled from scratch, sharing no code with
 * core::LengthPredictor: a deque of observed lengths plus a count of
 * cold-start placeholders (min(kColdStartSeedCount, w) of them when
 * seed_len > 0), which observations replace before the deque drops
 * its oldest entry. The from-scratch references build their
 * LengthDistribution from contents().
 */
class FifoWindow
{
  public:
    explicit FifoWindow(std::size_t capacity, TokenCount seed_len = 0)
        : capacity_(capacity), seedLen_(seed_len),
          seeds_(seed_len > 0
                     ? std::min(capacity, core::kColdStartSeedCount)
                     : 0)
    {
    }

    void
    push(TokenCount length)
    {
        if (seeds_ > 0)
            --seeds_;
        else if (observed_.size() == capacity_)
            observed_.pop_front();
        observed_.push_back(length);
    }

    /** The window's lengths, unordered. */
    std::vector<TokenCount>
    contents() const
    {
        std::vector<TokenCount> values(observed_.begin(),
                                       observed_.end());
        values.insert(values.end(), seeds_, seedLen_);
        return values;
    }

  private:
    std::size_t capacity_;
    TokenCount seedLen_;
    std::size_t seeds_;
    std::deque<TokenCount> observed_;
};

/** Sum of the dataset's effective output tokens. */
inline TokenCount
totalOutputTokens(const workload::Dataset &dataset)
{
    TokenCount sum = 0;
    for (const auto &request : dataset.requests)
        sum += request.effectiveOutputLen();
    return sum;
}

/** The schedule's intensity at `t_seconds` (>= 0), read from its
 *  segments: an open-ended segment holds forever, and past the last
 *  timed one the last rate holds. */
inline double
rateAt(const workload::RateSchedule &schedule, double t_seconds)
{
    double start = 0.0;
    for (const workload::RateSegment &segment : schedule.segments()) {
        if (segment.durationSeconds <= 0.0 ||
            t_seconds < start + segment.durationSeconds)
            return segment.ratePerSecond;
        start += segment.durationSeconds;
    }
    return schedule.segments().back().ratePerSecond;
}

/** The schedule's largest segment rate. */
inline double
maxRate(const workload::RateSchedule &schedule)
{
    double peak = 0.0;
    for (const workload::RateSegment &segment : schedule.segments())
        peak = std::max(peak, segment.ratePerSecond);
    return peak;
}

/** Whether `tokens` more slots could be allocated now: free blocks
 *  plus the prefix cache's reclaimable ones. */
inline bool
canAllocate(const memory::KvBlockManager &kv, TokenCount tokens)
{
    return (tokens + kv.blockSize() - 1) / kv.blockSize() <=
        kv.freeBlocks() + kv.reclaimableBlocks();
}

/** The per-request reference for KvBlockManager::batchCanGrow:
 *  whether every request in `slots` can extend by one token, each
 *  whose last block is full taking one more block. */
inline bool
canExtendBatchByOne(const memory::KvBlockManager &kv,
                    const std::vector<RequestSlot> &slots)
{
    std::int64_t blocks_needed = 0;
    for (const RequestSlot slot : slots) {
        const auto held =
            static_cast<TokenCount>(kv.blockTable(slot).size()) *
            kv.blockSize();
        if (kv.requestTokens(slot) == held)
            ++blocks_needed;
    }
    return blocks_needed <= kv.freeBlocks() + kv.reclaimableBlocks();
}

/** Token slots in free blocks (reclaimable cached ones excluded). */
inline TokenCount
freeTokens(const memory::KvBlockManager &kv)
{
    return kv.freeBlocks() * kv.blockSize();
}

/** Token-level utilization in [0, 1]. */
inline double
utilization(const memory::KvBlockManager &kv)
{
    return static_cast<double>(kv.usedTokens()) /
        static_cast<double>(kv.capacityTokens());
}

/** A fleet's submission log (ServingCluster::recordSubmissions). */
using RoutedLog =
    std::vector<cluster::ServingCluster::RoutedSubmission>;

/** Routing decisions per instance in a fleet's submission log
 *  (a re-dispatched request counts on every instance it went to). */
inline std::vector<std::size_t>
routedCounts(const RoutedLog &log, std::size_t instances)
{
    std::vector<std::size_t> counts(instances, 0);
    for (const auto &routed : log)
        ++counts[routed.instance];
    return counts;
}

/** Every turn a session workload submits, session-major (turn t of
 *  session s at s * turnsPerSession + t): the generator runs to
 *  completion with each turn finishing as soon as it is sent. */
inline std::vector<workload::RequestSpec>
sessionTurns(const workload::SessionWorkloadConfig &config)
{
    struct Recorder : workload::RequestSink
    {
        std::vector<workload::RequestSpec> turns;
        void
        submitAt(const workload::RequestSpec &spec, Tick) override
        {
            turns.push_back(spec);
        }
    } sink;
    workload::SessionGenerator generator(config, sink);
    generator.start();
    for (std::size_t i = 0; i < sink.turns.size(); ++i)
        generator.onRequestFinished(sink.turns[i].id, 0);
    std::sort(sink.turns.begin(), sink.turns.end(),
              [](const auto &a, const auto &b) {
                  return a.id < b.id;
              });
    return sink.turns;
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

namespace base {

/** Field-wise equality, so tests compare classes with EXPECT_EQ. */
inline bool
operator==(const RequestClass &a, const RequestClass &b)
{
    return a.tenant == b.tenant && a.priority == b.priority &&
        a.sloTier == b.sloTier;
}

} // namespace base
} // namespace lightllm

#endif // LIGHTLLM_TESTS_TEST_FIXTURES_HH
