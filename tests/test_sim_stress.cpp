/**
 * @file
 * EventQueue stress tests: randomized schedule/cancel/reschedule
 * churn checked against a naive reference model, plus the
 * zero-allocation contracts of the steady-state schedule/fire path,
 * the serving loop, and the prefix cache's reclaim bookkeeping.
 *
 * This binary replaces global operator new/delete with counting
 * versions so the allocation test can assert that a warmed queue
 * stops touching the allocator. The suite runs under the sanitizer
 * CI job, where the arena recycling and handler relocation paths
 * are exercised under ASan/UBSan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "base/token_stream.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "memory/kv_block_manager.hh"
#include "memory/prefix_cache.hh"
#include "sim/event_queue.hh"
#include "test_fixtures.hh"
#include "workload/datasets.hh"

namespace {

/** Process-wide allocation counter (see operator new below). */
std::uint64_t g_allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms must be replaced too (libstdc++'s temporary
// buffers use them); leaving them default would pair the library
// allocator with our free() and trip ASan's mismatch check.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocations;
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocations;
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace lightllm {
namespace sim {
namespace {

/** Deterministic 64-bit LCG (tests must not depend on libc rand). */
class Lcg
{
  public:
    explicit Lcg(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        state_ = state_ * 6364136223846793005ull +
            1442695040888963407ull;
        return state_ >> 11;
    }

    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }

  private:
    std::uint64_t state_;
};

/** Reference model of one live event. */
struct RefEvent
{
    EventId id;
    Tick when;
    EventClass cls;
    /** Insertion sequence (re-stamped by reschedule), the FIFO
     *  tie-break the queue promises. */
    std::uint64_t seq;
    /** Identity delivered by the real handler when it fires. */
    std::uint64_t tag;
};

/**
 * Randomized churn: schedule / cancel / reschedule / fire against a
 * naive model that re-derives the expected firing order by stable
 * sort. Verifies firing order, eventTick() agreement,
 * and that stale handles always miss.
 */
TEST(EventQueueStressTest, ChurnMatchesNaiveReferenceModel)
{
    EventQueue queue;
    Lcg rng(0x5eedful);

    std::vector<RefEvent> live;
    std::vector<EventId> dead; // fired or cancelled handles
    std::vector<std::uint64_t> fired_tags;
    std::uint64_t next_seq = 0;
    std::uint64_t next_tag = 0;
    Tick now = 0;

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t dice = rng.below(100);
        if (dice < 45 || live.empty()) {
            // Schedule at or after the clock.
            const Tick when = now + static_cast<Tick>(rng.below(64));
            const EventClass cls = rng.below(4) == 0
                ? EventClass::Step
                : EventClass::Delivery;
            const std::uint64_t tag = next_tag++;
            const EventId id = queue.schedule(
                when,
                [&fired_tags, tag](Tick) {
                    fired_tags.push_back(tag);
                },
                cls);
            live.push_back(RefEvent{id, when, cls, next_seq++, tag});
        } else if (dice < 60) {
            // Cancel a random live event.
            const std::size_t at = rng.below(live.size());
            EXPECT_TRUE(queue.cancel(live[at].id));
            dead.push_back(live[at].id);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(at));
        } else if (dice < 75) {
            // Reschedule a random live event; it re-sequences as if
            // newly scheduled.
            const std::size_t at = rng.below(live.size());
            const Tick when = now + static_cast<Tick>(rng.below(64));
            EXPECT_TRUE(queue.reschedule(live[at].id, when));
            live[at].when = when;
            live[at].seq = next_seq++;
        } else if (dice < 85) {
            // Probe: live handles resolve, dead handles miss.
            if (!live.empty()) {
                const RefEvent &event =
                    live[rng.below(live.size())];
                EXPECT_EQ(queue.eventTick(event.id), event.when);
            }
            if (!dead.empty()) {
                const EventId stale =
                    dead[rng.below(dead.size())];
                EXPECT_FALSE(queue.cancel(stale));
                EXPECT_FALSE(queue.reschedule(stale, now + 1));
            }
        } else {
            // Fire everything due up to a horizon and compare the
            // emitted tag order with the model's stable sort over
            // (when, class, sequence).
            if (queue.empty())
                continue;
            const Tick horizon =
                queue.nextTick() + static_cast<Tick>(rng.below(16));
            std::vector<RefEvent> due;
            std::erase_if(live, [&](const RefEvent &event) {
                if (event.when > horizon)
                    return false;
                due.push_back(event);
                return true;
            });
            std::stable_sort(
                due.begin(), due.end(),
                [](const RefEvent &a, const RefEvent &b) {
                    if (a.when != b.when)
                        return a.when < b.when;
                    if (a.cls != b.cls)
                        return a.cls < b.cls;
                    return a.seq < b.seq;
                });
            fired_tags.clear();
            std::size_t fired = 0;
            while (!queue.empty() && queue.nextTick() <= horizon) {
                queue.runNext();
                ++fired;
            }
            EXPECT_EQ(fired, due.size());
            ASSERT_EQ(fired_tags.size(), due.size());
            for (std::size_t i = 0; i < due.size(); ++i)
                EXPECT_EQ(fired_tags[i], due[i].tag);
            for (const RefEvent &event : due)
                dead.push_back(event.id);
            now = std::max(now, horizon);
        }
        EXPECT_EQ(queue.size(), live.size());
    }
}

/**
 * The zero-alloc contract (DESIGN.md §8): once the arena and heap
 * have grown to the workload's high-water pending count, scheduling
 * and firing events with inline-sized callables performs no heap
 * allocations at all.
 */
TEST(EventQueueAllocTest, WarmedScheduleFirePathIsAllocationFree)
{
    EventQueue queue;
    std::uint64_t fired = 0;

    // Warm up: grow the arena and heap to the high-water mark this
    // test will ever reach, then drain.
    std::vector<EventId> warm;
    for (Tick t = 0; t < 64; ++t) {
        warm.push_back(queue.schedule(
            t + 1, [&fired](Tick) { ++fired; }));
    }
    while (!queue.empty())
        queue.runNext();
    ASSERT_EQ(fired, 64u);

    const std::uint64_t allocations_before = g_allocations;

    // Steady state: schedule/fire churn (including cancels and
    // reschedules) entirely within the warmed capacity.
    Tick now = 64;
    for (int round = 0; round < 1000; ++round) {
        EventId ids[32];
        for (int i = 0; i < 32; ++i) {
            ids[i] = queue.schedule(
                now + 1 + i % 7, [&fired](Tick) { ++fired; });
        }
        for (int i = 0; i < 32; i += 4)
            queue.cancel(ids[i]);
        for (int i = 1; i < 32; i += 4)
            queue.reschedule(ids[i], now + 3);
        now += 8;
        while (!queue.empty())
            queue.runNext();
    }

    // A callable that outgrew the inline buffer would allocate its
    // heap fallback here too.
    EXPECT_EQ(g_allocations, allocations_before)
        << "steady-state schedule/fire touched the allocator, or a "
           "hot-path callable outgrew the inline buffer";
    EXPECT_TRUE(queue.empty());
}

/**
 * Slab recycling on the engine submit path: once the engine's
 * request slab has grown to the workload's concurrency high-water
 * mark, later arrivals reuse recycled EngineRequest slots instead
 * of allocating fresh ones. The slab's size therefore tracks peak
 * concurrency, not requests served — regressing to one allocation
 * per arrival grows it to the full request count
 * (ServingEngineStateTest.RequestSlabTracksPeakConcurrency pins the
 * size on this workload).
 */
TEST(EngineAllocTest, SubmitPathReusesRequestSlab)
{
    const auto dataset = workload::makeShareGpt(400, 13);
    engine::ServingEngine engine(
        testfx::tinyPerf(32.0),
        core::makeSchedulingPolicy(
            core::SchedulerConfig::pastFutureDefault(0.05)));

    // Open-loop arrivals spaced so concurrency stays far below the
    // request count (the slab high-water is what gets warmed).
    Tick arrival = 0;
    for (const auto &spec : dataset.requests) {
        engine.submitAt(spec, arrival);
        arrival += 100000;
    }

    std::uint64_t half_allocations = 0;
    const std::size_t half = dataset.requests.size() / 2;
    std::size_t finished = 0;
    engine.setOnFinish(
        [&](const workload::RequestSpec &, Tick) {
            if (++finished == half)
                half_allocations = g_allocations;
        });

    const std::uint64_t before = g_allocations;
    const auto report = engine.run();
    ASSERT_EQ(report.numFinished, dataset.requests.size());
    ASSERT_GT(half_allocations, 0u);

    // Warm-up (slab growth, event arena, metric buffers) is paid in
    // the first half; the steady-state second half must not exceed
    // it.
    const std::uint64_t first_half = half_allocations - before;
    const std::uint64_t second_half =
        g_allocations - half_allocations;
    EXPECT_LT(second_half, first_half)
        << "first half " << first_half << ", second half "
        << second_half
        << ": the submit path lost its warm-up amortization";
}

/**
 * Once warm, the serving loop itself allocates nothing: an iteration
 * that neither admits, finishes nor evicts still runs a full
 * Past-Future admission round (sorted trials, merged-scan candidate
 * tests) and a decode step with its carried Eq. 2-4 prediction
 * audit, and every buffer those use persists across iterations.
 * Iterations that change the batch are excluded: admission inserts a
 * block table and a sticky sample, finishing records a request. One
 * KV block per request (a block larger than any request) keeps block
 * tables from growing mid-decode.
 */
TEST(EngineAllocTest, WarmedStepsAndAdmissionRoundsAllocateNothing)
{
    engine::EngineConfig config;
    config.blockSize = 1024;
    engine::ServingEngine engine(
        testfx::tinyPerf(32.0),
        core::makeSchedulingPolicy(
            core::SchedulerConfig::pastFutureDefault(0.05)),
        config);
    Lcg rng(0xa11c);
    constexpr RequestId kRequests = 300;
    for (RequestId id = 0; id < kRequests; ++id) {
        engine.submitAt(
            testfx::makeRequest(
                id, 32 + static_cast<TokenCount>(rng.below(224)),
                16 + static_cast<TokenCount>(rng.below(384)), 600),
            0);
    }

    // Warm-up: the first sixth of the requests.
    while (engine.numFinished() < kRequests / 6)
        ASSERT_TRUE(engine.stepOnce());

    std::size_t quiet_steps = 0;
    std::uint64_t quiet_allocations = 0;
    while (engine.numFinished() < kRequests * 5 / 6) {
        // Queued and prefilling prompt tokens move on every
        // admission (the prefill runs in the same iteration) and
        // eviction; finishing moves numFinished.
        const std::size_t finished = engine.numFinished();
        const TokenCount pending = engine.pendingPrefillTokens();
        const std::uint64_t before = g_allocations;
        ASSERT_TRUE(engine.stepOnce());
        if (engine.numFinished() == finished &&
            engine.pendingPrefillTokens() == pending) {
            ++quiet_steps;
            quiet_allocations += g_allocations - before;
        }
    }
    ASSERT_GT(engine.pendingPrefillTokens(), 0)
        << "the queue drained: admission rounds stopped running";
    EXPECT_GT(quiet_steps, 500u);
    EXPECT_EQ(quiet_allocations, 0u)
        << "a warmed admission round or decode step allocated";
}

/**
 * The prefix cache's reclaim bookkeeping allocates nothing once warm:
 * matches touch cached blocks, admissions pin parked ones, releases
 * park them, inserts reuse reclaimed entries and hash-map nodes, and
 * allocations under pressure reclaim the least recently used parked
 * blocks — every structure (entry slab, parked heap, spare map
 * nodes, slot-indexed block tables) stays within its warmed
 * capacity. Every request runs the same lifecycle, so each recycled
 * block table has reached its final capacity after its first use.
 */
TEST(PrefixCacheAllocTest, WarmedParkPinTouchReclaimCyclesAllocateNothing)
{
    constexpr TokenCount kBlock = 16;
    memory::KvBlockManager kv(96 * kBlock, kBlock);
    memory::PrefixCache cache(kv);
    kv.attachPrefixCache(&cache);

    // 40 eight-block conversations over a shared two-block system
    // prompt: far more cacheable blocks than the 96-block pool.
    constexpr std::size_t kStreams = 40;
    std::vector<std::vector<PrefixHash>> prompt_hashes;
    std::vector<std::vector<PrefixHash>> full_hashes;
    for (std::uint64_t s = 0; s < kStreams; ++s) {
        const std::vector<PromptSegment> stream{
            {1, 2 * kBlock}, {100 + s, 6 * kBlock}};
        prompt_hashes.push_back(blockHashChain(stream, kBlock, 64));
        full_hashes.push_back(blockHashChain(stream, kBlock, 113));
    }
    std::vector<memory::BlockId> matched;
    matched.reserve(8);
    std::int64_t explicit_reclaims = 0;
    std::uint64_t hit_blocks = 0;
    constexpr int kConcurrent = 6;

    // Request i of round r holds slot i in generation r: the slots
    // recycle as an engine's do, so the slot-indexed block tables
    // keep their warmed capacity.
    auto slot = [](int r, int i) {
        return makeSlot(static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(r));
    };
    auto round = [&](int r) {
        // Admit: match (touch, then pin parked blocks), allocate the
        // 64-token prompt plus a slot, publish the prompt blocks.
        for (int i = 0; i < kConcurrent; ++i) {
            const std::size_t s =
                static_cast<std::size_t>(r * kConcurrent + i) %
                kStreams;
            matched.clear();
            hit_blocks += cache.match(prompt_hashes[s], matched);
            ASSERT_TRUE(kv.allocateShared(slot(r, i), 65, matched));
            cache.insert(
                prompt_hashes[s],
                std::span<const memory::BlockId>(
                    kv.blockTable(slot(r, i)))
                    .first(prompt_hashes[s].size()));
        }
        // Decode: grow to 113 tokens (reclaiming under pressure),
        // then publish the identified blocks as a finish would.
        for (int i = 0; i < kConcurrent; ++i) {
            const std::size_t s =
                static_cast<std::size_t>(r * kConcurrent + i) %
                kStreams;
            ASSERT_TRUE(kv.extend(slot(r, i), 48));
            cache.insert(
                full_hashes[s],
                std::span<const memory::BlockId>(
                    kv.blockTable(slot(r, i)))
                    .first(full_hashes[s].size()));
        }
        explicit_reclaims += cache.reclaim(2);
        // Finish: park every cached block, free the rest.
        for (int i = 0; i < kConcurrent; ++i)
            kv.release(slot(r, i));
    };

    for (int r = 0; r < 40; ++r)
        round(r);
    ASSERT_GT(kv.reclaimableBlocks(), 0);
    const std::size_t cached_before = cache.size();
    const std::uint64_t hits_before = hit_blocks;
    explicit_reclaims = 0;
    const std::uint64_t allocations_before = g_allocations;
    for (int r = 40; r < 120; ++r)
        round(r);
    EXPECT_EQ(g_allocations, allocations_before)
        << "a warmed park/pin/touch/reclaim cycle allocated";
    EXPECT_GT(hit_blocks, hits_before);
    EXPECT_GT(explicit_reclaims, 0);
    EXPECT_EQ(cache.size(), cached_before);
    EXPECT_EQ(kv.usedTokens(), 0);
}

/** The cache's per-block entry index rides in padding the block
 *  state already had: 16 bytes per block before the index existed. */
TEST(PrefixCacheAllocTest, BlockStateDidNotGrow)
{
    EXPECT_LE(memory::KvBlockManager::kBlockStateBytes, 16u);
}

/** Callables beyond kInlineSize must still work (heap fallback). */
TEST(EventQueueAllocTest, OversizedCallablesFallBackToHeap)
{
    EventQueue queue;
    struct Big
    {
        char payload[EventHandler::kInlineSize + 16];
    };
    Big big{};
    big.payload[0] = 42;
    // Size the arena first, so the one allocation below is the
    // callable's heap fallback.
    queue.schedule(0, [](Tick) {});
    queue.runNext();
    const std::uint64_t allocations_before = g_allocations;
    char seen = 0;
    queue.schedule(1, [big, &seen](Tick) { seen = big.payload[0]; });
    EXPECT_EQ(g_allocations, allocations_before + 1);
    while (!queue.empty())
        queue.runNext();
    EXPECT_EQ(seen, 42);
}

} // namespace
} // namespace sim
} // namespace lightllm
