/**
 * @file
 * Event-core speed suite: how much simulated work per wall-clock
 * second the simulation core sustains, from the bare queue up to a
 * full fleet.
 *
 * Not a paper figure: this is the repo's perf gate for the hot path
 * described in DESIGN.md §8 (slot-arena event records, flat handle
 * index, zero-alloc schedule/fire). Three cases, coarse to fine:
 *
 *   queue_churn    pure EventQueue schedule/fire/cancel/reschedule
 *                  churn over a self-perpetuating population — no
 *                  engine, no model, just the arena and the heap;
 *                  its events are fired queue events.
 *   single_engine  one ServingEngine under closed-loop load.
 *   fleet_128      128 Past-Future instances behind the
 *                  future-memory router on one shared queue.
 *
 * The two serving cases are `pfs_cli` scenarios, run through
 * cli::runScenario and timed without their assembly.
 *
 * The two serving cases count report iterations, not fired events:
 * "events" = decode steps + prefill iterations + 2 per finished
 * request (its arrival and its completion delivery). A decode run
 * (DESIGN.md §8) settles many decode steps per fired Step event, so
 * this is a measure of simulated work that stays comparable across
 * engine versions, while the fired-event count is far lower.
 *
 * Results land in BENCH_core_speed.json. When the
 * PFS_BENCH_ENFORCE_FLOOR environment variable is set (CI does this
 * for Release builds only — Debug codegen is not a perf statement),
 * the queue_churn case is checked against a pinned floor and the
 * bench exits non-zero on a >30% regression.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "sim/event_queue.hh"

using namespace lightllm;

namespace {

/**
 * Pinned regression floor for queue_churn, in events/sec. The
 * rebuilt arena core sustains ~11M events/sec on a Release dev-box
 * build; the pre-arena core measured ~2.1M on the same machine. The
 * floor sits well under the rebuilt number so slower shared CI
 * runners pass, but above anything the old core could reach — a
 * regression to pre-arena behaviour trips the gate even after the
 * 30% slack below.
 */
constexpr double kChurnFloorEventsPerSec = 3.0e6;

/** Gate fails below this fraction of the pinned floor. */
constexpr double kFloorSlack = 0.7;

struct CaseResult
{
    const char *name;
    double events;
    double wallMillis;
    double eventsPerSec;
    bench::JsonRow row;
};

double
rate(double events, double wall_ms)
{
    return wall_ms > 0.0 ? events / (wall_ms / 1e3) : 0.0;
}

// --- Case 1: pure queue churn -------------------------------------------

/**
 * A self-perpetuating event population: every fire schedules its
 * replacement at a pseudo-random delay until the fire budget is
 * spent, so the queue holds ~`population` pending events for the
 * whole run. Every 16th drained tick adds handle churn — a burst of
 * side events of which half are cancelled and half rescheduled —
 * exercising the slot free list and the heap index maintenance, not
 * just push/pop.
 */
struct ChurnState
{
    sim::EventQueue queue;
    std::size_t fired = 0;
    std::size_t target = 0;
    std::uint64_t mix = 0x9e3779b97f4a7c15ull;

    Tick
    nextDelay()
    {
        mix = mix * 6364136223846793005ull + 1442695040888963407ull;
        return 1 + static_cast<Tick>((mix >> 33) % 64);
    }

    void
    fire(Tick now)
    {
        ++fired;
        if (fired + queue.size() < target) {
            queue.schedule(now + nextDelay(),
                           [this](Tick when) { fire(when); });
        }
    }
};

CaseResult
runQueueChurn()
{
    const std::size_t population = 4096;
    const std::size_t totalFires =
        bench::smokeSize(8'000'000, 400'000);

    ChurnState state;
    state.target = totalFires;
    std::vector<sim::EventId> handles(64, sim::kInvalidEventId);

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < population; ++i) {
        state.queue.schedule(
            state.nextDelay(),
            [&state](Tick when) { state.fire(when); });
    }
    std::size_t rounds = 0;
    while (!state.queue.empty()) {
        const Tick tick = state.queue.nextTick();
        while (!state.queue.empty() && state.queue.nextTick() == tick)
            state.queue.runNext();
        if (++rounds % 16 == 0 && !state.queue.empty()) {
            for (std::size_t i = 0; i < handles.size(); ++i) {
                handles[i] = state.queue.schedule(
                    state.queue.nextTick() + 100 +
                        static_cast<Tick>(i),
                    [](Tick) {});
            }
            for (std::size_t i = 0; i < handles.size(); i += 2)
                state.queue.cancel(handles[i]);
            for (std::size_t i = 1; i < handles.size(); i += 2) {
                state.queue.reschedule(
                    handles[i], state.queue.nextTick() + 5);
            }
        }
    }
    const auto wall = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - start);

    // Only self-perpetuating fires count (the churn side events are
    // free riders), matching how the pre-rebuild baseline was
    // measured so the floor comparison stays apples-to-apples.
    CaseResult result;
    result.name = "queue_churn";
    result.events = static_cast<double>(state.fired);
    result.wallMillis = wall.count();
    result.eventsPerSec = rate(result.events, result.wallMillis);
    result.row = bench::JsonRow{
        {"case", "queue_churn"},
        {"events", result.events},
        {"wall_ms", result.wallMillis},
        {"events_per_sec", result.eventsPerSec},
        {"floor_events_per_sec", kChurnFloorEventsPerSec},
    };
    return result;
}

// --- Cases 2 and 3: engine and fleet ------------------------------------

CaseResult
runSingleEngine()
{
    const std::size_t requests = bench::smokeSize(4096, 256);
    cli::CliOptions options;
    options.requests = requests;
    options.reservedRatio = 0.05;
    options.clients = bench::smokeSize(64, 24);
    const auto [report, wall_ms] =
        bench::timedRun(cli::assembleScenario(options));

    CaseResult result;
    result.name = "single_engine";
    result.events = bench::servedEvents(report);
    result.wallMillis = wall_ms;
    result.eventsPerSec = rate(result.events, result.wallMillis);
    result.row = bench::JsonRow{
        {"case", "single_engine"},
        {"requests", static_cast<double>(requests)},
        {"finished", static_cast<double>(report.numFinished)},
        {"events", result.events},
        {"wall_ms", result.wallMillis},
        {"events_per_sec", result.eventsPerSec},
    };
    return result;
}

CaseResult
runFleet()
{
    // Smoke keeps the shape (a routed fleet on one shared queue) at
    // a size a CI smoke pass can afford; the full run is the
    // 128-instance configuration the acceptance target names.
    const std::size_t instances = bench::smokeSize(128, 8);
    const std::size_t requests = 96 * instances;
    cli::CliOptions options;
    options.instances = instances;
    options.requests = requests;
    options.clients = 24 * instances;
    options.reservedRatio = 0.05;
    const auto [report, wall_ms] =
        bench::timedRun(cli::assembleScenario(options));

    CaseResult result;
    result.name = "fleet_128";
    result.events = bench::servedEvents(report);
    result.wallMillis = wall_ms;
    result.eventsPerSec = rate(result.events, result.wallMillis);
    result.row = bench::JsonRow{
        {"case", "fleet_128"},
        {"instances", static_cast<double>(instances)},
        {"requests", static_cast<double>(requests)},
        {"finished", static_cast<double>(report.numFinished)},
        {"events", result.events},
        {"wall_ms", result.wallMillis},
        {"events_per_sec", result.eventsPerSec},
    };
    return result;
}

} // namespace

int
main()
{
    std::cout << "# Core speed: events/sec from bare queue to "
                 "128-instance fleet\n\n";

    const std::vector<CaseResult> results = {
        runQueueChurn(),
        runSingleEngine(),
        runFleet(),
    };

    TextTable table({"case", "events", "wall_ms", "events_per_s"});
    std::vector<bench::JsonRow> rows;
    for (const CaseResult &result : results) {
        table.addRow({
            result.name,
            formatDouble(result.events, 0),
            formatDouble(result.wallMillis, 1),
            formatDouble(result.eventsPerSec, 0),
        });
        rows.push_back(result.row);
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::writeJson("core_speed", rows);
    std::cout << ".\n";

    const char *enforce = std::getenv("PFS_BENCH_ENFORCE_FLOOR");
    if (enforce != nullptr && *enforce != '\0') {
        const double threshold =
            kChurnFloorEventsPerSec * kFloorSlack;
        const double measured = results.front().eventsPerSec;
        if (measured < threshold) {
            std::cout << "FLOOR CHECK FAILED: queue_churn "
                      << formatDouble(measured, 0)
                      << " events/sec is below "
                      << formatDouble(threshold, 0) << " (70% of the "
                      << formatDouble(kChurnFloorEventsPerSec, 0)
                      << " pinned floor)\n";
            return 1;
        }
        std::cout << "Floor check passed: queue_churn "
                  << formatDouble(measured, 0)
                  << " events/sec >= "
                  << formatDouble(threshold, 0) << "\n";
    }
    return 0;
}
