/**
 * @file
 * Fleet-scale throughput of the event-driven simulation core,
 * single-threaded and sharded.
 *
 * Not a paper figure: this seeds the repo's performance trajectory.
 * The sweep has two axes. The instance axis (1 -> 1024 Past-Future
 * instances behind the future-memory router, proportional
 * closed-loop load) shows the shared event core's cost staying
 * near-flat as the fleet grows. The thread axis re-runs the large
 * fleets sharded over `--sim-threads` (DESIGN.md §9) — results
 * are bit-identical to the single-threaded rows, so the only
 * deltas worth reading are wall-clock ones. The headline is the
 * 512-instance speedup at 8 threads.
 *
 * Each point is a pfs_cli cell (cli::CliOptions through
 * cli::assembleScenario -> cli::runScenario): ShareGPT at seed 42,
 * llama2-7b on an A100-80G, Past-Future at a 5% reserve, closed-loop
 * clients behind the future-memory router. The 1-instance point is
 * the lone engine `pfs_cli --instances 1` runs.
 *
 * Memory per point is the growth of the resident high-water mark
 * over the point's run: the mark is reset to the current resident
 * set before the run (writing 5 to /proc/self/clear_refs) and read
 * back from VmHWM after it, so each point reports its own footprint
 * although the fleet is gone by the time it is read. Where the reset
 * fails the delta is the growth of the process high-water, which
 * stays 0 until a point outgrows every earlier one; the process
 * peak is reported too. Results land in BENCH_fleet_scale.json
 * (bench::writeJson) so CI can archive every run. With
 * PFS_BENCH_ENFORCE_FLOOR set, a full-mode run on at least 8 cores
 * fails below a 2x 512-instance 8-thread speedup; smoke mode
 * (PFS_BENCH_SMOKE, as CI runs it) has no 512-instance point, so
 * the floor is never checked there.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"

using namespace lightllm;

namespace {

/** One (instances, threads) sweep point. */
struct SweepSpec
{
    std::size_t instances;
    std::uint32_t threads;
};

struct ScalePoint
{
    std::size_t instances;
    std::uint32_t threads;
    std::size_t requests;
    std::size_t finished;
    double makespanSeconds;
    double wallMillis;
    double simReqPerSec;
    double eventsPerSec;
    double rssDeltaMb;

    /** Highest resident high-water mark read around the run; the
     *  process peak is the running max over the sweep. */
    double highWaterMb;
};

/**
 * Resident high-water mark in MiB: VmHWM from /proc/self/status,
 * or getrusage's process-lifetime peak where /proc is unavailable.
 */
double
highWaterMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        long long kib = 0;
        if (key == "VmHWM:" && status >> kib)
            return static_cast<double>(kib) / 1024.0;
        status.ignore(std::numeric_limits<std::streamsize>::max(),
                      '\n');
    }
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Reset the resident high-water mark to the current resident set;
 *  false where the kernel refuses the write. */
bool
resetHighWater()
{
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5" << std::flush;
    return static_cast<bool>(clear_refs);
}

ScalePoint
runFleet(std::size_t instances, std::uint32_t threads)
{
    // Load scales with the fleet so per-instance pressure stays
    // constant: the sweep isolates the cost of the shared event
    // core, not a shifting operating point.
    cli::CliOptions options;
    options.instances = instances;
    options.requests = bench::smokeSize(192, 24) * instances;
    options.clients = 24 * instances;
    options.reservedRatio = 0.05;
    options.simThreads = threads;
    const cli::Scenario scenario = cli::assembleScenario(options);

    const double high_before = highWaterMb();
    const double rss_base =
        resetHighWater() ? highWaterMb() : high_before;
    const auto [report, wall_ms] = bench::timedRun(scenario);
    const double high_after = highWaterMb();
    const double events = bench::servedEvents(report);

    ScalePoint point;
    point.instances = instances;
    point.threads = threads;
    point.requests = options.requests;
    point.finished = report.numFinished;
    point.makespanSeconds = ticksToSeconds(report.makespan);
    point.wallMillis = wall_ms;
    point.simReqPerSec = wall_ms > 0.0
        ? static_cast<double>(report.numFinished) / (wall_ms / 1e3)
        : 0.0;
    point.eventsPerSec =
        wall_ms > 0.0 ? events / (wall_ms / 1e3) : 0.0;
    point.rssDeltaMb = high_after - rss_base;
    point.highWaterMb = std::max(high_before, high_after);
    return point;
}

} // namespace

int
main()
{
    std::cout << "# Fleet scale: event-driven co-simulation "
                 "throughput, instance x thread sweep\n\n";

    // Instance axis first (threads = 1), then the sharded re-runs
    // of the large fleets, then the 1024-instance capstone. Smoke
    // mode keeps one tiny point per axis so the sharded path can
    // never silently rot.
    std::vector<SweepSpec> sweep;
    if (bench::smokeMode()) {
        sweep = {{1, 1}, {2, 1}, {4, 2}, {4, 8}};
    } else {
        sweep = {{1, 1},    {2, 1},    {4, 1},   {8, 1},
                 {16, 1},   {32, 1},   {64, 1},  {128, 1},
                 {256, 1},  {512, 1},  {512, 2}, {512, 4},
                 {512, 8},  {1024, 8}};
    }

    TextTable table({"instances", "threads", "requests",
                     "makespan_s", "wall_ms", "sim_req_per_s",
                     "approx_events_per_s", "rss_delta_mb"});
    std::vector<bench::JsonRow> rows;
    double base512 = 0.0;
    double sharded512 = 0.0;
    double peak_rss_mb = 0.0;
    for (const SweepSpec &spec : sweep) {
        const ScalePoint point =
            runFleet(spec.instances, spec.threads);
        peak_rss_mb = std::max(peak_rss_mb, point.highWaterMb);
        if (point.instances == 512 && point.threads == 1)
            base512 = point.eventsPerSec;
        if (point.instances == 512 && point.threads == 8)
            sharded512 = point.eventsPerSec;
        table.addRow({
            formatCount(static_cast<std::int64_t>(point.instances)),
            formatCount(static_cast<std::int64_t>(point.threads)),
            formatCount(static_cast<std::int64_t>(point.requests)),
            formatDouble(point.makespanSeconds, 2),
            formatDouble(point.wallMillis, 1),
            formatDouble(point.simReqPerSec, 1),
            formatDouble(point.eventsPerSec, 0),
            formatDouble(point.rssDeltaMb, 1),
        });
        rows.push_back(bench::JsonRow{
            {"instances", static_cast<double>(point.instances)},
            {"threads", static_cast<double>(point.threads)},
            {"requests", static_cast<double>(point.requests)},
            {"finished", static_cast<double>(point.finished)},
            {"makespan_s", point.makespanSeconds},
            {"wall_ms", point.wallMillis},
            {"sim_req_per_sec", point.simReqPerSec},
            {"events_per_sec", point.eventsPerSec},
            {"rss_delta_mb", point.rssDeltaMb},
            {"peak_rss_mb", peak_rss_mb},
        });
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::writeJson("fleet_scale", rows);
    std::cout << ". Reading: sim_req_per_sec is wall-clock "
                 "simulation throughput; events_per_sec should stay "
                 "flat along the instance axis if the event core "
                 "scales, and climb along the thread axis; "
                 "rss_delta_mb is each point's own footprint "
                 "(growth of the resident high-water mark over the "
                 "run, reset before it) and should grow linearly "
                 "with the fleet.\n";

    const unsigned cores = std::thread::hardware_concurrency();
    if (base512 > 0.0 && sharded512 > 0.0) {
        std::cout << "512-instance speedup at 8 threads: "
                  << formatDouble(sharded512 / base512, 2) << "x ("
                  << cores << " cores available)\n";
    }

    // Speedup floor, enforced on full-mode runs only (and only where
    // the machine can actually run 8 compute threads): generous
    // slack under the >=4x headline so scheduler jitter does not
    // flake the gate, while a serialization regression (windows
    // collapsing, barrier contention) still fails loudly.
    const char *enforce = std::getenv("PFS_BENCH_ENFORCE_FLOOR");
    if (enforce != nullptr && *enforce != '\0' &&
        !bench::smokeMode() && base512 > 0.0 && sharded512 > 0.0) {
        if (cores < 8) {
            std::cout << "Floor check skipped: " << cores
                      << " cores cannot host 8 compute threads\n";
            return 0;
        }
        const double speedup = sharded512 / base512;
        if (speedup < 2.0) {
            std::cout << "FLOOR CHECK FAILED: 512-instance "
                         "8-thread speedup "
                      << formatDouble(speedup, 2)
                      << "x is below the pinned 2x floor\n";
            return 1;
        }
        std::cout << "Floor check passed: speedup "
                  << formatDouble(speedup, 2) << "x >= 2x\n";
    }
    return 0;
}
