/**
 * @file
 * pfs_perf: time one pfs_cli scenario from outside the library.
 *
 *   pfs_perf [--trace | --setup-only] <pfs_cli flags...>
 *
 * Untraced (the end-to-end numbers): exactly pfs_cli's code path,
 * cli::parseCliArgs -> cli::assembleScenario -> cli::runScenario, with
 * the set-up and run spans each timed by steady_clock and the peak
 * resident set read at exit. Set-up is repeated kSetupRepeats times
 * (the last scenario runs) so one process yields a median set-up time.
 *
 * Traced (the per-layer numbers): the scenario's engines are rebuilt
 * from the Scenario fields with three timing decorators -- around the
 * admission scheduler, the scheduling policy, and the request sink
 * between the load generator and the engine or router -- and the loop
 * is driven here, so finalize is timed on its own. Sharded fleets get
 * a full-detail TraceRecorder on the hub only, whose existing shard
 * samples give the window, barrier and mailbox numbers. Nothing inside
 * the library is instrumented; the decorators only forward.
 *
 * Output: line 1 is one JSON record (timings, request counts, simulated
 * metrics at full precision, per-layer metrics when traced); the rest
 * is the report exactly as `pfs_cli --format json` prints it, so the
 * caller can compare the two byte for byte. --setup-only stops after
 * the set-up samples: set-up time varies more between processes than
 * within one, so the caller samples it over many cheap processes.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli_scenario.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "metrics/report_io.hh"
#include "sim/sharded_sim_context.hh"
#include "sim/sim_context.hh"
#include "stats/percentile.hh"
#include "trace/trace_recorder.hh"
#include "workload/arrivals.hh"
#include "workload/client_pool.hh"
#include "workload/session_gen.hh"

namespace {

using namespace lightllm;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 15;

std::int64_t
elapsedNs(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

/** Flat JSON object; numbers keep all 17 significant digits. */
class JsonObject
{
  public:
    JsonObject() { os_.precision(17); }

    void
    number(const std::string &key, double value)
    {
        field(key);
        if (std::isfinite(value))
            os_ << value;
        else
            os_ << "null";
    }

    void
    raw(const std::string &key, const std::string &json)
    {
        field(key);
        os_ << json;
    }

    std::string str() const { return "{" + os_.str() + "}"; }

  private:
    void
    field(const std::string &key)
    {
        os_ << (first_ ? "" : ", ") << '"' << key << "\": ";
        first_ = false;
    }

    std::ostringstream os_;
    bool first_ = true;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Peak resident set of this process image. VmHWM, not ru_maxrss:
 * Linux carries ru_maxrss across exec, so a child of a large parent
 * would report the parent's footprint.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** Per-engine admission-layer counters (one engine = one thread at
 *  a time, so no synchronisation). */
struct CoreStats
{
    std::int64_t rounds = 0;
    std::int64_t decideNs = 0;
    std::int64_t queueDepthSum = 0;
    std::int64_t roundOpens = 0;
    std::int64_t roundOpenNs = 0;
    std::int64_t tests = 0;
    std::int64_t testNs = 0;
    std::int64_t admits = 0;
    std::int64_t victimCalls = 0;
    std::int64_t victimNs = 0;
    std::int64_t historyUpdates = 0;
    std::int64_t historyNs = 0;
    std::int64_t peeks = 0;

    /** Simulated wait before each request's first admission. */
    std::vector<Tick> queueWaits;
};

/** Times the admission calls; counts (only) the prediction peeks,
 *  which are too frequent to time without distorting the run. */
class TimedScheduler final : public core::Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<core::Scheduler> inner,
                   CoreStats &stats)
        : inner_(std::move(inner)), stats_(stats)
    {
    }

    void
    beginAdmissionRound(const core::SchedulerContext &ctx) override
    {
        const auto start = Clock::now();
        inner_->beginAdmissionRound(ctx);
        stats_.roundOpenNs += elapsedNs(start);
        ++stats_.roundOpens;
    }

    bool
    tryAdmit(const core::WaitingView &candidate) override
    {
        const auto start = Clock::now();
        const bool admitted = inner_->tryAdmit(candidate);
        stats_.testNs += elapsedNs(start);
        ++stats_.tests;
        stats_.admits += admitted ? 1 : 0;
        return admitted;
    }

    void
    onRequestFinished(RequestId id, TokenCount output_len) override
    {
        const auto start = Clock::now();
        inner_->onRequestFinished(id, output_len);
        stats_.historyNs += elapsedNs(start);
        ++stats_.historyUpdates;
    }

    void
    onRequestEvicted(RequestId id) override
    {
        inner_->onRequestEvicted(id);
    }

    TokenCount
    peekPrediction(RequestId id, TokenCount generated_len,
                   TokenCount max_new_tokens) override
    {
        ++stats_.peeks;
        return inner_->peekPrediction(id, generated_len,
                                      max_new_tokens);
    }

    TokenCount
    estimateLoad(const core::SchedulerContext &ctx) override
    {
        return inner_->estimateLoad(ctx);
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<core::Scheduler> inner_;
    CoreStats &stats_;
};

/** Times whole scheduling rounds and victim rankings, and records
 *  the queue wait of every first admission. */
class TimedPolicy final : public core::SchedulingPolicy
{
  public:
    TimedPolicy(std::unique_ptr<core::Scheduler> admission,
                std::unique_ptr<core::QueuePolicy> queue,
                CoreStats &stats)
        : SchedulingPolicy(std::move(admission), std::move(queue)),
          stats_(stats)
    {
    }

    void
    decideInto(const core::SchedulerContext &ctx,
               core::SchedulingDecision &out) override
    {
        const auto start = Clock::now();
        SchedulingPolicy::decideInto(ctx, out);
        stats_.decideNs += elapsedNs(start);
        ++stats_.rounds;
        stats_.queueDepthSum +=
            static_cast<std::int64_t>(ctx.waiting.size());
        for (RequestId id : out.admit) {
            for (const core::WaitingView &view : ctx.waiting) {
                if (view.id != id)
                    continue;
                if (view.generatedLen == 0)
                    stats_.queueWaits.push_back(ctx.now - view.arrival);
                break;
            }
        }
    }

    void
    victimOrder(const core::SchedulerContext &ctx,
                core::VictimOrder tie_break,
                std::vector<RequestId> &out) override
    {
        const auto start = Clock::now();
        SchedulingPolicy::victimOrder(ctx, tie_break, out);
        stats_.victimNs += elapsedNs(start);
        ++stats_.victimCalls;
    }

  private:
    CoreStats &stats_;
};

/** Times request submissions: queue insertion on one engine, the
 *  router on a fleet. */
class TimedSink final : public workload::RequestSink
{
  public:
    explicit TimedSink(workload::RequestSink &inner) : inner_(inner) {}

    void
    submitAt(const workload::RequestSpec &spec, Tick arrival) override
    {
        const auto start = Clock::now();
        inner_.submitAt(spec, arrival);
        ns += elapsedNs(start);
        ++calls;
    }

    std::int64_t calls = 0;
    std::int64_t ns = 0;

  private:
    workload::RequestSink &inner_;
};

/** Shard-profiler totals read back from the hub's trace rings. */
struct ShardStats
{
    std::int64_t windows = 0;
    std::int64_t stagedSteps = 0;
    std::int64_t mailboxCommits = 0;
    std::int64_t computeNs = 0;
    std::int64_t barrierNs = 0;

    /** Σ over windows of the slowest shard's compute: the part of
     *  the run the parallel windows keep the coordinator busy. */
    std::int64_t criticalNs = 0;
};

ShardStats
readShardStats(const trace::TraceRecorder &recorder)
{
    ShardStats stats;
    std::vector<std::int64_t> slowest;
    for (const trace::ShardTrace &sink : recorder.shards()) {
        const trace::TraceRing &ring = sink.ring();
        for (std::size_t i = 0; i < ring.size(); ++i) {
            const trace::TraceEvent &event = ring.at(i);
            switch (event.name) {
              case trace::TraceName::ShardWindow:
                ++stats.windows;
                stats.stagedSteps += event.arg1;
                break;
              case trace::TraceName::MailboxCommit:
                stats.mailboxCommits += event.arg0;
                break;
              case trace::TraceName::ShardCompute:
              {
                stats.computeNs += event.arg1;
                const auto window = static_cast<std::size_t>(event.arg2);
                if (slowest.size() <= window)
                    slowest.resize(window + 1, 0);
                slowest[window] = std::max(slowest[window], event.arg1);
                break;
              }
              case trace::TraceName::ShardBarrier:
                stats.barrierNs += event.arg0;
                break;
              default:
                break;
            }
        }
    }
    for (std::int64_t ns : slowest)
        stats.criticalNs += ns;
    return stats;
}

/** Everything the traced run measures. */
struct TracedRun
{
    metrics::RunReport report;
    std::vector<CoreStats> core;
    std::int64_t runNs = 0;
    std::int64_t finalizeNs = 0;
    std::int64_t routed = 0;
    std::int64_t routeNs = 0;
    std::int64_t events = 0;
    double tokenImbalance = 0.0;
    std::uint32_t threads = 1;
    ShardStats shards;
    std::uint64_t dropped = 0;
};

void
requireTraceable(const cli::Scenario &scenario)
{
    if (scenario.disagg || scenario.autoscale || scenario.traceReplay ||
        scenario.hasRateSchedule || scenario.drainAt > 0 ||
        scenario.schedulerConfig.tenantTree) {
        throw std::invalid_argument(
            "--trace supports single engines and static fleets with "
            "closed-loop, Poisson or session load only");
    }
}

/**
 * Attach the scenario's load generator to `sink` (and its completion
 * feed to `target`, an engine or a cluster), then call `loop`. The
 * generator choice mirrors cli::runScenario.
 */
template <typename Target, typename Loop>
void
driveLoad(const cli::Scenario &scenario, Target &target,
          workload::RequestSink &sink, Loop &&loop)
{
    if (scenario.sessionMode) {
        workload::SessionGenerator sessions(scenario.sessionConfig,
                                            sink);
        target.setOnFinish(
            [&](const workload::RequestSpec &spec, Tick tick) {
                sessions.onRequestFinished(spec.id, tick);
            });
        sessions.start();
        loop();
        return;
    }
    if (scenario.poissonRate > 0.0) {
        workload::submitPoissonArrivals(scenario.dataset, sink,
                                        scenario.poissonRate,
                                        scenario.seed);
        loop();
        return;
    }
    workload::ClosedLoopClientPool clients(
        scenario.clients, scenario.dataset, sink, scenario.thinkTime);
    target.setOnFinish(
        [&](const workload::RequestSpec &spec, Tick tick) {
            clients.onRequestFinished(spec.id, tick);
        });
    clients.start();
    loop();
}

/** Decorated engines run here; rings sized from the request count
 *  (bench.py checks that nothing dropped). */
TracedRun
runTraced(const cli::Scenario &scenario, std::size_t offered)
{
    requireTraceable(scenario);
    const std::size_t instances =
        scenario.fleetPerfs.empty() ? 1 : scenario.fleetPerfs.size();
    // One stats slot per engine, sized up front: the decorators hold
    // references into it.
    TracedRun run;
    run.core.resize(instances);
    const auto make_policy = [&](std::size_t index) {
        const core::SchedulerConfig &config = scenario.schedulerConfig;
        return std::make_unique<TimedPolicy>(
            std::make_unique<TimedScheduler>(
                core::makeScheduler(config), run.core[index]),
            core::makeQueuePolicy(config.queue), run.core[index]);
    };

    const auto start = Clock::now();
    if (scenario.fleetPerfs.empty()) {
        engine::ServingEngine engine(scenario.perf, make_policy(0),
                                     scenario.engineConfig);
        TimedSink sink(engine);
        driveLoad(scenario, engine, sink, [&] {
            while (engine.stepOnce(scenario.limits))
                ++run.events;
            const auto finalize = Clock::now();
            run.report = engine.report();
            run.finalizeNs = elapsedNs(finalize);
        });
        run.routed = sink.calls;
        run.routeNs = sink.ns;
        run.runNs = elapsedNs(start);
        return run;
    }

    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    engines.reserve(instances);
    for (std::size_t i = 0; i < instances; ++i) {
        engines.push_back(std::make_unique<engine::ServingEngine>(
            scenario.fleetPerfs[i], make_policy(i),
            scenario.engineConfig));
    }
    trace::TraceConfig trace_config;
    trace_config.detail = trace::TraceDetail::Full;
    trace_config.ringCapacity = std::max<std::size_t>(
        std::size_t{1} << 16, 4 * offered);
    trace::TraceRecorder recorder(trace_config);
    sim::SimContext root;
    std::unique_ptr<sim::ShardedSimContext> hub;
    if (scenario.simThreads > 1) {
        hub = std::make_unique<sim::ShardedSimContext>(
            root, scenario.simThreads);
        hub->attachTrace(&recorder);
        run.threads = scenario.simThreads;
    }
    cluster::ServingCluster fleet(std::move(engines), scenario.routing,
                                  root);
    TimedSink sink(fleet);
    driveLoad(scenario, fleet, sink, [&] {
        while (root.runNext())
            ++run.events;
        const auto finalize = Clock::now();
        run.report = fleet.finalizeReport();
        run.finalizeNs = elapsedNs(finalize);
    });
    if (hub) {
        run.events = static_cast<std::int64_t>(hub->deliveriesFired() +
                                               hub->stepsFired());
    }
    run.routed = sink.calls;
    run.routeNs = sink.ns;
    run.tokenImbalance = fleet.tokenImbalance();
    run.runNs = elapsedNs(start);
    run.shards = readShardStats(recorder);
    run.dropped = recorder.totalDropped();
    return run;
}

/** Per-layer metrics of one traced run (names as in BENCHMARK.json;
 *  sim.ns_per_event and trace.overhead need the untraced run and are
 *  derived by bench.py). */
std::string
layerMetrics(const TracedRun &run)
{
    CoreStats core;
    std::vector<double> waits;
    for (const CoreStats &engine : run.core) {
        core.rounds += engine.rounds;
        core.decideNs += engine.decideNs;
        core.queueDepthSum += engine.queueDepthSum;
        core.roundOpens += engine.roundOpens;
        core.roundOpenNs += engine.roundOpenNs;
        core.tests += engine.tests;
        core.testNs += engine.testNs;
        core.admits += engine.admits;
        core.victimCalls += engine.victimCalls;
        core.victimNs += engine.victimNs;
        core.historyUpdates += engine.historyUpdates;
        core.historyNs += engine.historyNs;
        core.peeks += engine.peeks;
        for (Tick wait : engine.queueWaits)
            waits.push_back(ticksToSeconds(wait));
    }
    std::sort(waits.begin(), waits.end());

    // Thread-busy time the shares divide: the run's wall time on one
    // thread; with shards, their summed compute plus the coordinator's
    // time outside the parallel windows.
    const ShardStats &shards = run.shards;
    const double wall = static_cast<double>(run.runNs);
    const double serial =
        run.threads > 1 ? wall - static_cast<double>(shards.criticalNs)
                        : wall;
    const double busy = run.threads > 1
        ? static_cast<double>(shards.computeNs) + serial
        : wall;
    const double core_ns = static_cast<double>(
        core.decideNs + core.victimNs + core.historyNs);
    const double other_ns = busy - core_ns -
        static_cast<double>(run.routeNs + run.finalizeNs);
    const metrics::RunReport &report = run.report;
    const double iterations = static_cast<double>(
        report.decodeSteps + report.prefillIterations);
    const double thread_wall = wall * run.threads;

    JsonObject out;
    out.number("core.rounds", core.rounds);
    out.number("core.decide_ns_per_round",
               ratio(core.decideNs, core.rounds));
    out.number("core.decide_share", ratio(core.decideNs, busy));
    out.number("core.round_open_ns",
               ratio(core.roundOpenNs, core.roundOpens));
    out.number("core.feasibility_tests", core.tests);
    out.number("core.feasibility_ns_per_test",
               ratio(core.testNs, core.tests));
    out.number("core.feasibility_share", ratio(core.testNs, busy));
    out.number("core.admit_ratio", ratio(core.admits, core.tests));
    out.number("core.queue_depth_mean",
               ratio(core.queueDepthSum, core.rounds));
    out.number("core.queue_wait_mean_s", stats::mean(waits));
    out.number("core.queue_wait_p99_s",
               stats::percentileSorted(waits, 0.99));
    out.number("core.future_error_mean", report.futureErrorMean());
    out.number("core.predicted_eviction_steps",
               report.predictedEvictionSteps);
    out.number("core.victim_rankings", core.victimCalls);
    out.number("core.victim_share", ratio(core.victimNs, busy));
    out.number("core.history_updates", core.historyUpdates);
    out.number("core.history_ns_per_update",
               ratio(core.historyNs, core.historyUpdates));
    out.number("core.prediction_peeks", core.peeks);
    out.number("core.avg_batch_size", report.avgBatchSize);
    out.number("engine.iterations", iterations);
    out.number("engine.other_ns_per_iteration",
               ratio(other_ns, iterations));
    out.number("engine.other_share", ratio(other_ns, busy));
    out.number("engine.prefill_tokens", report.totalPrefillTokens);
    out.number("engine.eviction_events", report.evictionEvents);
    out.number("engine.evicted_req_ratio", report.evictedReqRatio());
    out.number("memory.avg_consumed_ratio", report.avgConsumedMemory);
    out.number("memory.avg_future_required_ratio",
               report.avgFutureRequired);
    out.number("memory.prefix_hit_rate", report.prefixHitRate());
    out.number("cluster.routed", run.routed);
    out.number("cluster.route_ns_per_request",
               ratio(run.routeNs, run.routed));
    out.number("cluster.route_share", ratio(run.routeNs, busy));
    out.number("cluster.token_imbalance", run.tokenImbalance);
    out.number("sim.events", run.events);
    out.number("sim.windows", shards.windows);
    out.number("sim.steps_per_window",
               ratio(shards.stagedSteps, shards.windows));
    out.number("sim.shard_compute_share",
               ratio(shards.computeNs, thread_wall));
    out.number("sim.shard_barrier_share",
               ratio(shards.barrierNs, thread_wall));
    out.number("sim.mailbox_commits_per_window",
               ratio(shards.mailboxCommits, shards.windows));
    out.number("sim.coordinator_share",
               run.threads > 1 ? ratio(serial, wall) : 0.0);
    out.number("metrics.finalize_ms", run.finalizeNs * 1e-6);
    out.number("trace.dropped", static_cast<double>(run.dropped));
    return out.str();
}

/**
 * The serving outcome in poolable form: SLA-compliant requests and
 * their output tokens, the simulated makespan, and every finished
 * request's TTFT and MTPOT in ticks, so bench.py can take goodput,
 * attainment and percentiles over several seeds' requests at once.
 */
std::string
simOutcome(const metrics::RunReport &report, const metrics::SlaSpec &sla)
{
    std::int64_t compliant = 0;
    TokenCount good_tokens = 0;
    std::string ttft = "[";
    std::string mtpot = "[";
    for (const metrics::RequestRecord &record : report.requests) {
        if (sla.compliant(record)) {
            ++compliant;
            good_tokens += record.outputTokens;
        }
        const char *separator = ttft.size() > 1 ? ", " : "";
        ttft += separator + std::to_string(record.ttft());
        mtpot += separator + std::to_string(record.maxGap);
    }
    JsonObject out;
    out.number("compliant", static_cast<double>(compliant));
    out.number("good_tokens", static_cast<double>(good_tokens));
    out.number("makespan_s", ticksToSeconds(report.makespan));
    out.raw("ttft_ticks", ttft + "]");
    out.raw("mtpot_ticks", mtpot + "]");
    return out.str();
}

int
runHarness(int argc, char **argv)
{
    bool traced = false;
    bool setup_only = false;
    std::vector<const char *> cli_args{"pfs_cli"};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0)
            traced = true;
        else if (std::strcmp(argv[i], "--setup-only") == 0)
            setup_only = true;
        else
            cli_args.push_back(argv[i]);
    }
    const int cli_argc = static_cast<int>(cli_args.size());

    std::vector<double> setup_s;
    std::optional<cli::Scenario> scenario;
    for (int r = 0; r < kSetupRepeats; ++r) {
        scenario.reset();
        const auto start = Clock::now();
        cli::CliOptions options;
        const std::string error =
            cli::parseCliArgs(cli_argc, cli_args.data(), options);
        if (!error.empty() || options.showHelp) {
            std::cerr << "pfs_perf: " << (error.empty() ? "no scenario"
                                                        : error)
                      << "\n";
            return 2;
        }
        if (!options.traceOut.empty() || !options.csvPath.empty()) {
            std::cerr << "pfs_perf: times untraced runs only; drop "
                         "--trace-out/--csv\n";
            return 2;
        }
        scenario.emplace(cli::assembleScenario(options));
        setup_s.push_back(static_cast<double>(elapsedNs(start)) * 1e-9);
    }
    std::ostringstream setups;
    setups.precision(17);
    for (std::size_t i = 0; i < setup_s.size(); ++i)
        setups << (i == 0 ? "[" : ", ") << setup_s[i];
    setups << "]";
    JsonObject record;
    record.raw("setup_s", setups.str());
    if (setup_only) {
        std::cout << record.str() << "\n";
        return 0;
    }

    const std::size_t offered = scenario->sessionMode
        ? scenario->sessionConfig.numSessions *
            scenario->sessionConfig.turnsPerSession
        : scenario->dataset.requests.size();

    metrics::RunReport report;
    std::optional<TracedRun> traced_run;
    std::int64_t run_ns = 0;
    if (traced) {
        traced_run.emplace(runTraced(*scenario, offered));
        report = traced_run->report;
        run_ns = traced_run->runNs;
    } else {
        const auto start = Clock::now();
        report = cli::runScenario(*scenario);
        run_ns = elapsedNs(start);
    }

    record.number("run_s", static_cast<double>(run_ns) * 1e-9);
    record.number("peak_rss_mb", peakRssMb());
    record.number("offered", static_cast<double>(offered));
    record.number("finished", static_cast<double>(report.numFinished));
    record.number("shed", static_cast<double>(report.shedRequests));
    record.raw("sim", simOutcome(report, scenario->sla));
    if (traced_run)
        record.raw("layers", layerMetrics(*traced_run));
    std::cout << record.str() << "\n";
    metrics::writeSummaryJson(std::cout, report, scenario->sla);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runHarness(argc, argv);
    } catch (const std::exception &ex) {
        std::cerr << "pfs_perf: " << ex.what() << "\n";
        return 1;
    }
}
