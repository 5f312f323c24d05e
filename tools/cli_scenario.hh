/**
 * @file
 * Scenario assembly: the one run path of `pfs_cli`, the benches and
 * `perf/`.
 *
 * A scenario (workload, scheduler, engine, fleet, SLA) is described
 * as CliOptions, assembled with assembleScenario and run with
 * runScenario. `pfs_cli` fills the options from flags; a bench fills
 * them per cell and patches the assembled Scenario only for what no
 * flag expresses (a warm history, a client count sized from the
 * dataset). Parsing and assembly are separated from main() so tests
 * can cover the flag-to-config path without spawning a process.
 */

#ifndef LIGHTLLM_TOOLS_CLI_SCENARIO_HH
#define LIGHTLLM_TOOLS_CLI_SCENARIO_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "base/types.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "disagg/disagg_cluster.hh"
#include "engine/engine_config.hh"
#include "metrics/report.hh"
#include "metrics/sla.hh"
#include "model/perf_model.hh"
#include "trace/trace_event.hh"
#include "workload/datasets.hh"
#include "workload/rate_schedule.hh"
#include "workload/session_gen.hh"

namespace lightllm {
namespace cli {

/**
 * Everything configurable from the command line, as raw values.
 *
 * Adding a flag takes the field here plus one row of the flag table
 * (`kFlags` in cli_scenario.cc): name, metavar, --help section and
 * text, `store<&CliOptions::field>`, and the field's value domain.
 * A flag whose value is a name also needs its `Named` table, which
 * the row points at: parsing accepts only the table's names, --help
 * lists them, and assembly looks the name up. Parsing and --help
 * both read that row; only a rule spanning several flags needs
 * code, in the cross-flag validation.
 */
struct CliOptions
{
    // Workload.
    std::string workload = "sharegpt";
    std::size_t requests = 512;
    std::uint64_t seed = 42;

    // Multi-turn session workload (closed loop by construction):
    // active when sessions > 0, replacing --workload/--requests/
    // --clients. Each session shares the global system prompt and
    // prepends its full history to every turn.
    std::size_t sessions = 0;
    std::size_t turns = 4;
    TokenCount systemPromptTokens = 512;

    /** Shared-prefix KV reuse (default off: no prefix path runs). */
    std::string prefixCache = "off";

    // Load generation: closed-loop clients by default; a positive
    // rate switches to open-loop Poisson arrivals, and a rate
    // schedule to open-loop time-varying arrivals.
    std::size_t clients = 32;
    double poissonRate = 0.0;
    double thinkSeconds = 0.0;

    /** Time-varying arrival schedule spec (see parseRateSchedule:
     *  const:R | steps:... | spike:... | diurnal:...); empty keeps
     *  the --rate / closed-loop behaviour. */
    std::string rateSchedule;

    // Scheduler.
    std::string scheduler = "past_future";
    double overcommit = 1.0;
    double watermark = 0.95;
    double reservedRatio = 0.03;
    std::size_t windowSize = core::kPaperWindowSize;

    // Queue ordering and priority classes.
    std::string queuePolicy = "fcfs";

    /** Comma-separated class shares, lowest class first (e.g.
     *  "0.8,0.2" = 80% priority 0, 20% priority 1); empty keeps
     *  every request at priority 0. */
    std::string priorityMix;

    // Multi-tenant composition and the tenant scheduler tree.

    /** Number of tenants drawing the workload's requests (0 =
     *  untagged, every request in tenant 0; ids are 0..N-1). */
    std::size_t tenants = 0;

    /** Zipf exponent of the tenant traffic shares (0 = uniform). */
    double tenantZipf = 0.0;

    /** Explicit comma-separated tenant shares (overrides the Zipf
     *  shape; count must equal --tenants). */
    std::string tenantWeights;

    /** Route scheduling through the per-tenant fair tree (weights
     *  follow the traffic shares); off keeps the flat bit-exact
     *  pipeline. */
    bool tenantTree = false;

    // Model / hardware.
    std::string model = "llama2-7b";
    std::string hardware = "a100-80g";
    int tensorParallel = 1;

    /** Dataset CSV (with an arrival_us column) replayed at its
     *  recorded timestamps; replaces --workload/--requests and the
     *  synthetic load generators. */
    std::string traceReplay;

    // Fleet (cluster co-simulation when instances > 1).
    std::size_t instances = 1;

    /** Compute threads for fleet/disagg co-simulation (default 1 =
     *  the classic single-queue loop; K > 1 shards the engines
     *  across K threads with bit-identical results, DESIGN.md §9). */
    std::size_t simThreads = 1;

    // Disaggregated prefill/decode serving (src/disagg). The knobs
    // use 0 / -1 sentinels so "needs --disagg" is diagnosable: with
    // --disagg they resolve to one instance per pool, a 64-deep
    // handoff queue, and the hardware interconnect profile.
    bool disagg = false;
    std::size_t prefillInstances = 0;
    std::size_t decodeInstances = 0;
    std::size_t handoffDepth = 0;
    double linkGbps = 0.0;
    double linkLatencySeconds = -1.0;

    /** Routing policy name (see --help); empty = future-memory.
     *  Only meaningful with instances > 1 or autoscale. */
    std::string routing;

    /** Comma-separated per-instance hardware, each `name[:count]`
     *  (e.g. "a100-80g:2,a30:2"); counts must sum to --instances.
     *  Empty = every instance uses --hardware. */
    std::string platformMix;

    /** Drain instance 0 at this many simulated seconds (0 = never);
     *  its queued requests re-dispatch through the router. */
    double drainAtSeconds = 0.0;

    // Elastic autoscaling (forces a cluster even at --instances 1).
    bool autoscale = false;
    std::size_t minInstances = 1;
    std::size_t maxInstances = 8;

    /** Cold-start delay of a provisioned instance, seconds. */
    double provisionDelaySeconds = 10.0;

    /** Scale policy name. */
    std::string scalePolicy = "predictive";

    /** TTFT/MTPOT attainment target the controller defends. */
    double scaleSloTarget = 0.9;

    /** Overload admission control at max scale (see
     *  autoscale::ShedPolicy). */
    std::string shedPolicy = "never";

    // SLA: 0 means "derive from model size" (paper defaults).
    double ttftLimitSeconds = 0.0;
    double mtpotLimitSeconds = 0.0;

    // Engine.
    TokenCount blockSize = 16;
    bool splitFuse = false;
    std::size_t maxBatchSize = 0;
    std::string evictionPolicy = "lifo";
    std::string evictionMode = "recompute";
    std::size_t warmupRequests = 0;

    // Run limits.
    std::size_t maxFinishedRequests = 0;
    double maxSimSeconds = 0.0;

    // Output.
    std::string format = "table";
    std::string csvPath;

    // Flight recorder (src/trace). Tracing is off unless --trace-out
    // names a file; the recorder observes but never steers, so the
    // RunReport stays byte-identical (pinned by test_trace).

    /** Chrome trace-event JSON output path (empty = tracing off);
     *  a per-request timeline also lands at PATH.requests.csv. */
    std::string traceOut;

    /** Capture level; empty defaults to "requests" when
     *  --trace-out is set. */
    std::string traceDetail;

    /** Ring capacity per sink, in events (0 = the 65536 default). */
    std::size_t traceLimit = 0;

    bool showHelp = false;
};

/**
 * Parse argv into `options`.
 *
 * A value outside its flag's domain (non-finite, out of range, or
 * too large for its field) is rejected as "bad value for --X: V".
 *
 * @return Empty string on success, otherwise a diagnostic naming the
 *         offending flag (the options are then unspecified).
 */
std::string parseCliArgs(int argc, const char *const *argv,
                         CliOptions &options);

/** Flag reference printed by --help. */
void printCliUsage(std::ostream &os);

/** Builds a scale policy defending an attainment target. */
using ScalePolicyFactory =
    std::unique_ptr<autoscale::ScalePolicy> (*)(double slo_target);

/** A fully assembled, runnable scenario. */
struct Scenario
{
    /** Empty (bar the name) in session mode. */
    workload::Dataset dataset;

    /** Session workload; meaningful when sessionMode is set. */
    bool sessionMode = false;
    workload::SessionWorkloadConfig sessionConfig;
    core::SchedulerConfig schedulerConfig;
    model::PerfModel perf;
    metrics::SlaSpec sla;
    engine::EngineConfig engineConfig;
    engine::RunLimits limits;

    std::size_t clients = 0;
    double poissonRate = 0.0;
    Tick thinkTime = 0;
    std::uint64_t seed = 0;

    /** Per-instance performance models; populated (and sized to
     *  --instances) only for fleet scenarios. Empty = one engine
     *  driven by `perf` (the bit-exact single-instance path). */
    std::vector<model::PerfModel> fleetPerfs = {};
    cluster::RoutingPolicy routing =
        cluster::RoutingPolicy::FutureMemory;

    /** Drain instance 0 at this tick (0 = never). */
    Tick drainAt = 0;

    /** Sharded co-simulation threads (fleet/disagg paths only;
     *  1 = the classic single-queue loop). */
    std::uint32_t simThreads = 1;

    /** Open-loop time-varying arrivals when set. */
    bool hasRateSchedule = false;
    workload::RateSchedule rateSchedule =
        workload::RateSchedule::constant(1.0);

    /** Elastic autoscaling (cluster path, possibly from a fleet of
     *  one). */
    bool autoscale = false;
    autoscale::AutoscaleConfig autoscaleConfig = {};

    /** The --scale-policy; set with autoscale. */
    ScalePolicyFactory scalePolicy = nullptr;

    /** Tenant count of the workload (0 = single tenant); gates the
     *  per-tenant report breakdown. */
    std::size_t tenants = 0;

    /** Open-loop replay of the dataset's recorded arrival ticks. */
    bool traceReplay = false;

    /** Disaggregated prefill/decode fleet (src/disagg); the config
     *  arrives fully resolved (hardware interconnect profile +
     *  overrides applied at assembly). */
    bool disagg = false;
    std::size_t prefillInstances = 1;
    std::size_t decodeInstances = 1;
    disagg::DisaggConfig disaggConfig = {};

    /** Flight-recorder output path (empty = tracing off); the
     *  exported JSON lands here and the per-request timeline at
     *  `traceOut + ".requests.csv"`. */
    std::string traceOut = {};

    /** Capture level; Off leaves every trace hook a dead branch. */
    trace::TraceDetail traceDetail = trace::TraceDetail::Off;

    /** Ring capacity per sink, in events. */
    std::size_t traceLimit = 65536;
};

/**
 * Turn parsed options into a runnable scenario.
 *
 * @throws std::invalid_argument naming the option when a name
 *         (workload, scheduler, model, hardware, ...) is unknown, or
 *         when the options break a cross-flag rule parseCliArgs
 *         enforces (programmatic callers skip the parse).
 */
Scenario assembleScenario(const CliOptions &options);

/**
 * As above, but serve `dataset` in place of the one --workload and
 * --requests would generate: a dataset no workload name makes (a
 * concatenation, a synthetic mix). The priority and tenant mixes
 * apply to it, and the schedulers seed their cold start from its
 * cap, as on the flag path.
 *
 * @throws std::invalid_argument as above, and when the options name
 *         their own dataset (--sessions, --trace-replay).
 */
Scenario assembleScenario(const CliOptions &options,
                          workload::Dataset dataset);

/** Run the scenario's simulation to completion. When the scenario
 *  enables tracing, a recorder is created for the run and the trace
 *  files are written next to returning the report. */
metrics::RunReport runScenario(const Scenario &scenario);

/**
 * As above, but record into a caller-owned recorder (may be null)
 * and skip the file export — tests compare traces in memory. The
 * recorder must outlive the call; pass one whose detail matches the
 * scenario's.
 */
metrics::RunReport runScenario(const Scenario &scenario,
                               trace::TraceRecorder *recorder);

/** Render the report per options.format / options.csvPath; throws
 *  std::runtime_error when the CSV file cannot be written. */
void emitReport(std::ostream &os, const CliOptions &options,
                const Scenario &scenario,
                const metrics::RunReport &report);

} // namespace cli
} // namespace lightllm

#endif // LIGHTLLM_TOOLS_CLI_SCENARIO_HH
