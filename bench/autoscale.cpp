/**
 * @file
 * SLA attainment vs instance-seconds under a traffic spike.
 *
 * Not a paper figure: this pins the perf trajectory of the elastic
 * autoscaling subsystem (DESIGN.md §5). A ShareGPT stream runs at a
 * base rate, bursts to 7x for a sustained window, and returns to
 * base. Four fleets serve the identical arrival sequence:
 *
 *  - static-min: the cheap fleet a stationary planner would buy for
 *    the base rate — collapses during the spike;
 *  - static-max: provisioned for the peak the whole run — meets the
 *    SLA by paying peak cost at all hours;
 *  - reactive: threshold+hysteresis on *observed* attainment — it
 *    can only react after violations have already completed;
 *  - predictive: fleet-wide future-memory forecasts — it provisions
 *    when the committed KV demand exceeds headroom, one cold-start
 *    ahead of the violations.
 *
 * The claim BENCH_autoscale.json pins: the predictive controller
 * meets a >= 90% TTFT-attainment target with measurably fewer
 * instance-seconds than the static max-size fleet. A regression
 * shows up as predictive `ttft_attainment` dipping below target or
 * its `instance_seconds` approaching static-max's.
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "autoscale/scale_policy.hh"
#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "cluster/serving_cluster.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "model/perf_model.hh"
#include "workload/arrivals.hh"
#include "workload/datasets.hh"
#include "workload/rate_schedule.hh"

using namespace lightllm;

namespace {

struct SpikeScenario
{
    workload::Dataset dataset;
    workload::RateSchedule schedule =
        workload::RateSchedule::constant(1.0);
    metrics::SlaSpec sla;
    std::size_t minInstances = 2;
    std::size_t maxInstances = 6;
    Tick provisionDelay = secondsToTicks(8.0);
    double sloTarget = 0.9;
};

SpikeScenario
makeScenario()
{
    SpikeScenario scenario;
    const std::size_t requests = bench::smokeSize(2400, 400);
    scenario.dataset = workload::makeShareGpt(requests, 42);
    scenario.sla = metrics::SlaSpec::small7b13b();
    if (bench::smokeMode()) {
        scenario.schedule =
            workload::RateSchedule::spike(3.0, 30.0, 10.0, 15.0);
        scenario.minInstances = 1;
        scenario.maxInstances = 4;
        scenario.provisionDelay = secondsToTicks(4.0);
    } else {
        scenario.schedule =
            workload::RateSchedule::spike(4.0, 28.0, 40.0, 60.0);
    }
    return scenario;
}

std::unique_ptr<engine::ServingEngine>
makeInstance(const SpikeScenario &scenario)
{
    auto config = core::SchedulerConfig::pastFutureDefault(0.03);
    config.pastFuture.seedOutputLen = scenario.dataset.maxNewTokens;
    return std::make_unique<engine::ServingEngine>(
        model::PerfModel(model::ModelSpec::llama2_7b(),
                         model::HardwareSpec::a100_80g()),
        core::makeSchedulingPolicy(config), engine::EngineConfig{});
}

struct FleetResult
{
    metrics::RunReport report;
    double wallMillis = 0.0;
};

/**
 * Serve the scenario's arrival sequence on a fleet of
 * `initial_instances`; `policy_name` empty means a static fleet.
 */
FleetResult
runFleet(const SpikeScenario &scenario,
         std::size_t initial_instances,
         const std::string &policy_name)
{
    std::vector<std::unique_ptr<engine::ServingEngine>> engines;
    engines.reserve(initial_instances);
    for (std::size_t i = 0; i < initial_instances; ++i)
        engines.push_back(makeInstance(scenario));
    cluster::ServingCluster fleet(
        std::move(engines), cluster::RoutingPolicy::FutureMemory);

    if (!policy_name.empty()) {
        fleet.setInstanceFactory(
            [&scenario]() { return makeInstance(scenario); });
        autoscale::AutoscaleConfig config;
        config.minInstances = scenario.minInstances;
        config.maxInstances = scenario.maxInstances;
        config.provisionDelay = scenario.provisionDelay;
        config.sloTarget = scenario.sloTarget;
        config.sla = scenario.sla;
        auto policy = autoscale::makeScalePolicy(
            policy_name, scenario.sloTarget);
        fleet.enableAutoscale(config, std::move(policy));
    }

    workload::submitScheduledArrivals(scenario.dataset, fleet,
                                      scenario.schedule, 42);

    const auto start = std::chrono::steady_clock::now();
    FleetResult result;
    result.report = fleet.run();
    result.wallMillis = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    return result;
}

} // namespace

int
main()
{
    std::cout << "# Autoscale: SLA attainment vs instance-seconds "
                 "under a 7x traffic spike\n\n";

    const SpikeScenario scenario = makeScenario();
    std::cout << "schedule: " << scenario.schedule.describe()
              << ", " << scenario.dataset.requests.size()
              << " requests, target "
              << formatPercent(scenario.sloTarget, 0)
              << " TTFT attainment\n\n";

    struct Lineup
    {
        std::string label;
        std::size_t instances;
        std::string policy;  // empty = static
    };
    const std::vector<Lineup> lineups{
        {"static-min", scenario.minInstances, ""},
        {"static-max", scenario.maxInstances, ""},
        {"reactive", scenario.minInstances, "reactive"},
        {"predictive", scenario.minInstances, "predictive"},
    };

    TextTable table({"fleet", "ttft_attainment", "sla_compliance",
                     "p99_ttft_s", "instance_seconds",
                     "peak_instances", "makespan_s"});
    std::vector<bench::JsonRow> rows;
    double static_max_cost = 0.0;
    double predictive_cost = 0.0;
    double predictive_attainment = 0.0;
    for (const Lineup &lineup : lineups) {
        const FleetResult result =
            runFleet(scenario, lineup.instances, lineup.policy);
        const metrics::RunReport &report = result.report;
        const auto digest = report.latencyDigest();
        const double attainment =
            report.ttftAttainment(scenario.sla);
        if (lineup.label == "static-max")
            static_max_cost = report.instanceSeconds;
        if (lineup.label == "predictive") {
            predictive_cost = report.instanceSeconds;
            predictive_attainment = attainment;
        }
        table.addRow({
            lineup.label,
            formatPercent(attainment, 2),
            formatPercent(report.slaCompliantFraction(
                              scenario.sla),
                          2),
            formatDouble(digest.ttftPercentile(0.99), 2),
            formatDouble(report.instanceSeconds, 1),
            formatCount(static_cast<std::int64_t>(
                report.peakInstances)),
            formatDouble(ticksToSeconds(report.makespan), 1),
        });
        rows.push_back(bench::JsonRow{
            {"fleet", lineup.label},
            {"finished",
             static_cast<double>(report.numFinished)},
            {"ttft_attainment", attainment},
            {"sla_compliance",
             report.slaCompliantFraction(scenario.sla)},
            {"p50_ttft_s", digest.ttftPercentile(0.50)},
            {"p90_ttft_s", digest.ttftPercentile(0.90)},
            {"p99_ttft_s", digest.ttftPercentile(0.99)},
            {"goodput_tok_s",
             report.goodputTokensPerSec(scenario.sla)},
            {"instance_seconds", report.instanceSeconds},
            {"peak_instances",
             static_cast<double>(report.peakInstances)},
            {"scale_up_events",
             static_cast<double>(report.scaleUpEvents)},
            {"scale_down_events",
             static_cast<double>(report.scaleDownEvents)},
            {"makespan_s", ticksToSeconds(report.makespan)},
            {"wall_ms", result.wallMillis},
        });
    }
    table.print(std::cout);

    rows.push_back(bench::JsonRow{
        {"fleet", "claim"},
        {"slo_target", scenario.sloTarget},
        {"predictive_meets_target",
         predictive_attainment >= scenario.sloTarget ? 1.0 : 0.0},
        {"predictive_vs_static_max_cost",
         static_max_cost > 0.0 ? predictive_cost / static_max_cost
                               : 0.0},
    });
    bench::writeJson("BENCH_autoscale.json", "autoscale", rows);
    std::cout
        << "\nWrote BENCH_autoscale.json ("
        << (bench::smokeMode() ? "smoke" : "full")
        << " mode). Reading: predictive should meet the "
        << formatPercent(scenario.sloTarget, 0)
        << " TTFT-attainment target with instance_seconds "
           "measurably below static-max (its forecasts buy the "
           "cold start back); reactive shows what detecting "
           "violations only after they complete costs; static-min "
           "is the spike collapsing.\n";
    return 0;
}
