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

#include <iostream>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"

using namespace lightllm;

namespace {

/**
 * The spike as pfs_cli flags: `--workload sharegpt --requests 2400
 * --rate-schedule spike:4,28,40,60` on Past-Future (3%) A100s, with
 * an autoscaled fleet between 2 and 6 instances and an 8 s cold
 * start (smoke: 400 requests, a smaller spike, 1-4 instances, 4 s).
 */
cli::CliOptions
spikeOptions()
{
    cli::CliOptions options;
    options.workload = "sharegpt";
    options.requests = bench::smokeSize(2400, 400);
    if (bench::smokeMode()) {
        options.rateSchedule = "spike:3,30,10,15";
        options.minInstances = 1;
        options.maxInstances = 4;
        options.provisionDelaySeconds = 4.0;
    } else {
        options.rateSchedule = "spike:4,28,40,60";
        options.minInstances = 2;
        options.maxInstances = 6;
        options.provisionDelaySeconds = 8.0;
    }
    return options;
}

/**
 * Serve the spike on a fleet of `instances`; `policy` empty means a
 * static fleet, otherwise `--autoscale --scale-policy policy`.
 */
bench::TimedRun
runFleet(cli::CliOptions options, std::size_t instances,
         const std::string &policy)
{
    options.instances = instances;
    options.autoscale = !policy.empty();
    if (options.autoscale)
        options.scalePolicy = policy;
    cli::Scenario scenario = cli::assembleScenario(options);
    // A static fleet of one is still a fleet (its report counts
    // instance-seconds); no flag builds a one-instance cluster.
    if (scenario.fleetPerfs.empty())
        scenario.fleetPerfs.push_back(scenario.perf);
    return bench::timedRun(scenario);
}

} // namespace

int
main()
{
    std::cout << "# Autoscale: SLA attainment vs instance-seconds "
                 "under a 7x traffic spike\n\n";

    const cli::CliOptions options = spikeOptions();
    const cli::Scenario scenario = cli::assembleScenario(options);
    const double slo_target = options.scaleSloTarget;
    std::cout << "schedule: " << scenario.rateSchedule.describe()
              << ", " << scenario.dataset.requests.size()
              << " requests, target "
              << formatPercent(slo_target, 0)
              << " TTFT attainment\n\n";

    struct Lineup
    {
        std::string label;
        std::size_t instances;
        std::string policy;  // empty = static
    };
    const std::vector<Lineup> lineups{
        {"static-min", options.minInstances, ""},
        {"static-max", options.maxInstances, ""},
        {"reactive", options.minInstances, "reactive"},
        {"predictive", options.minInstances, "predictive"},
    };

    TextTable table({"fleet", "ttft_attainment", "sla_compliance",
                     "p99_ttft_s", "instance_seconds",
                     "peak_instances", "makespan_s"});
    std::vector<bench::JsonRow> rows;
    double static_max_cost = 0.0;
    double predictive_cost = 0.0;
    double predictive_attainment = 0.0;
    for (const Lineup &lineup : lineups) {
        const bench::TimedRun result =
            runFleet(options, lineup.instances, lineup.policy);
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
        {"slo_target", slo_target},
        {"predictive_meets_target",
         predictive_attainment >= slo_target ? 1.0 : 0.0},
        {"predictive_vs_static_max_cost",
         static_max_cost > 0.0 ? predictive_cost / static_max_cost
                               : 0.0},
    });
    std::cout << "\n";
    bench::writeJson("autoscale", rows);
    std::cout
        << ". Reading: predictive should meet the "
        << formatPercent(slo_target, 0)
        << " TTFT-attainment target with instance_seconds "
           "measurably below static-max (its forecasts buy the "
           "cold start back); reactive shows what detecting "
           "violations only after they complete costs; static-min "
           "is the spike collapsing.\n";
    return 0;
}
