/**
 * @file
 * Victim-tenant p99 TTFT under a 10x noisy-neighbor spike.
 *
 * Not a paper figure: this pins the isolation property of the
 * per-tenant queues (DESIGN.md §6). A well-behaved victim tenant
 * streams steady traffic; midway through, an aggressor tenant
 * bursts the same request shape at 10x the victim's rate. Three
 * runs serve the identical arrival sequences on one engine:
 *
 *  - solo: the victim alone — the TTFT the tenant was promised;
 *  - flat: both tenants through the flat FCFS waiting queue — the
 *    spike floods the queue and the victim waits behind it;
 *  - tree: both tenants through `--tenant-tree` (equal-weight DRR
 *    over per-tenant queues, each rate-gated at its provisioned
 *    token rate) — the aggressor's backlog waits in its own queue
 *    instead of saturating the machine, so the victim's queue keeps
 *    solo-like service.
 *
 * The claim BENCH_tenant_isolation.json pins: the tree keeps the
 * victim's p99 TTFT within 1.5x of solo while the flat queue lets
 * it degrade past 3x. A regression shows up as `tree_over_solo`
 * rising toward `flat_over_solo`; the bench exits non-zero when
 * the claim fails, so the `tenant` ctest gate enforces it.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"
#include "core/scheduler_factory.hh"
#include "engine/serving_engine.hh"
#include "metrics/report.hh"
#include "model/perf_model.hh"
#include "stats/percentile.hh"
#include "workload/arrivals.hh"
#include "workload/datasets.hh"

using namespace lightllm;

namespace {

struct IsolationScenario
{
    workload::Dataset victim;
    workload::Dataset aggressor;
    double victimRate = 4.0;
    double aggressorRate = 40.0;  // the 10x spike
    Tick spikeStart = 0;
};

/** Tag every request in `dataset` with one tenant identity. */
void
tagTenant(workload::Dataset &dataset, base::TenantId tenant,
          RequestId id_offset)
{
    for (workload::RequestSpec &spec : dataset.requests) {
        spec.id += id_offset;
        spec.cls.tenant = tenant;
    }
}

IsolationScenario
makeScenario()
{
    IsolationScenario scenario;
    const std::size_t victims = bench::smokeSize(400, 60);
    const std::size_t aggressors = bench::smokeSize(1600, 240);
    // Victim: chat-sized requests the engine serves comfortably.
    scenario.victim = workload::makeUniformDataset(
        "victim", victims, 128, 256, 32, 64, 64, 101);
    tagTenant(scenario.victim, 0, 0);
    // Aggressor: the same request shape at 10x the arrival rate,
    // bursting once the victim's stream is in steady state. Rate
    // (not size) is the noisy-neighbor axis: the queue floods but
    // slot turnover stays fast, so fair admission can still slot
    // the victim in.
    scenario.aggressor = workload::makeUniformDataset(
        "aggressor", aggressors, 128, 256, 32, 64, 64, 202);
    tagTenant(scenario.aggressor, 1,
              static_cast<RequestId>(victims));
    scenario.spikeStart =
        secondsToTicks(bench::smokeMode() ? 4.0 : 25.0);
    return scenario;
}

/** A capacity-bound engine: the spike must queue, not just batch. */
model::PerfModel
benchPerf()
{
    model::HardwareSpec hw = model::HardwareSpec::a100_80g();
    // Weights (~13.5 GB) plus a deliberately small KV budget.
    hw.memBytesPerDevice = static_cast<ByteCount>(20e9);
    return model::PerfModel(model::ModelSpec::llama2_7b(), hw);
}

/** Nearest-rank TTFT percentile `q` in seconds over one tenant's
 *  requests (the same rank LatencyDigest::ttftPercentile uses). */
double
tenantTtftSeconds(const metrics::RunReport &report,
                  base::TenantId tenant, double q)
{
    std::vector<double> samples;
    for (const metrics::RequestRecord &record : report.requests) {
        if (record.cls.tenant == tenant)
            samples.push_back(ticksToSeconds(record.ttft()));
    }
    std::sort(samples.begin(), samples.end());
    return stats::percentileSorted(samples, q);
}

struct IsolationResult
{
    metrics::RunReport report;
    double victimP99 = 0.0;
    double wallMillis = 0.0;
};

IsolationResult
runLineup(const IsolationScenario &scenario, bool with_aggressor,
          bool tenant_tree)
{
    auto config = core::SchedulerConfig::pastFutureDefault(0.03);
    config.pastFuture.seedOutputLen =
        scenario.victim.maxNewTokens;
    if (tenant_tree) {
        config.tenantTree = true;
        config.tenantSpec.numTenants = 2;
        // Each tenant's queue is rate-gated at its provisioned
        // token rate (with one second of burst credit): the victim
        // never reaches its cap, while the aggressor's 10x spike
        // waits in its own queue instead of saturating KV memory.
        // DRR alone shares the *service*; the rate gate is what
        // keeps the machine unsaturated for the victim.
        config.tenantSpec.tokensPerSecond = 3500.0;
        config.tenantSpec.burstTokens = 1200;
    }
    engine::ServingEngine engine(
        benchPerf(), core::makeSchedulingPolicy(config),
        engine::EngineConfig{});

    workload::submitPoissonArrivals(scenario.victim, engine,
                                    scenario.victimRate, 7);
    if (with_aggressor) {
        workload::submitPoissonArrivals(
            scenario.aggressor, engine, scenario.aggressorRate, 11,
            scenario.spikeStart);
    }

    const auto start = std::chrono::steady_clock::now();
    IsolationResult result;
    result.report = engine.run();
    result.wallMillis = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    result.victimP99 = tenantTtftSeconds(result.report, 0, 0.99);
    return result;
}

} // namespace

int
main()
{
    std::cout << "# Tenant isolation: victim p99 TTFT under a 10x "
                 "noisy-neighbor spike\n\n";

    const IsolationScenario scenario = makeScenario();
    std::cout << scenario.victim.requests.size() << " victim + "
              << scenario.aggressor.requests.size()
              << " aggressor requests, victim "
              << scenario.victimRate << "/s, aggressor "
              << scenario.aggressorRate << "/s from t="
              << ticksToSeconds(scenario.spikeStart) << "s\n\n";

    struct Lineup
    {
        std::string label;
        bool aggressor;
        bool tree;
    };
    const std::vector<Lineup> lineups{
        {"solo", false, false},
        {"flat", true, false},
        {"tree", true, true},
    };

    TextTable table({"lineup", "scheduler", "victim_p50_ttft_s",
                     "victim_p90_ttft_s", "victim_p99_ttft_s",
                     "aggressor_p99_ttft_s", "finished",
                     "makespan_s"});
    std::vector<bench::JsonRow> rows;
    double solo_p99 = 0.0;
    double flat_p99 = 0.0;
    double tree_p99 = 0.0;
    for (const Lineup &lineup : lineups) {
        const IsolationResult result =
            runLineup(scenario, lineup.aggressor, lineup.tree);
        const metrics::RunReport &report = result.report;
        if (lineup.label == "solo")
            solo_p99 = result.victimP99;
        if (lineup.label == "flat")
            flat_p99 = result.victimP99;
        if (lineup.label == "tree")
            tree_p99 = result.victimP99;
        const double victim_p50 = tenantTtftSeconds(report, 0, 0.50);
        const double victim_p90 = tenantTtftSeconds(report, 0, 0.90);
        const double aggressor_p99 = tenantTtftSeconds(report, 1, 0.99);
        table.addRow({
            lineup.label,
            report.schedulerName,
            formatDouble(victim_p50, 3),
            formatDouble(victim_p90, 3),
            formatDouble(result.victimP99, 3),
            formatDouble(aggressor_p99, 3),
            formatCount(
                static_cast<std::int64_t>(report.numFinished)),
            formatDouble(ticksToSeconds(report.makespan), 1),
        });
        rows.push_back(bench::JsonRow{
            {"lineup", lineup.label},
            {"scheduler", report.schedulerName},
            {"victim_p50_ttft_s", victim_p50},
            {"victim_p90_ttft_s", victim_p90},
            {"victim_p99_ttft_s", result.victimP99},
            {"aggressor_p99_ttft_s", aggressor_p99},
            {"finished",
             static_cast<double>(report.numFinished)},
            {"p99_ttft_s", report.latencyDigest().ttftPercentile(0.99)},
            {"throughput_tok_s", report.throughputTokensPerSec()},
            {"makespan_s", ticksToSeconds(report.makespan)},
            {"wall_ms", result.wallMillis},
        });
    }
    table.print(std::cout);

    const double flat_over_solo =
        solo_p99 > 0.0 ? flat_p99 / solo_p99 : 0.0;
    const double tree_over_solo =
        solo_p99 > 0.0 ? tree_p99 / solo_p99 : 0.0;
    const bool tree_isolates =
        tree_over_solo <= 1.5 && flat_over_solo > 3.0;
    rows.push_back(bench::JsonRow{
        {"lineup", "claim"},
        {"flat_over_solo", flat_over_solo},
        {"tree_over_solo", tree_over_solo},
        {"tree_isolates", tree_isolates ? 1.0 : 0.0},
    });
    std::cout << "\n";
    bench::writeJson("tenant_isolation", rows);
    std::cout << ". Reading: the flat queue lets the spike "
                 "inflate the victim's p99 TTFT past 3x its solo "
                 "baseline (flat_over_solo), while the tenant tree "
                 "holds it within 1.5x (tree_over_solo) — the "
                 "fair-share subtree keeps serving the victim while "
                 "the aggressor's backlog drains at its own "
                 "share.\n";
    if (!tree_isolates) {
        std::cout << "ISOLATION CHECK FAILED: tree_over_solo "
                  << formatDouble(tree_over_solo, 2)
                  << " (must be <= 1.5), flat_over_solo "
                  << formatDouble(flat_over_solo, 2)
                  << " (must be > 3)\n";
        return 1;
    }
    return 0;
}
