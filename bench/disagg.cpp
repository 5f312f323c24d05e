/**
 * @file
 * Goodput: disaggregated prefill/decode vs a colocated fleet.
 *
 * Not a paper figure: this pins the perf trajectory of the
 * disaggregated serving subsystem (DESIGN.md §7). Three
 * prompt/output mixes run the same Poisson arrival sequence on two
 * fleets of identical total size:
 *
 *  - colocated: four instances, future-memory routing — every
 *    instance interleaves prefill iterations with its decode batch,
 *    so a burst of long prompts stalls in-flight decodes (MTPOT
 *    gaps stack one prefill at a time);
 *  - disagg 2P+2D: prompts prefill on two dedicated instances, the
 *    KV migrates over a modeled NVLink-class interconnect
 *    (25 GB/s + 2 ms) into two decode-only instances whose batches
 *    never see a prefill stall.
 *
 * The claim BENCH_disagg.json pins: disaggregation wins goodput on
 * the prefill-heavy mix (decode batches keep their inter-token
 * cadence through prompt bursts) and *loses* on the decode-heavy
 * mix — half the fleet idles next to the decode bottleneck while
 * every request still pays the migration. The crossover is the
 * point of the bench: disaggregation is a trade, not a free win,
 * and the claim row reports which side each mix lands on.
 */

#include <iostream>
#include <string>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"

using namespace lightllm;

namespace {

struct Mix
{
    std::string label;
    TokenCount inputLo, inputHi;
    TokenCount outputLo, outputHi;
    double ratePerSecond;
};

std::vector<Mix>
makeMixes()
{
    // Rates sized so four A100 instances run near (not past)
    // saturation. The prefill-heavy prompts are long enough that a
    // *single* prefill stalls a colocated instance past the 1.5 s
    // MTPOT bound (~100 us/token on A100: 15k tokens ~ 1.5 s), so
    // the colocated fleet violates the SLA at any rate while the
    // same KV migrates in ~0.4 s over the 25 GB/s link.
    std::vector<Mix> mixes{
        {"prefill-heavy", 10000, 20000, 100, 200, 0.85},
        {"balanced", 800, 1600, 150, 300, 6.0},
        {"decode-heavy", 100, 250, 400, 800, 6.0},
    };
    if (bench::smokeMode()) {
        for (Mix &mix : mixes)
            mix.ratePerSecond *= 0.75;
    }
    return mixes;
}

struct RunResult
{
    bench::TimedRun run;
    metrics::SlaSpec sla;
};

/** Serve `dataset` as Poisson arrivals at `rate` (seed 42) on the
 *  fleet `options` describes. */
RunResult
runFleet(cli::CliOptions options, const workload::Dataset &dataset,
         double rate)
{
    options.poissonRate = rate;
    const cli::Scenario scenario =
        cli::assembleScenario(options, dataset);
    return {bench::timedRun(scenario), scenario.sla};
}

} // namespace

int
main()
{
    std::cout << "# Disagg: goodput of prefill/decode "
                 "disaggregation vs a colocated fleet\n\n";

    const std::size_t requests = bench::smokeSize(1200, 160);
    const std::vector<Mix> mixes = makeMixes();
    // `--instances 4` and `--disagg --prefill-instances 2
    // --decode-instances 2` (the A100's NVLink-class interconnect),
    // Past-Future (3%) Llama-2-7B throughout.
    cli::CliOptions colocated_fleet;
    colocated_fleet.instances = 4;
    cli::CliOptions disagg_fleet;
    disagg_fleet.disagg = true;
    disagg_fleet.prefillInstances = 2;
    disagg_fleet.decodeInstances = 2;

    TextTable table({"mix", "fleet", "goodput_tok_s",
                     "sla_compliance", "p99_ttft_s", "p99_mtpot_s",
                     "shed", "makespan_s"});
    std::vector<bench::JsonRow> rows;
    std::string wins, losses;
    for (const Mix &mix : mixes) {
        const workload::Dataset dataset =
            workload::makeUniformDataset(
                mix.label, requests, mix.inputLo, mix.inputHi,
                mix.outputLo, mix.outputHi, mix.outputHi,
                42 + mix.inputLo);
        const RunResult colocated =
            runFleet(colocated_fleet, dataset, mix.ratePerSecond);
        const RunResult disaggregated =
            runFleet(disagg_fleet, dataset, mix.ratePerSecond);

        for (const auto &[fleet, result] :
             {std::pair<const char *, const RunResult &>{
                  "colocated", colocated},
              {"disagg-2p2d", disaggregated}}) {
            const metrics::RunReport &report = result.run.report;
            const metrics::SlaSpec &sla = result.sla;
            const auto digest = report.latencyDigest();
            table.addRow({
                mix.label,
                fleet,
                formatDouble(report.goodputTokensPerSec(sla), 1),
                formatPercent(report.slaCompliantFraction(sla), 2),
                formatDouble(digest.ttftPercentile(0.99), 2),
                formatDouble(digest.mtpotPercentile(0.99), 3),
                formatCount(report.shedRequests),
                formatDouble(ticksToSeconds(report.makespan), 1),
            });
            bench::JsonRow row{
                {"mix", mix.label},
                {"fleet", fleet},
                {"rate_per_s", mix.ratePerSecond},
                {"finished",
                 static_cast<double>(report.numFinished)},
                {"goodput_tok_s",
                 report.goodputTokensPerSec(sla)},
                {"sla_compliance",
                 report.slaCompliantFraction(sla)},
                {"p99_ttft_s", digest.ttftPercentile(0.99)},
                {"p99_mtpot_s", digest.mtpotPercentile(0.99)},
                {"shed", static_cast<double>(report.shedRequests)},
                {"makespan_s", ticksToSeconds(report.makespan)},
                {"wall_ms", result.run.wallMillis},
            };
            if (report.disaggregated) {
                row.emplace_back(
                    "migrated_kv_bytes",
                    static_cast<double>(report.migratedKvBytes));
                row.emplace_back(
                    "handoff_queue_p99_s",
                    report.handoffQueueP99Seconds);
            }
            rows.push_back(std::move(row));
        }

        const bool disagg_wins =
            disaggregated.run.report.goodputTokensPerSec(
                disaggregated.sla) >
            colocated.run.report.goodputTokensPerSec(colocated.sla);
        auto &side = disagg_wins ? wins : losses;
        if (!side.empty())
            side += '+';
        side += mix.label;
    }
    table.print(std::cout);

    rows.push_back(bench::JsonRow{
        {"mix", "claim"},
        {"fleet", "claim"},
        {"disagg_wins_mixes", wins.empty() ? "none" : wins},
        {"disagg_loses_mixes", losses.empty() ? "none" : losses},
        {"disagg_wins_some_mix", wins.empty() ? 0.0 : 1.0},
    });
    std::cout << "\n";
    bench::writeJson("disagg", rows);
    std::cout
        << ". Reading: disagg should win goodput where "
           "prompts dominate (decode batches keep their cadence "
           "through prefill bursts) and lose where outputs "
           "dominate (half the fleet idles while every request "
           "pays the migration); the claim row names each side "
           "of the crossover.\n";
    return 0;
}
