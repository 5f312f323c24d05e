/**
 * @file
 * Prefix-cache effectiveness on multi-turn session traffic.
 *
 * Not a paper figure: this seeds the perf trajectory of the
 * shared-prefix KV subsystem (DESIGN.md §4). For a session
 * workload — shared system prompt, history-prepended prompts — the
 * radix prefix cache should turn most of each turn's prefill into
 * block reuse: mean TTFT and total prefilled tokens drop while hit
 * rate climbs with conversation depth. Each sweep point runs the
 * identical workload with the cache off and on; rows land in
 * BENCH_prefix_cache.json so CI archives every run and a regression
 * shows up as a shrinking ttft_speedup at the same depth.
 */

#include <iostream>
#include <vector>

#include "base/str_util.hh"
#include "base/table.hh"
#include "bench_common.hh"

using namespace lightllm;

namespace {

/** `pfs_cli --sessions N --turns T --think-time 0.5
 *  --prefix-cache on|off` at the defaults (Past-Future 3%,
 *  512-token system prompt, seed 42). */
bench::TimedRun
runSessions(std::size_t turns, bool cache_on)
{
    cli::CliOptions options;
    options.sessions = bench::smokeSize(48, 8);
    options.turns = turns;
    options.thinkSeconds = 0.5;
    options.prefixCache = cache_on ? "on" : "off";
    return bench::timedRun(cli::assembleScenario(options));
}

} // namespace

int
main()
{
    std::cout << "# Prefix cache: multi-turn sessions, shared "
                 "system prompt, cache off vs on\n\n";

    const std::vector<std::size_t> turn_sweep =
        bench::smokeTruncate(std::vector<std::size_t>{2, 4, 8}, 2);

    TextTable table({"turns", "mean_ttft_off_s", "mean_ttft_on_s",
                     "ttft_speedup", "hit_rate",
                     "prefill_tok_off", "prefill_tok_on"});
    std::vector<bench::JsonRow> rows;
    for (const std::size_t turns : turn_sweep) {
        const bench::TimedRun off = runSessions(turns, false);
        const bench::TimedRun on = runSessions(turns, true);
        const double ttft_off = off.report.latencyDigest().meanTtft;
        const double ttft_on = on.report.latencyDigest().meanTtft;
        table.addRow({
            formatCount(static_cast<std::int64_t>(turns)),
            formatDouble(ttft_off, 4),
            formatDouble(ttft_on, 4),
            formatDouble(ttft_on > 0.0 ? ttft_off / ttft_on : 0.0,
                         2),
            formatPercent(on.report.prefixHitRate(), 2),
            formatCount(off.report.totalPrefillTokens),
            formatCount(on.report.totalPrefillTokens),
        });
        rows.push_back(bench::JsonRow{
            {"turns", static_cast<double>(turns)},
            {"finished_off",
             static_cast<double>(off.report.numFinished)},
            {"finished_on",
             static_cast<double>(on.report.numFinished)},
            {"mean_ttft_off_s", ttft_off},
            {"mean_ttft_on_s", ttft_on},
            {"ttft_speedup",
             ttft_on > 0.0 ? ttft_off / ttft_on : 0.0},
            {"hit_rate", on.report.prefixHitRate()},
            {"prefill_tokens_off",
             static_cast<double>(off.report.totalPrefillTokens)},
            {"prefill_tokens_on",
             static_cast<double>(on.report.totalPrefillTokens)},
            {"wall_ms_off", off.wallMillis},
            {"wall_ms_on", on.wallMillis},
        });
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::writeJson("prefix_cache", rows);
    std::cout << ". Reading: hit_rate is the fraction of "
                 "prompt tokens served from cached blocks; it (and "
                 "ttft_speedup) should grow with conversation depth "
                 "because later turns re-prefill only their newest "
                 "user message.\n";
    return 0;
}
