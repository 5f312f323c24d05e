#!/usr/bin/env python3
"""One-command benchmark: SLA goodput and simulator throughput.

Full mode builds the harness in Release, runs every workload in fresh
processes interleaved round-robin (so a slow spell of a shared machine
hits every workload alike), then one traced pass and the open-loop rate
ladder; it checks correctness, prints every metric with its unit,
median and quartiles, and writes one JSON result file:

    python3 perf/bench.py [--seed 42] [--repeats 7] [--out FILE]
                          [--workloads a,b] [--smoke] [--baseline]

Single-run mode measures one workload for a fixed time and prints one
JSON result line (the BENCHMARK.json contract):

    python3 perf/bench.py --workload NAME --seed N --seconds S --trace 0|1

Exit status is non-zero when the build, a simulation, or a correctness
check fails. See perf/README.md for the workloads and metrics.
"""

import argparse
import glob
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SIM_TIMEOUT_S = 150
# Set-up time varies more between processes than within one, so each
# cycle adds this many set-up-only processes to its set-up sample.
SETUP_PROCESSES = 8


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- Building ------------------------------------------------------------

def build(build_dir):
    """Configure (once) and build pfs_perf + pfs_cli; return their
    paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("the simulator sources are missing: run from a "
                         "full checkout of the repository")
    build_dir = Path(build_dir)
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(PERF_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perf_tools", "-j", str(os.cpu_count() or 1)])
    with open(build_dir / "perf_build.log", "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed; see %s"
                                 % (build_dir / "perf_build.log"))
    return {"perf": build_dir / "pfs_perf",
            "cli": build_dir / "pfs" / "tools" / "pfs_cli"}


def check_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file() or json.loads(path.read_text()) != \
            spec.benchmark_json():
        raise BenchError("BENCHMARK.json differs from perf/spec.py; "
                         "regenerate it with: python3 perf/spec.py > "
                         "BENCHMARK.json")


def require_threads(workload):
    """Sharded workloads need a core per simulation thread."""
    flags = list(workload.flags)
    if "--sim-threads" in flags:
        threads = int(flags[flags.index("--sim-threads") + 1])
        if (os.cpu_count() or 1) < threads:
            raise BenchError("%s needs %d cores, this machine has %d"
                             % (workload.name, threads, os.cpu_count()))


# --- Running the harness ----------------------------------------------------

def subseeds(workload, seed):
    """The seeds one measurement cycle simulates."""
    k = workload.subseeds
    return [(seed * k + i) % 2**64 for i in range(k)]


def single_threaded(flags):
    """The same scenario without --sim-threads (reports must match)."""
    flags = list(flags)
    if "--sim-threads" in flags:
        i = flags.index("--sim-threads")
        del flags[i:i + 2]
    return flags


def run(cmd):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, timeout=SIM_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            " ".join(map(str, cmd)), proc.returncode, proc.stderr.strip()))
    return proc.stdout


def run_perf(tools, flags, seed, traced=False):
    """One pfs_perf process: its record plus the report text."""
    out = run([tools["perf"]] + (["--trace"] if traced else []) +
              list(flags) + ["--seed", seed])
    head, _, report = out.partition("\n")
    record = json.loads(head)
    record["report"] = report
    record["seed"] = seed
    return record


def run_setup(tools, flags, seed):
    """Median set-up time of one set-up-only pfs_perf process."""
    out = run([tools["perf"], "--setup-only"] + list(flags) +
              ["--seed", seed])
    return statistics.median(json.loads(out)["setup_s"])


def run_cli(tools, flags, seed):
    return run([tools["cli"]] + list(flags) +
               ["--seed", seed, "--format", "json"])


def run_cycle(tools, flags, seeds, traced=False):
    """One measurement cycle: every sub-seed once, each in a fresh
    process. Traced cycles pair each untraced run with a traced one of
    the same seed (for the overhead and the report comparison).
    Returns the runs and, for untraced cycles, the end-to-end metrics;
    per-request latencies are dropped once pooled."""
    runs = []
    for seed in seeds:
        plain = run_perf(tools, flags, seed)
        runs.append((plain, run_perf(tools, flags, seed, True))
                    if traced else plain)
    metrics = None
    if not traced:
        setups = [statistics.median(r["setup_s"]) for r in runs]
        setups += [run_setup(tools, flags, seeds[i % len(seeds)])
                   for i in range(SETUP_PROCESSES)]
        metrics = end_to_end(runs, setups)
    for r in runs if not traced else [r for pair in runs for r in pair]:
        r["latency_samples"] = len(r["sim"].pop("ttft_ticks"))
        del r["sim"]["mtpot_ticks"]
    return runs, metrics


# --- Metrics ------------------------------------------------------------------

def nearest_rank(sorted_values, q):
    """Nearest-rank percentile, as the simulator's reports take it."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def end_to_end(cycle, setups):
    """End-to-end metrics of one cycle: host timings pooled over its
    runs (set-up: the median over its processes' medians), serving
    outcomes pooled over its seeds' requests."""
    sims = [r["sim"] for r in cycle]
    ttft = sorted(t for s in sims for t in s["ttft_ticks"])
    mtpot = sorted(t for s in sims for t in s["mtpot_ticks"])
    offered = sum(r["offered"] for r in cycle)
    return {
        "sim_requests_per_s": sum(r["finished"] for r in cycle) /
        sum(r["run_s"] for r in cycle),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in cycle),
        "goodput_tok_s": sum(s["good_tokens"] for s in sims) /
        sum(s["makespan_s"] for s in sims),
        "sla_attainment": sum(s["compliant"] for s in sims) / offered,
        "p50_ttft_s": nearest_rank(ttft, 0.50) * 1e-6,
        "p99_ttft_s": nearest_rank(ttft, 0.99) * 1e-6,
        "p50_mtpot_s": nearest_rank(mtpot, 0.50) * 1e-6,
        "p99_mtpot_s": nearest_rank(mtpot, 0.99) * 1e-6,
    }


def per_layer(pairs):
    """Per-layer metrics: means over the traced runs, plus the two that
    need the untraced twin."""
    traced = [t["layers"] for _, t in pairs]
    values = {m.name: statistics.fmean(layers.get(m.name, 0.0)
                                       for layers in traced)
              for m in spec.PER_LAYER}
    values["sim.ns_per_event"] = statistics.fmean(
        u["run_s"] * 1e9 / max(1.0, t["layers"]["sim.events"])
        for u, t in pairs)
    values["trace.overhead"] = sum(t["run_s"] for _, t in pairs) / \
        sum(u["run_s"] for u, _ in pairs) - 1.0
    values["trace.dropped"] = sum(layers["trace.dropped"]
                                  for layers in traced)
    return values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4,
                                          method="inclusive")
    return median, q1, q3


# --- Correctness ----------------------------------------------------------

class Checks:
    """Named pass/fail checks; any failure makes the run incorrect."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            log("CHECK FAILED: %s %s" % (name, detail))

    @property
    def ok(self):
        return all(item["ok"] for item in self.items)

    def conservation(self, workload, records):
        bad = [r["seed"] for r in records
               if r["finished"] + r["shed"] != r["offered"]]
        self.add("%s: finished + shed = offered" % workload, not bad,
                 "seeds %s" % bad if bad else "")

    def same_reports(self, name, reports):
        """`reports` maps seed -> report texts that must all match."""
        bad = [seed for seed, texts in reports.items()
               if any(text != texts[0] for text in texts)]
        self.add(name, not bad, "seeds %s" % bad if bad else "")

    def positive(self, workload, metrics):
        bad = [name for name, value in metrics.items()
               if not (math.isfinite(value) and value > 0)]
        self.add("%s: end-to-end metrics positive" % workload, not bad,
                 ", ".join(bad))


def group_reports(records):
    grouped = {}
    for r in records:
        grouped.setdefault(r["seed"], []).append(r["report"])
    return grouped


def check_against_cli(checks, tools, workload, flags, seed, report):
    """pfs_cli, single-threaded, must print the very same report."""
    same = run_cli(tools, single_threaded(flags), seed) == report
    checks.add("%s: report equals single-threaded pfs_cli --format json"
               % workload, same, "seed %d" % seed)


def check_traced(checks, workload, pairs):
    checks.same_reports("%s: traced report equals untraced" % workload,
                        group_reports([r for pair in pairs for r in pair]))
    checks.add("%s: trace.dropped = 0" % workload,
               all(t["layers"]["trace.dropped"] == 0 for _, t in pairs))


# --- Single-run mode (the BENCHMARK.json contract) -----------------------

def single_run(args):
    workload = next((w for w in spec.WORKLOADS if w.name == args.workload),
                    None)
    if workload is None:
        raise BenchError("unknown workload %r (have: %s)" % (
            args.workload, ", ".join(w.name for w in spec.WORKLOADS)))
    check_benchmark_json()
    require_threads(workload)
    tools = build(args.build_dir)
    seeds = subseeds(workload, args.seed)
    flags = workload.flags
    traced = args.trace == 1

    cycles = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        cycles.append(run_cycle(tools, flags, seeds, traced))
        spent = time.monotonic() - start
        if spent + (time.monotonic() - began) > args.seconds:
            break
    log("%s: %d cycles in %.1f s" % (workload.name, len(cycles),
                                     time.monotonic() - start))

    runs = [run for cycle, _ in cycles for run in cycle]
    plain = [u for u, _ in runs] if traced else runs
    checks = Checks()
    checks.conservation(workload.name, plain)
    checks.same_reports("%s: repeated reports identical" % workload.name,
                        group_reports(plain))
    check_against_cli(checks, tools, workload.name, flags, seeds[0],
                      plain[0]["report"])
    if traced:
        check_traced(checks, workload.name, runs)
        values = per_layer(runs)
        metrics = spec.PER_LAYER
    else:
        values = {m.name: statistics.median(c[m.name] for _, c in cycles)
                  for m in spec.END_TO_END}
        checks.positive(workload.name, values)
        metrics = spec.END_TO_END

    offered = sum(r["offered"] for r in plain)
    finished = sum(r["finished"] for r in plain)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": int(offered),
        "failed": int(offered - finished),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in metrics},
    }))


# --- Full mode ------------------------------------------------------------

def machine_descriptor(build_dir):
    cache = {}
    for line in (Path(build_dir) / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"(CMAKE_[A-Z_]+):[A-Z]+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2)
    compiler = {}
    for path in glob.glob(str(Path(build_dir) / "CMakeFiles" / "*" /
                              "CMakeCXXCompiler.cmake")):
        for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
            m = re.search(r'set\(%s "([^"]*)"\)' % key,
                          Path(path).read_text())
            if m:
                compiler[key] = m.group(1)
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        m = re.search(r"model name\s*:\s*(.*)",
                      Path("/proc/cpuinfo").read_text())
        cpu = m.group(1).strip() if m else cpu
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    desc = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler_id": compiler.get("CMAKE_CXX_COMPILER_ID", "unknown"),
        "compiler_version": compiler.get("CMAKE_CXX_COMPILER_VERSION",
                                         "unknown"),
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")])),
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
    }
    slug = re.sub(r"[^a-z0-9]+", "-", re.sub(r"\(r\)|\(tm\)", "",
                                             cpu.lower())).strip("-")
    desc["descriptor"] = "%s-%dc-%s%s-%s" % (
        slug, desc["nproc"], desc["compiler_id"].lower(),
        desc["compiler_version"].split(".")[0], build_type.lower())
    return desc


def run_ladder(tools, seed, smoke):
    """Highest open-loop rate whose SLA attainment meets the target."""
    ladder = spec.LADDER
    flags = ladder["smoke_flags"] if smoke else ladder["flags"]
    best = 0.0
    for rate in ladder["rates"]:
        r = run_perf(tools, list(flags) + ["--rate", str(rate)], seed)
        attainment = r["sim"]["compliant"] / r["offered"]
        log("  ladder rate %.2f: attainment %.4f" % (rate, attainment))
        if attainment >= ladder["target"]:
            best = max(best, rate)
    return best


def full_set(args, tools, workloads, checks):
    """One full set of runs: interleaved repeats, a traced pass and the
    ladder. Returns {workload: results}."""
    flags = {w.name: w.smoke_flags if args.smoke else w.flags
             for w in workloads}
    seeds = {w.name: subseeds(w, args.seed) for w in workloads}
    cycles = {w.name: [] for w in workloads}
    for repeat in range(args.repeats):
        for w in workloads:
            began = time.monotonic()
            cycles[w.name].append(run_cycle(tools, flags[w.name],
                                            seeds[w.name]))
            log("repeat %d/%d %-16s %.1f s" % (
                repeat + 1, args.repeats, w.name,
                time.monotonic() - began))

    results = {}
    for w in workloads:
        pairs, _ = run_cycle(tools, flags[w.name], seeds[w.name], True)
        records = [r for cycle, _ in cycles[w.name] for r in cycle]
        checks.conservation(w.name, records)
        checks.same_reports("%s: repeated reports identical" % w.name,
                            group_reports(records))
        check_traced(checks, w.name, pairs)
        check_against_cli(checks, tools, w.name, flags[w.name],
                          seeds[w.name][0], records[0]["report"])
        e2e = {}
        for m in spec.END_TO_END:
            values = [c[m.name] for _, c in cycles[w.name]]
            median, q1, q3 = quartiles(values)
            e2e[m.name] = {"unit": m.unit, "kind": m.kind,
                           "values": values, "median": median,
                           "q1": q1, "q3": q3}
        checks.positive(w.name, {k: v["median"] for k, v in e2e.items()})
        layers = per_layer(pairs)
        results[w.name] = {
            "flags": " ".join(flags[w.name]),
            "seeds": seeds[w.name],
            "latency_samples": sum(r["latency_samples"]
                                   for r in cycles[w.name][0][0]),
            "end_to_end": e2e,
            "per_layer": {m.name: {"unit": m.unit,
                                   "value": layers[m.name]}
                          for m in spec.PER_LAYER},
        }
        if w.name == spec.LADDER["workload"]:
            rate = run_ladder(tools, args.seed, args.smoke)
            m = spec.LADDER_METRIC
            e2e[m.name] = {"unit": m.unit, "kind": m.kind,
                           "values": [rate], "median": rate,
                           "q1": rate, "q3": rate}

    # Workloads that differ only in --sim-threads simulate the same
    # thing: their reports must match byte for byte.
    for a in workloads:
        for b in workloads:
            if a.name < b.name and seeds[a.name] == seeds[b.name] and \
                    single_threaded(flags[a.name]) == \
                    single_threaded(flags[b.name]):
                checks.same_reports(
                    "%s and %s reports identical" % (a.name, b.name),
                    group_reports(cycles[a.name][0][0] +
                                  cycles[b.name][0][0]))
    return results


def print_set(results):
    row = "%-16s %-32s %-10s %14s %14s %14s"
    for name, res in results.items():
        print("\n== %s: pfs_cli %s --seed S  (S in %s; %d latency "
              "samples per cycle)" % (name, res["flags"], res["seeds"],
                                      res["latency_samples"]))
        print(row % ("workload", "end-to-end metric", "unit", "median",
                     "q1", "q3"))
        for metric, v in res["end_to_end"].items():
            print(row % (name, metric, v["unit"], "%.6g" % v["median"],
                         "%.6g" % v["q1"], "%.6g" % v["q3"]))
        print("%-16s %-32s %-10s %14s" % ("workload", "per-layer metric",
                                          "unit", "value"))
        for metric, v in res["per_layer"].items():
            print("%-16s %-32s %-10s %14s" % (name, metric, v["unit"],
                                              "%.6g" % v["value"]))


def full(args):
    check_benchmark_json()
    workloads = list(spec.WORKLOADS)
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = set(wanted) - {w.name for w in workloads}
        if unknown:
            raise BenchError("unknown workloads: %s" % ", ".join(unknown))
        workloads = [w for w in workloads if w.name in wanted]
    for w in workloads:
        require_threads(w)
    tools = build(args.build_dir)
    machine = machine_descriptor(args.build_dir)
    log("machine: %s" % json.dumps(machine))
    out = args.out
    if args.baseline:
        out = PERF_DIR / "baselines" / (machine["descriptor"] + ".json")

    checks = Checks()
    sets = []
    count = 2 if args.baseline else 1
    for index in range(count):
        log("set %d/%d" % (index + 1, count))
        sets.append(full_set(args, tools, workloads, checks))
        print_set(sets[-1])

    print("\nchecks: %d passed, %d failed" % (
        sum(c["ok"] for c in checks.items),
        sum(not c["ok"] for c in checks.items)))
    for c in checks.items:
        if not c["ok"]:
            print("  FAILED %s %s" % (c["name"], c["detail"]))
    result = {"seed": args.seed, "repeats": args.repeats,
              "smoke": args.smoke, "machine": machine, "sets": sets,
              "checks": checks.items, "correct": checks.ok}
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(json.dumps(result, indent=1) + "\n")
    print("wrote %s" % out)
    return 0 if checks.ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=None,
                        help="interleaved passes (default 7, smoke 2)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset to run")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20-size workloads, all checks on")
    parser.add_argument("--baseline", action="store_true",
                        help="two sets, written to perf/baselines/"
                             "<machine>.json")
    parser.add_argument("--out", default=str(ROOT / "build-perf" /
                                             "perf_result.json"))
    parser.add_argument("--build-dir", default=str(ROOT / "build-perf"))
    parser.add_argument("--workload", help="single-run mode: workload")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.repeats is None:
        args.repeats = 2 if args.smoke else 7
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    try:
        if args.workload:
            single_run(args)
            return 0
        return full(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        log("bench: %s" % err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
