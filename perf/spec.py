#!/usr/bin/env python3
"""The benchmark's single source of truth: workloads, metrics, bounds.

Each workload is a pfs_cli flag line (reproduce any run with
`pfs_cli <flags> --seed S --format json`). BENCHMARK.json at the repo
root is generated from this file:

    python3 perf/spec.py > BENCHMARK.json

and perf/bench.py refuses to run while the two disagree.
"""

import json
from dataclasses import dataclass

RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple
    smoke_flags: tuple
    why: str
    # Independent seeds simulated per measurement cycle (derived from
    # --seed as seed * subseeds + i); pooling them steadies metrics that
    # swing from one seed's inputs to the next.
    subseeds: int = 1
    # Run by bench.py's full mode only, not listed in BENCHMARK.json:
    # its host time varies between runs by more than any allowed bound.
    full_mode_only: bool = False


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = None
    # "host" metrics are host timings; "sim" metrics are simulated
    # outcomes, deterministic for a given seed.
    kind: str = "host"


WORKLOADS = (
    Workload(
        "o1_knee",
        ("--workload", "sharegpt-o1", "--requests", "3000",
         "--clients", "40"),
        ("--workload", "sharegpt-o1", "--requests", "150",
         "--clients", "40"),
        "Closed loop at the SLA knee on heavy-tailed ~2.2k-token outputs: "
        "Eq. 2-4 admission queues instead of evicting; no router, shards "
        "or prefix cache.",
        subseeds=8),
    Workload(
        "sessions_prefix",
        ("--sessions", "256", "--turns", "8", "--prefix-cache", "on",
         "--split-fuse", "--eviction-mode", "swap", "--instances", "6",
         "--routing", "prefix-affinity"),
        ("--sessions", "16", "--turns", "8", "--prefix-cache", "on",
         "--split-fuse", "--eviction-mode", "swap", "--instances", "6",
         "--routing", "prefix-affinity"),
        "Multi-turn chat: shared prefix blocks (~87% prompt-token hits), "
        "fused chunked prefill, swap eviction and the session-sticky "
        "router; the only workload that shares KV.",
        subseeds=8),
    Workload(
        "fleet256",
        ("--workload", "sharegpt", "--instances", "256", "--requests",
         "40960", "--clients", "6144"),
        ("--workload", "sharegpt", "--instances", "256", "--requests",
         "2048", "--clients", "6144"),
        "256-instance future-memory fleet on one thread: event dispatch "
        "and the O(N) router scan are hot; light admission, no "
        "evictions, so victim ranking is bypassed."),
    Workload(
        "fleet256_t4",
        ("--workload", "sharegpt", "--instances", "256", "--requests",
         "40960", "--clients", "6144", "--sim-threads", "4"),
        ("--workload", "sharegpt", "--instances", "256", "--requests",
         "2048", "--clients", "6144", "--sim-threads", "4"),
        "fleet256 sharded over 4 threads: the only workload running "
        "windows, barriers and mailboxes; its report must equal "
        "fleet256's byte for byte.",
        full_mode_only=True),
)

END_TO_END = (
    Metric("sim_requests_per_s", "req/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("goodput_tok_s", "tok/sim_s", "higher", 0.05, "sim"),
    Metric("sla_attainment", "fraction", "higher", 0.05, "sim"),
    Metric("p50_ttft_s", "sim_s", "lower", 0.10, "sim"),
    Metric("p99_ttft_s", "sim_s", "lower", 0.20, "sim"),
    Metric("p50_mtpot_s", "sim_s", "lower", 0.10, "sim"),
    Metric("p99_mtpot_s", "sim_s", "lower", 0.15, "sim"),
)

PER_LAYER = (
    Metric("core.rounds", "count", "lower"),
    Metric("core.decide_ns_per_round", "ns", "lower"),
    Metric("core.decide_share", "fraction", "lower"),
    Metric("core.round_open_ns", "ns", "lower"),
    Metric("core.feasibility_tests", "count", "lower"),
    Metric("core.feasibility_ns_per_test", "ns", "lower"),
    Metric("core.feasibility_share", "fraction", "lower"),
    Metric("core.admit_ratio", "fraction", "higher"),
    Metric("core.queue_depth_mean", "count", "lower"),
    Metric("core.queue_wait_mean_s", "sim_s", "lower"),
    Metric("core.queue_wait_p99_s", "sim_s", "lower"),
    Metric("core.future_error_mean", "fraction", "lower"),
    Metric("core.predicted_eviction_steps", "count", "lower"),
    Metric("core.victim_rankings", "count", "lower"),
    Metric("core.victim_share", "fraction", "lower"),
    Metric("core.history_updates", "count", "lower"),
    Metric("core.history_ns_per_update", "ns", "lower"),
    Metric("core.prediction_peeks", "count", "lower"),
    Metric("core.avg_batch_size", "count", "higher"),
    Metric("engine.iterations", "count", "lower"),
    Metric("engine.other_ns_per_iteration", "ns", "lower"),
    Metric("engine.other_share", "fraction", "lower"),
    Metric("engine.prefill_tokens", "count", "lower"),
    Metric("engine.eviction_events", "count", "lower"),
    Metric("engine.evicted_req_ratio", "ratio", "lower"),
    Metric("memory.avg_consumed_ratio", "fraction", "higher"),
    Metric("memory.avg_future_required_ratio", "fraction", "lower"),
    Metric("memory.prefix_hit_rate", "fraction", "higher"),
    Metric("cluster.routed", "count", "lower"),
    Metric("cluster.route_ns_per_request", "ns", "lower"),
    Metric("cluster.route_share", "fraction", "lower"),
    Metric("cluster.token_imbalance", "ratio", "lower"),
    Metric("sim.events", "count", "lower"),
    Metric("sim.ns_per_event", "ns", "lower"),
    Metric("sim.windows", "count", "lower"),
    Metric("sim.steps_per_window", "count", "higher"),
    Metric("sim.shard_compute_share", "fraction", "higher"),
    Metric("sim.shard_barrier_share", "fraction", "lower"),
    Metric("sim.mailbox_commits_per_window", "count", "lower"),
    Metric("sim.coordinator_share", "fraction", "lower"),
    Metric("metrics.finalize_ms", "ms", "lower"),
    Metric("trace.overhead", "fraction", "lower"),
    Metric("trace.dropped", "count", "lower"),
)

# Open-loop rate ladder on the o1 dataset (full mode only: it reports
# one number for one workload, so it has no place in the per-run
# schema). slo_rate_rps is the highest rate whose SLA attainment stays
# at or above the target.
LADDER = {
    "workload": "o1_knee",
    "flags": ("--workload", "sharegpt-o1", "--requests", "8000"),
    "smoke_flags": ("--workload", "sharegpt-o1", "--requests", "400"),
    "rates": (0.40, 0.45, 0.50, 0.55, 0.60),
    "target": 0.90,
}
LADDER_METRIC = Metric("slo_rate_rps", "req/s", "higher", 0.15, "sim")


def benchmark_json():
    """The BENCHMARK.json document this spec describes."""
    def metric(m, with_bound):
        out = {"name": m.name, "unit": m.unit, "better": m.better}
        if with_bound:
            out["bound"] = m.bound
        return out

    return {
        "command": ["python3", "perf/bench.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS
                      if not w.full_mode_only],
        "end_to_end": [metric(m, True) for m in END_TO_END],
        "per_layer": [metric(m, False) for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
