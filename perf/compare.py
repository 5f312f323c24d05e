#!/usr/bin/env python3
"""Compare benchmark results metric by metric, one row per workload.

    python3 perf/compare.py BASE.json NEW.json
    python3 perf/compare.py BASELINE.json    # its first set vs its second

BASE and NEW are perf/bench.py result files; a file holding several
sets counts every set's runs. Each end-to-end metric gets a verdict:

  worse       NEW's median is worse than BASE's by more than the bound
  better      ... better by more than the bound
  unresolved  the quartile spread of either side, as a share of BASE's
              median, exceeds the bound -- unless every NEW run beats
              every BASE run
  same        otherwise

Bounds are BENCHMARK.json's (perf/spec.py). Simulated metrics are
deterministic for a seed, so when both sides ran the same seed and
workload sizes their bound is 0: any worsening counts. Exit status is 1
when any metric is worse.
"""

import json
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402
from bench import quartiles  # noqa: E402

METRICS = {m.name: m for m in spec.END_TO_END + (spec.LADDER_METRIC,)}


def pooled(sets):
    """{workload: {"flags": ..., metric: [values]}} over `sets`."""
    out = {}
    for results in sets:
        for workload, res in results.items():
            row = out.setdefault(workload, {"flags": res["flags"]})
            for metric, v in res["end_to_end"].items():
                row.setdefault(metric, []).extend(v["values"])
    return out


def spread(values):
    _, q1, q3 = quartiles(values)
    return q3 - q1


def verdict(metric, base, new, bound):
    """(verdict, relative change with + = better, relative spread)."""
    sign = 1.0 if metric.better == "higher" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    if b == 0:
        change = 0.0 if n == 0 else math.copysign(math.inf, sign * n)
        rel_spread = 0.0
    else:
        change = sign * (n - b) / abs(b)
        rel_spread = max(spread(base), spread(new)) / abs(b)
    new_beats_all = all(sign * x > sign * y for x in new for y in base)
    if rel_spread > bound and not new_beats_all:
        return "unresolved", change, rel_spread
    if change < -bound:
        return "worse", change, rel_spread
    if change > bound:
        return "better", change, rel_spread
    return "same", change, rel_spread


def compare(base_doc, base_sets, new_doc, new_sets):
    base, new = pooled(base_sets), pooled(new_sets)
    same_inputs = (base_doc["seed"] == new_doc["seed"] and
                   base_doc["smoke"] == new_doc["smoke"])
    row = "%-16s %-20s %-10s %13s %13s %8s %8s %6s  %s"
    print(row % ("workload", "metric", "unit", "base", "new", "change",
                 "spread", "bound", "verdict"))
    counts = {}
    for workload in base:
        if workload not in new:
            print("%-16s (missing from NEW)" % workload)
            continue
        exact = same_inputs and base[workload]["flags"] == \
            new[workload]["flags"]
        for name, metric in METRICS.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            bound = 0.0 if exact and metric.kind == "sim" else metric.bound
            result, change, rel_spread = verdict(
                metric, base[workload][name], new[workload][name], bound)
            counts[result] = counts.get(result, 0) + 1
            print(row % (workload, name, metric.unit,
                         "%.6g" % statistics.median(base[workload][name]),
                         "%.6g" % statistics.median(new[workload][name]),
                         "%+.1f%%" % (100 * change),
                         "%.1f%%" % (100 * rel_spread),
                         "%.0f%%" % (100 * bound), result))
    print("\n" + ", ".join("%d %s" % (n, v) for v, n in sorted(
        counts.items())))
    return 1 if counts.get("worse") else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    docs = [json.loads(Path(p).read_text()) for p in argv[1:]]
    if len(docs) == 1:
        sets = docs[0]["sets"]
        if len(sets) < 2:
            print("%s holds one set; pass two files" % argv[1],
                  file=sys.stderr)
            return 2
        return compare(docs[0], sets[:1], docs[0], sets[1:2])
    return compare(docs[0], docs[0]["sets"], docs[1], docs[1]["sets"])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
