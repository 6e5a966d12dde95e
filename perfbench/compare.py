#!/usr/bin/env python3
"""Diffs two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved stdout of ``perfbench/run.py`` runs, one
file per run (any name), e.g. made with

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload maritime_open --seed $s \\
          --seconds 20 --trace 0 > results/base/maritime_open-$s.txt
    done

Untraced runs (``--trace 0``) feed the end-to-end table: per metric the
median and quartiles of both sides, the change of the median, and a
verdict against the metric's bound in BENCHMARK.json (see verdict()). Traced runs
(``--trace 1``) feed the per-layer table, annotated with the end-to-end
metric each layer metric is expected to move (perfbench/layers.json), so
a performance change can name the layer it moved.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(directory):
    """Returns {(workload, traced): [metrics dict, ...]} from saved runs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip().startswith("{")]
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
            header = json.loads(lines[0]) if len(lines) > 1 else {}
        except json.JSONDecodeError:
            continue
        workload = header.get("params", {}).get("workload", "?")
        # Traced runs print the per-layer set, untraced ones the end-to-end set.
        traced = "obs.spans_dropped" in result.get("metrics", {})
        if not result.get("correct", False):
            print("warning: %s reports incorrect outputs" % path, file=sys.stderr)
        metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
        runs.setdefault((workload, traced), []).append(metrics)
    return runs


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return q1, med, q3


def verdict(spec, base, new):
    """Verdict for one end-to-end metric, checked in this order.

    unresolved: the base runs' quartile spread is wider than the bound,
    unless every new run beats every base run (then improved).
    REGRESSION: the new median is worse than the base median by more
    than the bound.
    improved: at least ten pairs, the new run beats its paired base run
    in nine tenths of them (ties count for neither), and the medians
    differ by more than the base spread. Runs are paired in file-name
    order, so name the files alike on both sides (by seed, say).
    no regression: none of these.
    """
    bq1, bmed, bq3 = summary(base)
    _, nmed, _ = summary(new)
    if bmed == 0:
        return "n/a"
    if spec["better"] == "lower":
        beats = lambda a, b: a < b
        worse = (nmed - bmed) / bmed
    else:
        beats = lambda a, b: a > b
        worse = (bmed - nmed) / bmed
    spread = (bq3 - bq1) / abs(bmed)
    if spread > spec["bound"]:
        all_better = all(beats(n, b) for n in new for b in base)
        return "improved" if all_better else "unresolved"
    if worse > spec["bound"]:
        return "REGRESSION"
    pairs = list(zip(base, new))
    wins = sum(beats(n, b) for b, n in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -worse > spread:
        return "improved"
    return "no regression"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layer_map = json.load(f)["per_layer"]
    base = load_runs(sys.argv[1])
    new = load_runs(sys.argv[2])
    regressions = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        b = base.get((workload, False), [])
        n = new.get((workload, False), [])
        print("== %s (%d base runs, %d new runs)" % (workload, len(b), len(n)))
        if b and n:
            print("  %-16s %12s %12s %12s   %12s %12s %12s %8s  %s" % (
                "metric", "base_q1", "base_med", "base_q3", "new_q1", "new_med",
                "new_q3", "change", "verdict"))
            for spec in bench["end_to_end"]:
                name = spec["name"]
                bv = [r[name] for r in b if name in r]
                nv = [r[name] for r in n if name in r]
                if not bv or not nv:
                    continue
                bq1, bmed, bq3 = summary(bv)
                nq1, nmed, nq3 = summary(nv)
                v = verdict(spec, bv, nv)
                regressions += v == "REGRESSION"
                change = 100.0 * (nmed - bmed) / bmed if bmed else 0.0
                print("  %-16s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g %+7.1f%%  %s"
                      " (bound %g %s)" % (name, bq1, bmed, bq3, nq1, nmed, nq3, change,
                                          v, spec["bound"], spec["unit"]))
        bt = base.get((workload, True), [])
        nt = new.get((workload, True), [])
        if bt and nt:
            print("  per-layer (traced runs; medians)")
            for spec in bench["per_layer"]:
                name = spec["name"]
                bv = [r[name] for r in bt if name in r]
                nv = [r[name] for r in nt if name in r]
                if not bv or not nv:
                    continue
                bmed = statistics.median(bv)
                nmed = statistics.median(nv)
                if bmed == 0 and nmed == 0:
                    continue
                change = ("%+7.1f%%" % (100.0 * (nmed - bmed) / bmed)) if bmed else "    new"
                moves = "; ".join("%s on %s" % (m["metric"], m["workload"])
                                  for m in layer_map.get(name, {}).get("moves", []))
                print("    %-40s %12.5g -> %12.5g %s  %s" % (name, bmed, nmed, change, moves))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
