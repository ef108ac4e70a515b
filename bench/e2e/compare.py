#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results, parent vs change.

  python3 bench/e2e/compare.py A B

A and B are directories of result files written by `run.py --out`
(or single files), one file per run. Run at least ten of each, with the
run order alternated (A B B A A B ...); files pair up in name order.

For every workload x end-to-end metric it prints both sides' median and
quartiles and a verdict, with bounds from BENCHMARK.json:

  better      B wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than A's
              interquartile spread;
  unresolved  the run-to-run spread (IQR / median, either side) is wider
              than the bound, unless every B run beats every A run;
  worse       B's median is worse than A's by more than the bound;
  same        otherwise.

Failed invocations are compared exactly: any change in the failed
count is a verdict of its own. Exits 1 when any verdict is "worse".
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"compare.py: no result files in {path}")
    return [json.loads(f.read_text())["workloads"] for f in files]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread_text(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(a, b, better_dir, bound):
    def beats(x, y):
        return x < y if better_dir == "lower" else x > y

    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if (wins >= 0.9 * len(pairs) and beats(med_b, med_a)
            and abs(med_b - med_a) > qa[2] - qa[0]):
        return "better"
    spread = max((qa[2] - qa[0]) / med_a, (qb[2] - qb[0]) / med_b)
    if spread > bound and not all(beats(y, x) for x in a for y in b):
        return "unresolved"
    worse_by = (med_b - med_a) / med_a
    if better_dir == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load(sys.argv[1]), load(sys.argv[2])
    print(f"A: {len(runs_a)} runs, B: {len(runs_b)} runs")
    print(f"{'workload':18} {'metric':20} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'change':>8}  verdict")
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if not all(workload in r for r in runs_a + runs_b):
            continue
        for m in spec["end_to_end"]:
            a = [r[workload]["metrics"][m["name"]]["value"] for r in runs_a]
            b = [r[workload]["metrics"][m["name"]]["value"] for r in runs_b]
            v = verdict(a, b, m["better"], m["bound"])
            worse |= v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:18} {m['name']:20} {spread_text(qa):>36} "
                  f"{spread_text(qb):>36} {(qb[1] - qa[1]) / qa[1]:>+8.2%}"
                  f"  {v}")
        fa = sum(r[workload]["failed"] for r in runs_a)
        fb = sum(r[workload]["failed"] for r in runs_b)
        v = "same" if fa == fb else ("better" if fb < fa else "worse")
        worse |= v == "worse"
        print(f"{workload:18} {'failed invocations':20} {fa:>36} {fb:>36} "
              f"{'':>8}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
