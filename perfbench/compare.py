#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records perfbench/run.py --record appends.  For
every workload and end-to-end metric in BENCHMARK.json it prints each
side's run count, median and quartiles, and a verdict:

  better        the change wins at least 9 of 10 pairs (pairs match by
                seed; ties count for neither) and the medians differ
                by more than the parent's own quartile spread
  worse         the change's median is worse than the parent's by more
                than the metric's bound
  within-bound  neither of the above, with the parent's spread inside
                the bound
  unresolved    the parent's spread is wider than the bound, and not
                every change run beats every parent run

It warns when the host fingerprints differ (other than the revision)
and exits 1 when the two sides' digests differ for a workload and
seed: a change that only speeds up the simulator must leave every
simulated statistic identical.
"""

import json
import statistics
import sys
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better, bound):
    """Apply the rule above; `pairs` is [(parent, change)] values."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1 \
            and sign * (cm - pm) > 0:
        return "better"
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    if (p3 - p1) > bound * abs(pm):
        all_better = all(sign * (c - p) > 0 for p in parent for c in change)
        return "better" if all_better else "unresolved"
    return "within-bound"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCH_JSON.read_text())
    sides = [load(sys.argv[1]), load(sys.argv[2])]
    status = 0

    fps = [{k: v for k, v in (r["fingerprint"] or {}).items() if k != "rev"}
           for side in sides for r in side]
    if any(fp != fps[0] for fp in fps):
        print("warning: host fingerprints differ between runs; "
              "timings may not be comparable")

    digests = [{(r["workload"], r["seed"]): (r["digest"] or {}).get("hash")
                for r in side} for side in sides]
    for key in sorted(set(digests[0]) & set(digests[1])):
        if digests[0][key] != digests[1][key]:
            print(f"FAIL: digest differs for workload {key[0]} seed "
                  f"{key[1]}: {digests[0][key]} vs {digests[1][key]}")
            status = 1
    for side, name in zip(sides, ("parent", "change")):
        bad = [r for r in side if not r["result"]["correct"]]
        if bad:
            print(f"warning: {len(bad)} {name} run(s) reported "
                  "correct=false")

    print(f"{'workload':9} {'metric':16} {'n':>3} {'parent q1/med/q3':>34} "
          f"{'n':>3} {'change q1/med/q3':>34}  verdict")
    for wl in spec["workloads"]:
        runs = [[r for r in side if r["workload"] == wl["name"]
                 and r["trace"] == 0] for side in sides]
        if not runs[0] or not runs[1]:
            continue
        for m in spec["end_to_end"]:
            vals = [{r["seed"]: r["result"]["metrics"][m["name"]]["value"]
                     for r in side} for side in runs]
            pairs = [(vals[0][s], vals[1][s])
                     for s in sorted(set(vals[0]) & set(vals[1]))]
            parent, change = list(vals[0].values()), list(vals[1].values())
            v = verdict(parent, change, pairs, m["better"], m["bound"])
            cols = ["%10.4g/%10.4g/%10.4g" % quartiles(x)
                    for x in (parent, change)]
            print(f"{wl['name']:9} {m['name']:16} {len(parent):3} "
                  f"{cols[0]:>34} {len(change):3} {cols[1]:>34}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
