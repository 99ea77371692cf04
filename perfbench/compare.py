#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by `perfbench/run.py --record FILE`.
For every workload and end-to-end metric this prints each side's median
and quartiles, the share of pairs the change won, and a verdict:

  better      the change won at least 9 of 10 pairs and the medians differ
              by more than the spread (q3 - q1) of the base runs
  worse       the change's median is worse than the base's by more than
              the metric's bound
  unresolved  either side's spread is wider than the bound, and not every
              change run beats every base run
  same        none of the above: within the bound

Runs pair up by seed (runs of a seed that only one side has are left out
of the pair count). Traced records get a table of per-layer medians, with
no verdict. Exits 1 when any verdict is "worse".
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])].append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, metric):
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs}


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    b = list(base.values())
    c = list(change.values())
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    won = wins / len(seeds) if seeds else 0.0
    all_better = all(sign * (x - y) > 0 for x in c for y in b)
    worse_by = sign * (bmed - cmed) / abs(bmed) if bmed else 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if seeds and won >= 0.9 and sign * (cmed - bmed) > bq3 - bq1:
        v = "better"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return (bq1, bmed, bq3), (cq1, cmed, cq3), won, len(seeds), v


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    worse = False
    print("%-13s %-17s %30s %30s %9s  %s" % ("workload", "metric", "base median [q1, q3]",
                                              "change median [q1, q3]", "won", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        if not base[(name, 0)] or not change[(name, 0)]:
            continue
        for m in spec["end_to_end"]:
            b, c, won, pairs, v = verdict(values(base[(name, 0)], m["name"]),
                                          values(change[(name, 0)], m["name"]),
                                          m["better"], m["bound"])
            worse = worse or v == "worse"
            fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
            print("%-13s %-17s %30s %30s %4.0f%% /%2d  %s" % (name, m["name"], fmt(b), fmt(c),
                                                            100 * won, pairs, v))
    for w in spec["workloads"]:
        name = w["name"]
        if not base[(name, 1)] or not change[(name, 1)]:
            continue
        print("\n%s, traced: per-layer medians" % name)
        for m in spec["per_layer"]:
            bm = statistics.median(values(base[(name, 1)], m["name"]).values())
            cm = statistics.median(values(change[(name, 1)], m["name"]).values())
            if bm or cm:
                ratio = "%.3f" % (cm / bm) if bm else "-"
                print("  %-32s %14.6g %14.6g  x%s %s" % (m["name"], bm, cm, ratio, m["unit"]))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
