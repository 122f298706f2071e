#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json's bounds.

    python3 benchmark/compare.py --base A.json [A2.json ...] \\
                                 --change B.json [B2.json ...]
    python3 benchmark/compare.py --self-test

Each file is a run.py result file ({"machine", "runs"}). For every
(metric, workload) pair present on both sides it prints each side's
median and quartiles (statistics.quantiles, n=4), the pair wins, and a
verdict, following the choosing-metrics guide (sections 5-8):

  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither), the medians differ by more than the base's own
              quartile spread, and the change fails no more operations;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the bound and not every change run beats every base run;
  unchanged   otherwise.

Per-layer metrics have no bound: they read improved or "info". Runs pair
up in file order (the i-th run of a workload on one side with the i-th on
the other), so interleave the two sides when recording them. Exits 1 if
any row reads worse or unresolved.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound, change_fails_more=False):
    """Returns (verdict, wins, losses, ties) for one (metric, workload)."""
    sign = 1 if better == "higher" else -1
    wins = losses = ties = 0
    for a, b in zip(base, change):
        d = sign * (b - a)
        wins += d > 0
        losses += d < 0
        ties += d == 0
    pairs = min(len(base), len(change))
    mb, mc = statistics.median(base), statistics.median(change)
    q1b, q3b = quartiles(base)
    gain = sign * (mc - mb)
    if (pairs > 0 and wins >= 0.9 * pairs and gain > 0 and
            abs(mc - mb) > q3b - q1b and not change_fails_more):
        return "improved", wins, losses, ties
    if bound is None:
        return "info", wins, losses, ties
    q1c, q3c = quartiles(change)
    spread = max((q3b - q1b) / abs(mb) if mb else math.inf,
                 (q3c - q1c) / abs(mc) if mc else math.inf)
    if spread > bound:
        change_always_better = (min(change) > max(base) if sign > 0
                                else max(change) < min(base))
        if change_always_better:
            return "unchanged", wins, losses, ties
        return "unresolved", wins, losses, ties
    worse_by = -gain / abs(mb) if mb else 0
    if worse_by > bound:
        return "worse", wins, losses, ties
    return "unchanged", wins, losses, ties


def load_runs(paths):
    """{workload: [run, ...]} in file order."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for run in json.load(f)["runs"]:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def compare(base_paths, change_paths, out=sys.stdout):
    with open(SPEC) as f:
        spec = json.load(f)
    metrics = [(m, m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    base, change = load_runs(base_paths), load_runs(change_paths)
    header = (f"{'metric':30} {'workload':14} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8} "
              f"{'wins c/b/tie':>13} verdict")
    print(header, file=out)
    bad = 0
    for m, bound in metrics:
        for workload in sorted(set(base) & set(change)):
            a = [r["metrics"][m["name"]]["value"] for r in base[workload]
                 if m["name"] in r["metrics"]]
            b = [r["metrics"][m["name"]]["value"] for r in change[workload]
                 if m["name"] in r["metrics"]]
            if not a or not b:
                continue
            fails_more = (sum(r["failed"] for r in change[workload]) >
                          sum(r["failed"] for r in base[workload]))
            v, wins, losses, ties = verdict(a, b, m["better"], bound,
                                            fails_more)
            bad += v in ("worse", "unresolved")
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / abs(ma) * 100 if ma else 0.0
            qa, qb = quartiles(a), quartiles(b)
            print(f"{m['name']:30} {workload:14} "
                  f"{ma:12.5g} [{qa[0]:9.5g}, {qa[1]:9.5g}] "
                  f"{mb:12.5g} [{qb[0]:9.5g}, {qb[1]:9.5g}] {delta:7.2f}% "
                  f"{wins:>5}/{losses}/{ties:<4} {v}", file=out)
    return bad


def self_test():
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q = statistics.quantiles(values, n=4)
    expect(quartiles(values) == (q[0], q[2]), "quartiles follow statistics")
    expect(quartiles([3.0]) == (3.0, 3.0), "one value is its own quartiles")

    base = [100.0 + i * 0.1 for i in range(10)]
    # Nine of ten pairs won (one lost), medians 10% apart: improved.
    change = [90.0 + i * 0.1 for i in range(9)] + [200.0]
    expect(verdict(base, change, "lower", 0.1)[0] == "improved",
           "9 of 10 pair wins with a clear gap is improved")
    # Eight of ten pairs won: not improved.
    change = [90.0 + i * 0.1 for i in range(8)] + [200.0, 200.0]
    expect(verdict(base, change, "lower", 0.1)[0] != "improved",
           "8 of 10 pair wins is not improved")
    # Ties count for neither side: 9 wins and a tie out of 10.
    change = [90.0 + i * 0.1 for i in range(9)] + [base[9]]
    expect(verdict(base, change, "lower", 0.1)[0] == "improved",
           "9 wins and a tie out of 10 is improved")
    # More failed operations void a gain.
    change = [90.0 + i * 0.1 for i in range(10)]
    expect(verdict(base, change, "lower", 0.1, True)[0] != "improved",
           "a gain with more failures does not count")
    # Worse beyond the bound with a tight spread.
    change = [120.0 + i * 0.1 for i in range(10)]
    expect(verdict(base, change, "lower", 0.1)[0] == "worse",
           "20% slower with a 10% bound is worse")
    expect(verdict(base, change, "higher", 0.1)[0] == "improved",
           "direction follows 'better'")
    # Within the bound.
    change = [105.0 + i * 0.1 for i in range(10)]
    expect(verdict(base, change, "lower", 0.1)[0] == "unchanged",
           "5% slower with a 10% bound is unchanged")
    # Spread wider than the bound: unresolved unless the change always wins.
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0]
    expect(verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved",
           "spread wider than the bound is unresolved")
    expect(verdict(noisy, [40.0] * 10, "lower", 0.1)[0] == "unchanged",
           "noisy, but every change run better: no regression, no claim")
    expect(verdict(noisy, [20.0] * 10, "lower", 0.1)[0] == "improved",
           "a gap wider than the base's spread is improved")
    expect(verdict(noisy, [45.0] * 9 + [49.0], "higher", 0.1)[0] ==
           "unresolved", "noisy and worse is unresolved")
    expect(verdict(base, change, "lower", None)[0] == "info",
           "per-layer metrics without a gain are info")
    for what in failures:
        print(f"FAIL: {what}", file=sys.stderr)
    if not failures:
        print("compare self-test: all checks passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", help="result files of the base")
    parser.add_argument("--change", nargs="+",
                        help="result files of the change")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        parser.error("--base and --change are required")
    return 1 if compare(args.base, args.change) else 0


if __name__ == "__main__":
    sys.exit(main())
