#!/usr/bin/env python3
"""Compares two sets of adafl_bench results (standard library only).

    python3 bench/e2e/compare.py --base base/*.json --new new/*.json

Each file is what `adafl_bench --out=...` writes (one run of one or all
workloads). Run the two sides alternately, base first then new first, at
least ten runs each; the i-th base file is paired with the i-th new file.

For every workload x metric it prints each side's median and quartiles and
a verdict:

  gain        the new side wins at least 9 of every 10 pairs (ties count
              for neither) and the medians differ by more than the base
              side's interquartile distance;
  regression  the new median is worse than the base median by more than the
              metric's BENCHMARK.json bound;
  unresolved  the base side's spread (interquartile distance over median)
              exceeds the bound, and not every new run beats every base run;
  same        none of the above.

Per-layer metrics have no bound: traced runs get their medians and the
pair count only. Exits 1 when a run is incorrect or any end-to-end metric
regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths):
    """[{workload: result}] per file, in the order given."""
    runs = []
    for p in paths:
        with open(p) as f:
            data = json.load(f)
        runs.append({r["workload"]: r for r in data})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    opts = ap.parse_args()

    with open(opts.benchmark) as f:
        spec = json.load(f)
    base, new = load(opts.base), load(opts.new)
    if len(base) != len(new):
        print(f"warning: {len(base)} base runs vs {len(new)} new runs; "
              "pairing the first min() of each")
    if min(len(base), len(new)) < 10:
        print("warning: fewer than 10 runs per side; no gain can be claimed")

    bad = False
    for side, runs in (("base", base), ("new", new)):
        for i, run in enumerate(runs):
            for w, r in run.items():
                if not r["correct"] or not r.get("valid", True):
                    print(f"{side} run {i} {w}: incorrect or invalid "
                          f"({r['notes']})")
                    bad = True

    metrics = [(m["name"], m["better"], m.get("bound")) for m in
               spec["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in spec["per_layer"]]
    header = (f"{'workload':10} {'metric':30} {'base q1/med/q3':>32} "
              f"{'new q1/med/q3':>32} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    regressions = 0
    for w in [x["name"] for x in spec["workloads"]]:
        for name, direction, bound in metrics:
            # Untraced runs report per-layer metrics as 0: skip them.
            pairs = [(b[w]["metrics"][name]["value"],
                      n[w]["metrics"][name]["value"])
                     for b, n in zip(base, new)
                     if w in b and w in n and name in b[w]["metrics"]
                     and name in n[w]["metrics"]
                     and (bound is not None or
                          (b[w]["traced"] and n[w]["traced"]))]
            if not pairs:
                continue
            bv = [p[0] for p in pairs]
            nv = [p[1] for p in pairs]
            bq, nq = quartiles(bv), quartiles(nv)
            wins = sum(better(n, b, direction) for b, n in pairs)
            verdict = ""
            if bound is not None:
                spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
                worse = nq[1] - bq[1] if direction == "lower" \
                    else bq[1] - nq[1]
                all_better = all(better(n, b, direction)
                                 for n in nv for b in bv)
                if wins >= 0.9 * len(pairs) and len(pairs) >= 10 and \
                        abs(nq[1] - bq[1]) > bq[2] - bq[0] and \
                        better(nq[1], bq[1], direction):
                    verdict = "gain"
                elif bq[1] and worse > bound * abs(bq[1]):
                    verdict = "regression"
                    regressions += 1
                elif spread > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "same"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w:10} {name:30} {fmt.format(*bq):>32} "
                  f"{fmt.format(*nq):>32} {wins:>3}/{len(pairs):<2}  {verdict}")
    return 1 if bad or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
