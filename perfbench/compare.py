#!/usr/bin/env python3
"""Compare two sets of perfbench results (a parent and a change).

Usage:

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl \
        [--benchmark BENCHMARK.json]

Each file holds the JSON lines run.py appends with --out.  Runs are
paired in file order, so record them alternating (parent, change,
parent, ...) with the same seeds on both sides.  For every workload
and metric the tool reports:

  - each side's median and quartiles, and the change's wins out of the
    pairs;
  - "gain" only when the guide's rule holds: at least 10 pairs, the
    change better in at least 9/10 of them (ties count for neither),
    and the medians further apart than the parent's own quartile
    spread;
  - for metrics BENCHMARK.json bounds: "REGRESSION" when the change's
    median is worse than the parent's by more than the bound,
    "unresolved" when the parent's spread exceeds the bound (unless
    every change run beats every parent run), else "within bound";
  - "SIM CHANGED" for any simulated-clock metric that differs at the
    same seed: the simulated clock is deterministic, so that is a real
    change of the model, never noise;
  - the failed-op share of each side.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics as M  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """{(workload, trace): [record, ...]} in file order."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                runs[(r["workload"], r["trace"])].append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdicts(name, pv, cv, pseeds, cseeds, bound):
    unit, direction, clock = M.info(name)
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    pairs = list(zip(pv, cv))
    wins = sum(better(c, p, direction) for p, c in pairs)
    iqr = p3 - p1
    out = []
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(cm - pm) > iqr and better(cm, pm, direction)):
        out.append("gain")
    if bound is not None and pm:
        worse = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
        spread = iqr / abs(pm)
        all_better = all(better(c, p, direction) for c in cv for p in pv)
        if spread > bound and not all_better:
            out.append("unresolved (spread %.3f > bound %.3f)"
                       % (spread, bound))
        elif worse > bound:
            out.append("REGRESSION (%.1f%% worse > bound %.0f%%)"
                       % (100 * worse, 100 * bound))
        else:
            out.append("within bound %.0f%%" % (100 * bound))
    if clock == "sim":
        same = defaultdict(set)
        for s, v in zip(pseeds, pv):
            same[s].add(("p", v))
        for s, v in zip(cseeds, cv):
            same[s].add(("c", v))
        shared = [s for s in same if {t for t, _ in same[s]} == {"p", "c"}]
        if any(len({v for _, v in same[s]}) > 1 for s in shared):
            out.append("SIM CHANGED")
        elif not shared and pm != cm:
            out.append("SIM CHANGED (no shared seed)")
    row = "  %-32s %-6s %12.6g [%.4g..%.4g]  %12.6g [%.4g..%.4g]  %+7.2f%%  %d/%d" % (
        name, unit, pm, p1, p3, cm, c1, c3,
        100 * (cm - pm) / pm if pm else 0.0, wins, len(pairs))
    return row + "  " + "; ".join(out), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    bounds = {}
    try:
        spec = json.loads(Path(args.benchmark).read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        print("(no bounds: cannot read %s)" % args.benchmark)

    parent, change = load(args.parent), load(args.change)
    regressions = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        pr, cr = parent[key], change[key]
        print("%s  trace=%d  parent runs=%d  change runs=%d"
              % (workload, trace, len(pr), len(cr)))
        for side, rs in (("parent", pr), ("change", cr)):
            att = sum(r["attempted"] for r in rs)
            print("  failed ops, %s: %d of %d (%.4g)" % (
                side, sum(r["failed"] for r in rs), att,
                sum(r["failed"] for r in rs) / att if att else 0.0))
        print("  %-32s %-6s %12s %-18s %12s %-18s %8s  wins" % (
            "metric", "unit", "parent", "", "change", "", "delta"))
        names = [n for n in pr[0]["metrics"] if n in cr[0]["metrics"]]
        for name in names:
            pv = [r["metrics"][name]["value"] for r in pr]
            cv = [r["metrics"][name]["value"] for r in cr]
            row, out = verdicts(name, pv, cv, [r["seed"] for r in pr],
                                [r["seed"] for r in cr], bounds.get(name))
            regressions += any(v.startswith("REGRESSION") for v in out)
            print(row)
    missing = sorted(set(parent) ^ set(change))
    for key in missing:
        print("only on one side: %s trace=%d" % key)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
