#!/usr/bin/env python3
"""The repository benchmark: serve, ingest and rebuild on both clocks.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve|ingest|rebuild \
        [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Builds perfbench/ (and the raid2 sources it compiles) into
.bench_build/perfbench on first use, then runs the workload again and
again for --seconds seconds, at least twice, and prints every metric
with its unit.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off).  --trace 1
alternates untraced and traced runs and reports the per-layer metrics:
sim-clock ones from the StatsRegistry, host-clock ones from a timed
replay of the traced run's op stream (see README.md), plus the tracing
overhead.  Spans of the last traced run are written to
.bench_build/perfbench/spans-<workload>-<seed>.csv.

Seeds: the default seed is 1.  Seed 7919 is held out: do not look at it
while developing a change, and use it to confirm a claimed gain.

Exit status: 0 when every correctness check passed and repeated runs
at the seed gave bit-identical sim-clock results; 1 when a check
failed (the JSON line still follows); 2 on bad arguments; 3 when the
build or a run could not complete (no JSON line).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics as M  # noqa: E402

DEFAULT_SEED = 1
WORKLOADS = ("serve", "ingest", "rebuild")
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "raid2_perfbench"
# One process of the benchmark binary; every workload runs in < 40 s.
PROCESS_TIMEOUT_S = 120
# Do not start another repetition past this point of the run.
RUN_BUDGET_S = 120


class BenchError(Exception):
    pass


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Concurrent invocations in one checkout must not build at once.
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            _checked(cmd)
        jobs = str(min(4, os.cpu_count() or 1))
        _checked(["cmake", "--build", str(BUILD_DIR), "--target",
                  "raid2_perfbench", "-j", jobs])


def _checked(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def run_once(workload, seed, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans",
                str(BUILD_DIR / ("spans-%s-%d.csv" % (workload, seed)))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        raise BenchError("exit %d: %s" % (r.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def repeat(seconds, step):
    """Call step() until @seconds have passed, at least twice for
    untraced runs (see main), never past RUN_BUDGET_S."""
    t0 = time.monotonic()
    step()
    while True:
        took = time.monotonic() - t0
        if took >= seconds or took * 2 > RUN_BUDGET_S:
            return
        step()


def sim_records(rep):
    return [w["sim"] for w in rep["worlds"]]


def total(rep, key):
    return sum(w[key] for w in rep["worlds"])


def gated_names(kind):
    """The metric names BENCHMARK.json puts in the result line."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [m["name"] for m in spec[kind]]
    except (OSError, ValueError, KeyError):
        if kind == "per_layer":
            return list(M.PER_LAYER)
        return [n for n, v in M.END_TO_END.items()
                if v[3] is None and n != "failed_frac"]


def end_to_end(workload, reps):
    m = M.sim_end_to_end(workload, reps[0])
    m["run_s"] = M.median([total(r, "run_s") for r in reps])
    m["setup_s"] = M.median([w["setup_s"] for r in reps
                             for w in r["worlds"]])
    m["peak_rss_MB"] = M.median([r["peak_rss_MB"] for r in reps])
    return m


def per_layer(workload, plain, traced):
    first = traced[0]
    idx = 0
    if workload == "serve":
        idx = [w["offered"] for w in sim_records(first)].index(
            M.SERVE_LATENCY_RATE)
    world = first["worlds"][idx]
    m = M.sim_per_layer(world, world["sim"], first["xbus_memory_modules"],
                        first["seg_blocks"])

    def replay(r, key):
        return sum(w["replay"][key] for w in r["worlds"])

    for layer in ("lfs", "integrity", "raid"):
        m[layer + ".host_s"] = M.median([replay(r, layer + "_s")
                                         for r in traced])
    m["sim.host_s"] = M.median([total(r, "run_s") - replay(r, "total_s")
                                for r in traced])
    events = sum(w["events"] for w in sim_records(first))
    m["sim.events"] = events
    m["sim.host_ns_per_event"] = (m["sim.host_s"] * 1e9 / events
                                  if events else 0.0)
    m["trace.overhead_s"] = (
        M.median([total(r, "run_s") for r in traced])
        - M.median([total(r, "run_s") for r in plain]))
    return m


def fmt(v):
    return "%.6g" % v


def report(workload, seed, trace, m, reps, counts):
    print("perfbench %s  seed=%d  trace=%d  runs=%d" %
          (workload, seed, trace, reps))
    for name in [n for n in (*M.END_TO_END, *M.PER_LAYER) if n in m]:
        v = m[name]
        unit, better, clock = M.info(name)
        note = ""
        if name in counts:
            n, beyond = counts[name]
            note = "  (n=%d, %d beyond)" % (n, beyond)
        print("  %-32s %14s %-6s %s, %s is better%s" %
              (name, fmt(v), unit, clock, better, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result as a JSON line")
    args = ap.parse_args()

    try:
        build()
        plain, traced = [], []
        if args.trace:
            def step():
                plain.append(run_once(args.workload, args.seed, False))
                traced.append(run_once(args.workload, args.seed, True))
        else:
            def step():
                plain.append(run_once(args.workload, args.seed, False))
                if len(plain) == 1:  # a second run for determinism
                    plain.append(run_once(args.workload, args.seed, False))
        repeat(args.seconds, step)
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 3

    reps = plain + traced
    problems = sorted({p for r in reps for w in r["worlds"]
                       for p in w["problems"]})
    # Sim-clock results must repeat bit for bit at one seed, traced or
    # not (the recorder only observes).
    signatures = {json.dumps([r["pooled"], sim_records(r)], sort_keys=True)
                  for r in reps}
    if len(signatures) != 1:
        problems.append("sim-clock results differ between runs at seed %d"
                        % args.seed)
    if len({json.dumps([w["registry_end"] for w in r["worlds"]],
                       sort_keys=True) for r in traced}) > 1:
        problems.append("registry differs between traced runs at seed %d"
                        % args.seed)

    if args.trace:
        m = per_layer(args.workload, plain, traced)
        names = gated_names("per_layer")
        counts = {}
    else:
        m = end_to_end(args.workload, plain)
        names = gated_names("end_to_end")
        counts = M.sample_counts(args.workload, plain[0])
    attempted = sum(w["sim"]["attempted"] for r in reps for w in r["worlds"])
    failed = sum(w["sim"]["failed"] for r in reps for w in r["worlds"])
    failed += len(problems)

    report(args.workload, args.seed, args.trace, m, len(reps), counts)
    if args.workload == "serve" and not args.trace:
        print("  serve sweep (sim clock):")
        for w in sim_records(plain[0]):
            print("    offered %4g ops/s (realised %6.2f)  achieved %6.2f"
                  "  p99 %9.1f ms  rejects %7d  failed %d  SLO %s" %
                  (w["offered"], M.offered_ops(w), M.achieved_ops(w),
                   w["p99_ms"], w["rejects"], w["failed"],
                   "met" if M.meets_slo(w) else "missed"))
    for p in problems:
        print("  CHECK FAILED: " + p)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m[n], "unit": M.info(n)[0]}
                    for n in names},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed,
                    trace=args.trace, runs=len(reps),
                    metrics={n: {"value": v, "unit": M.info(n)[0]}
                             for n, v in m.items()})
        with open(args.out, "a") as f:
            f.write(json.dumps(full) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
