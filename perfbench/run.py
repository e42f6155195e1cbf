#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

One run, one workload, one process:

    python3 perfbench/run.py --workload native-queue --seed 1 --seconds 10 --trace 0

builds perfbench/suite.exe with dune, runs it, checks that its result
line names exactly the metrics BENCHMARK.json declares, and passes its
output through; the last line of standard output is the result JSON.
With --trace 1 the run reports the per-layer metrics and leaves its span
records in .bench_build/.

Stability check (the same commit against itself):

    python3 perfbench/run.py --repeat 10 [--seed 1]

runs every workload K times, seed base+k in round k, alternating the
workload order each round, and prints median and quartiles per metric
and workload.  It exits non-zero when a metric's spread (interquartile
range over median) exceeds its bound, or when the second half of the
rounds is worse than the first by more than the bound.

Exit codes: 0 with a result printed; 2 when the benchmark cannot be
built or run here (nothing printed on standard output); 3 when the
suite failed or broke the output contract; 1 when --repeat finds the
benchmark unstable.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SUITE = os.path.join("_build", "default", "perfbench", "suite.exe")
SPAN_DIR = ".bench_build"
BUILD_TIMEOUT_S = 700
# Beyond the measured seconds: set-up, checks and the traced halves.
RUN_SLACK_S = 150


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json here: %s" % e)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail(2, "no dune project in %s: run from the repository root" % os.getcwd())
    dune = shutil.which("dune")
    if dune is None:
        fail(2, "dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/suite.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(2, "build timed out")
    if p.returncode != 0 or not os.path.isfile(SUITE):
        sys.stderr.write(p.stdout.decode(errors="replace"))
        fail(2, "build failed")


def run_suite(bench, workload, seed, seconds, trace):
    """Run one workload; return (stdout text, parsed result line)."""
    cmd = [SUITE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        cmd += ["--trace", os.path.join(SPAN_DIR, "spans-%s-%d.json" % (workload, seed))]
    try:
        p = subprocess.run(
            cmd, stdout=subprocess.PIPE, timeout=seconds + RUN_SLACK_S
        )
    except subprocess.TimeoutExpired:
        fail(3, "%s timed out" % workload)
    out = p.stdout.decode(errors="replace")
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0:
        sys.stderr.write(out)
        fail(3, "%s exited with %d" % (workload, p.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail(3, "%s printed no result line" % workload)
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stderr.write(out)
        fail(3, "%s: result line does not match BENCHMARK.json" % workload)
    return out, result


def single(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(2, "unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))
    build()
    out, _ = run_suite(bench, args.workload, args.seed, args.seconds, args.trace == 1)
    sys.stdout.write(out)


def worse(metric, first, second):
    """How much worse [second] is than [first], as a share of [first]."""
    if first == 0:
        return 0.0
    d = (second - first) / abs(first)
    return d if metric["better"] == "lower" else -d


def repeat(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    build()
    runs = {w: [] for w in workloads}
    for k in range(args.repeat):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for w in order:
            t0 = time.monotonic()
            _, r = run_suite(bench, w, args.seed + k, args.seconds, False)
            print(
                "round %d %-16s %5.1f s correct=%s failed=%d/%d"
                % (k, w, time.monotonic() - t0, r["correct"], r["failed"], r["attempted"]),
                flush=True,
            )
            runs[w].append(r)
    unstable = []
    print("\n%-16s %-12s %14s %14s %14s %8s %8s %8s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "halves", "bound"))
    for w in workloads:
        if not all(r["correct"] for r in runs[w]):
            unstable.append("%s: a run reported correct=false" % w)
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            half = len(vals) // 2
            halves = (
                worse(m, statistics.median(vals[:half]), statistics.median(vals[half:]))
                if half
                else 0.0
            )
            print("%-16s %-12s %14.6g %14.6g %14.6g %7.2f%% %+7.2f%% %7.1f%%" % (
                w, m["name"], q1, med, q3, 100 * spread, 100 * halves, 100 * m["bound"]))
            if m["name"] != "setup_s" and spread > m["bound"]:
                unstable.append("%s %s: spread %.3f over bound %.3f" % (
                    w, m["name"], spread, m["bound"]))
            if halves > m["bound"]:
                unstable.append("%s %s: second half %.3f worse, bound %.3f" % (
                    w, m["name"], halves, m["bound"]))
    for u in unstable:
        print("UNSTABLE: " + u)
    sys.exit(1 if unstable else 0)


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, metavar="K")
    args = ap.parse_args()
    if args.repeat:
        repeat(args, bench)
    elif args.workload:
        single(args, bench)
    else:
        fail(2, "give --workload NAME or --repeat K")


if __name__ == "__main__":
    main()
