#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end figures are steady.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads backfill,live,query] [--out results.json] [--threads n]
    python3 perfbench/steady.py --trace-overhead [--first-seed 1]

Run from the repository root. The first form runs every workload `--runs`
times through `perfbench/run.py`, one seed per round, alternating the
workload order from round to round, and prints for each end-to-end metric
its median, first and third quartile, and the quartile spread as a share
of the median against the metric's bound from `BENCHMARK.json`
(`statistics.quantiles(values, n=4)`). A spread at most a third of the
bound reads `steady`, at most the bound `ok`, beyond it `WIDE`; set-up
time is listed but not held to its bound. The share of failed operations
must be the same in every run.

The second form runs each workload once untraced and once traced on the
same seed and prints the traced run's span coverage and overhead share,
plus the drop in operations completed per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, threads=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if threads:
        cmd += ["--threads", str(threads)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steadiness(args, bench):
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run(w, seed, bench["run_seconds"], 0, args.threads)
            results[w].append(r)
            print(f"# {w} seed {seed}: attempted {r['attempted']} failed {r['failed']} "
                  f"correct {r['correct']}", file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    worst = "steady"
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "-"
            elif spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "ok"
                worst = "ok" if worst == "steady" else worst
            else:
                verdict = "WIDE"
                worst = "WIDE"
            print(f"  {m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6} {verdict}")
        if len(shares) != 1:
            worst = "WIDE"
    print(f"\nworst verdict: {worst}")


def overhead(args, bench):
    for w in args.workloads.split(","):
        plain = run(w, args.first_seed, bench["run_seconds"], 0)
        traced = run(w, args.first_seed, bench["run_seconds"], 1)
        m = traced["metrics"]
        drop = 1 - traced["attempted"] / plain["attempted"]
        print(f"{w}: span coverage {m['trace.span_coverage']['value']:.3f}, "
              f"trace-only share {m['trace.overhead_share']['value']:.3f}, "
              f"operations per run {plain['attempted']} untraced / {traced['attempted']} traced "
              f"({drop:.1%} fewer traced)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="backfill,live,query")
    parser.add_argument("--out")
    parser.add_argument("--threads", type=int,
                        help="engine threads instead of each workload's own (reference runs)")
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()
    bench = spec()
    if args.trace_overhead:
        overhead(args, bench)
    else:
        steadiness(args, bench)


if __name__ == "__main__":
    main()
