#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line.

    python3 perfbench/run.py --workload <backfill|live|query> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark program
(`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
prepares the workload's inputs for the seed in a process of their own
(cached under `.bench_work/prep`), then runs the workload in a fresh
process and forwards its JSON result line as the last line of standard
output. Everything else goes to standard error. Any failure exits with a
non-zero code and prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("backfill", "live", "query")
# Prepared inputs kept on disk; older ones are removed.
KEEP_PREPARED = 12
PREPARE_TIMEOUT_S = 120
# The run itself: the measured seconds plus set-up, checks and the tail.
RUN_OVERHEAD_S = 100


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark; returns the program's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError("build failed")
    log(f"build took {time.monotonic() - started:.1f} s")
    return os.path.join(target, "release", "perfbench")


def prepared(program, workload, seed):
    """The inputs directory for (workload, seed), preparing it if needed.
    Inputs are keyed by the program's bytes as well, so a rebuilt program
    never reads inputs an older one wrote."""
    with open(program, "rb") as f:
        version = hashlib.sha1(f.read()).hexdigest()[:12]
    prep_root = os.path.join(WORK, "prep")
    path = os.path.join(prep_root, f"{workload}-{seed}-{version}")
    ready = os.path.join(path, "ready")
    if os.path.exists(ready):
        os.utime(ready)
        return path
    shutil.rmtree(path, ignore_errors=True)
    started = time.monotonic()
    subprocess.run([program, "prepare", "--workload", workload, "--seed", str(seed),
                    "--dir", path], check=True, stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
    open(ready, "w").close()
    log(f"prepared {workload} seed {seed} in {time.monotonic() - started:.1f} s")
    # Keep the most recently used inputs only.
    entries = []
    for name in os.listdir(prep_root):
        marker = os.path.join(prep_root, name, "ready")
        if os.path.exists(marker):
            entries.append((os.path.getmtime(marker), name))
    for _, name in sorted(entries)[:-KEEP_PREPARED]:
        shutil.rmtree(os.path.join(prep_root, name), ignore_errors=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--threads", type=int,
                        help="engine threads instead of the workload's own (reference runs only)")
    args = parser.parse_args()

    program = build()
    inputs = prepared(program, args.workload, args.seed)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    cmd = [program, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--inputs", inputs, "--work", work]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.trace == "1":
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_OVERHEAD_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"{args.workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RuntimeError("no result line")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
