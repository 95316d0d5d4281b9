#!/usr/bin/env python3
"""Build the hostcc-sim benchmark harness and run one workload.

    python3 perfbench/run.py --workload paper-hostcc --seed 1 --seconds 20 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones, and `--trace both` (the default) runs both
and prints every metric. The last output line is one JSON result object;
the exit code is nonzero when any pass failed its correctness check or the
harness could not be built. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-hostcc", "fattree-incast", "matchup-sweep", "chaos-observed"]
# The untraced harness, and the same harness with the counting allocator.
BINARIES = [("perfbench", []), ("perfbench-alloc", ["--features", "alloc"])]
# Longest a single harness run may take before it is stopped.
RUN_TIMEOUT_S = 175


def build(target_dir):
    """Build both harness binaries; return False (after reporting) on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for name, extra in BINARIES:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", name] + extra
        try:
            done = subprocess.run(cmd, env=env)
        except OSError as e:
            print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: building {name} failed", file=sys.stderr)
            return False
    return True


def run_harness(binary, args, trace):
    """Run one harness mode, echoing its output; return (exit code, result)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", trace]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} --trace {trace} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    body = lines[:-1] if result is not None else lines
    if body:
        print("\n".join(body), flush=True)
    return done.returncode, result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", choices=["0", "1", "both"], default="both")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        return 2
    modes = ["0", "1"] if args.trace == "both" else [args.trace]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for mode in modes:
        name = BINARIES[int(mode)][0]
        rc, result = run_harness(os.path.join(target_dir, "release", name), args, mode)
        if result is None:
            print(f"run.py: the --trace {mode} run printed no result", file=sys.stderr)
            return rc or 1
        code = code or rc
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(result["metrics"])
    print(json.dumps(merged), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
