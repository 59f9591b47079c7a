#!/usr/bin/env python3
"""Builds the SERENITY perf benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload plan_zoo --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build). Build output is
sent to stderr, so the last line of stdout is the benchmark's JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("plan_zoo", "serve_infer")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds; set-up, the traces' fixed passes and the
# plan oracles take at most this much more.
RUN_MARGIN_S = 130


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir,
                  "--target", "serenity_perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    command = [os.path.join(build_dir, "serenity_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=args.seconds + RUN_MARGIN_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
