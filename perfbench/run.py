#!/usr/bin/env python3
"""End-to-end benchmark of ustdb through its public QueryService API.

Builds the library and the benchmark binary in Release from the checkout
this script lives in (into .bench_build/perfbench), then runs one workload:

    python3 perfbench/run.py --workload adhoc_scan --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 prints the per-layer
metrics instead and writes spans and a per-layer table to .bench_out/.

    python3 perfbench/run.py --selfcheck

runs every workload at tiny size with all correctness checks, plus negative
cases that corrupt an answer and must be caught. Build output goes to
standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ustdb_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0 and os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and (not args.workload or not args.seconds):
        parser.error("--workload and --seconds are required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.selfcheck:
        command = [BINARY, "--selfcheck"]
    else:
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", OUT_DIR]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
