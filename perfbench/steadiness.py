#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end benchmark.

Runs each workload --runs times, each with another seed, and prints for
every end-to-end metric its median, its quartiles and their distance as a
share of the median (the spread), next to the metric's bound from
BENCHMARK.json. A spread below a third of the bound is marked "ok". Also
prints the share of failed operations, which must be identical across runs.

    python3 perfbench/steadiness.py --runs 10 --seed-base 1000

Each run measures BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        shares = set()
        correct = True
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i,
                              spec["run_seconds"])
            correct = correct and result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("  %s seed %d done" % (workload, args.seed_base + i),
                  file=sys.stderr)
        fail_shares = sorted({f / a for f, a in shares})
        print("%s: %d runs, seeds %d-%d, correct=%s, failed share %s" %
              (workload, args.runs, args.seed_base,
               args.seed_base + args.runs - 1, correct,
               ", ".join("%.6f" % s for s in fail_shares)))
        print("  %-18s %12s %12s %12s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
            if name == "setup_s":
                verdict += " (spread not gated)"
            print("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f %s" %
                  (name, med, q1, q3, spread, bound, verdict))


if __name__ == "__main__":
    main()
