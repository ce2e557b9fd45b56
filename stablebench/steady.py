#!/usr/bin/env python3
"""Runs one workload repeatedly and prints each metric's spread.

    python3 stablebench/steady.py --workload NAME [--runs 10]
        [--first-seed 1] [--seconds S]

Each run gets its own seed (first-seed, first-seed+1, ...). It prints
every run's figures, then for every end-to-end metric the median, the
first and third quartiles (Python's statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, next to the bound in BENCHMARK.json
and a third of it, the target for a steady benchmark, and last the
share of failed operations of every run. Use it to set each end-to-end
bound, and to set the bounds again on a new machine.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("run with seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        shares.append(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("  " + "  ".join("%s=%.4g" % (name, m["value"])
                               for name, m in result["metrics"].items()),
              flush=True)

    print("\n%-30s %12s %12s %12s %8s %7s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "bound/3"))
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        print("%-30s %12.6g %12.6g %12.6g %8.4f %7.3f %7.3f" %
              (name, med, q1, q3, spread, bound, bound / 3))
    print("\nfailed share per run: %s" % sorted(set(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
