#!/usr/bin/env python3
"""Run each workload several times and report how steady its metrics are.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads sweep --trace 1

Each run goes through perfbench/run.py with its own seed (1, 2, ...).  For
every metric this prints the median, the quartiles (Python's
statistics.quantiles with n=4), the minimum and maximum, and the quartile
spread: the distance between the quartiles as a share of the median.  A
spread above a tenth is flagged, and so is an end-to-end spread above the
metric's bound in BENCHMARK.json.  With --trace 0 each run's values are
also printed as it ends, so slow stretches of the machine show as runs in a
row that read high.  Exits 1 if a run fails or reports a
failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in range(1, args.runs + 1):
            run = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            if not args.trace:
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{name}={metric['value']:.6g}"
                    for name, metric in result["metrics"].items()), flush=True)
        print(f"== {workload}: {args.runs} runs of {args.seconds} s, trace {args.trace}")
        print(f"{'metric':<44} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flags = []
            if spread > 0.1:
                flags.append("SPREAD>0.1")
            if name in bounds and spread > bounds[name]:
                flags.append(f"SPREAD>BOUND({bounds[name]})")
            print(f"{name:<44} {units[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{min(vals):>12.6g} {max(vals):>12.6g} {spread:>8.2%} {' '.join(flags)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
