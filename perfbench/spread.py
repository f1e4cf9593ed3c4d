#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

    python3 perfbench/spread.py [--runs 10] [--workload <name> ...] [--first-seed 1]

Run from the repository root. For each workload, runs the benchmark once
per seed (seeds first-seed .. first-seed+runs-1) and prints, for every
end-to-end metric, its median and its spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. Also checks that
every run was correct. Exits non-zero if a run failed or was incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "ok" if spread <= metric["bound"] / 3 else (
                "WIDE" if spread <= metric["bound"] else "OVER")
            print(f"  {metric['name']:14s} median {median:<14.6g} spread "
                  f"{spread:6.3f}  bound {metric['bound']:.2f}  {flag}  "
                  + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
