#!/usr/bin/env python3
"""Steadiness report: run each workload N times and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--same-seed]
                                [--workload <name> ...] [--trace 0|1]

Runs `perfbench/run.py` once per seed (seeds first-seed, first-seed + 1, ...)
for each workload, one run at a time, each for BENCHMARK.json's
`run_seconds`. With `--same-seed` every run uses first-seed, so the spread
is run-to-run noise alone, without the differences between inputs. For every metric it prints the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`), and the
spread: the quartile distance as a share of the median. For end-to-end
metrics it also prints the metric's bound from BENCHMARK.json and whether
the spread is below a third of it. `setup_s` is exempt from the spread
rule, as its bound only limits how far its median may move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        last = args.first_seed + (0 if args.same_seed else args.runs - 1)
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}..{last})")
        print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, spread = summarise(values)
            verdict = ""
            if name in bounds:
                ok = name == "setup_s" or spread < bounds[name] / 3
                steady &= ok
                verdict = f"{bounds[name]:.3f} {'ok' if ok else 'TOO NOISY'}"
            print(f"  {name:40} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f}  {verdict}")
        if not all(r["correct"] for r in results):
            steady = False
            print("  some runs failed their output checks")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
