#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for each
end-to-end metric, the median and the spread between the first and third
quartile as a share of the median (statistics.quantiles(values, n=4)).

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 101]
                                    [--workloads a,b] [--record]

Run from the repository root. Every run must pass its output checks.
--record stores the medians and spreads as the baseline section of
perfbench/reference.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stdout}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    baseline = {}
    steady = True
    for workload in names:
        values = {name: [] for name in bounds}
        start = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for name, metric in run_once(workload, seed, bench["run_seconds"])["metrics"].items():
                values[name].append(metric["value"])
        elapsed = time.monotonic() - start
        baseline[workload] = {}
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            baseline[workload][name] = {"median": q2, "spread": spread}
            print(f"{workload:15s} {name:12s} median {q2:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}  values "
                  f"{' '.join(f'{v:.5g}' for v in series)}")
        print(f"{workload}: {args.runs} runs in {elapsed:.0f} s", flush=True)

    if args.record:
        path = os.path.join(run.HERE, "reference.json")
        reference = run.load_json(path)
        recorded = reference.setdefault("baseline", {})
        recorded["about"] = ("Medians and quartile spreads (share of the median) of the end-to-end "
                             "metrics over several seeds per workload, from perfbench/steadiness.py.")
        for workload, metrics in baseline.items():
            recorded[workload] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                                  "run_seconds": bench["run_seconds"], "metrics": metrics}
        with open(path, "w") as f:
            json.dump(reference, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
