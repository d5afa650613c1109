#!/usr/bin/env python3
"""Regenerates the reference statistics in perfbench/reference.json.

    python3 perfbench/make_reference.py

Run from the repository root after a change that is meant to alter the
simulated statistics (for example a new noise source), and say why in the
change. It records, per workload, the runner's inputs, the exact
statistics of the reference-seed probe, the calibrated phy_table of the DES
workloads, and for link_waterfall the per-point frame and bit counts that
the Wilson checks compare against (pooled over REFERENCE_SEEDS). The
tolerance and baseline sections are kept as they are.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

REFERENCE_SEEDS = (1, 2, 3, 4)
POOLED = ("frames", "delivered", "bits", "bit_errors")


def runner_doc(runner, workload, seed, cache_parent):
    cache_root = tempfile.mkdtemp(prefix="ref-", dir=cache_parent)
    try:
        out = subprocess.run([runner, "--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", "0", "--cache-root", cache_root],
                             stdout=subprocess.PIPE, text=True, check=True, cwd=run.ROOT)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return json.loads(out.stdout)


def main():
    path = os.path.join(run.HERE, "reference.json")
    reference = run.load_json(path)
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    directory = run.build_dir()
    runner = run.build(directory)
    cache_parent = os.path.join(directory, "cache")
    os.makedirs(cache_parent, exist_ok=True)

    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        docs = [runner_doc(runner, name, seed, cache_parent)
                for seed in (REFERENCE_SEEDS if name == "link_waterfall" else REFERENCE_SEEDS[:1])]
        record = {"why": entry["why"], "inputs_at_seed_1": docs[0]["inputs"],
                  "probe": run.checks.simulated(docs[0]["probe"])}
        if "calibration" in docs[0]:
            record["calibration"] = docs[0]["calibration"]
        if name == "link_waterfall":
            points = [dict(p) for p in docs[0]["ops"][0]["points"]]
            for doc in docs[1:]:
                for pooled, p in zip(points, doc["ops"][0]["points"]):
                    for key in POOLED:
                        pooled[key] += p[key]
            record["points"] = points
        workloads[name] = record
        print(f"reference: {name} recorded", file=sys.stderr)

    reference["workloads"] = workloads
    with open(path, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
