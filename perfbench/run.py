#!/usr/bin/env python3
"""Repository benchmark: builds the workload runner from source, runs one
workload, checks its outputs, and prints every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Exits 0 when every output check passed, 1 when one failed or the runner
could not be built or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(directory):
    """Configures and builds the runner (optimised), refusing sanitizer or
    unoptimised configurations. Build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src", "mmtag")):
        fail("library sources (src/mmtag) not found next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", directory, "--target", "perfbench_runner", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode:
            fail(f"build step failed: {' '.join(step)}")
    cache = {}
    with open(os.path.join(directory, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep and not key.startswith(("//", "#")):
                cache[key.split(":")[0]] = value
    flags = " ".join(cache.get(k, "") for k in ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE"))
    if cache.get("CMAKE_BUILD_TYPE") not in ("Release", "RelWithDebInfo") or \
            "-fsanitize" in flags or cache.get("MMTAG_SANITIZE"):
        fail(f"refusing to time a sanitizer or unoptimised build ({cache.get('CMAKE_BUILD_TYPE')}, "
             f"{flags.strip()})")
    return os.path.join(directory, "perfbench_runner")


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test inputs: each workload at a fraction of its size")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    directory = build_dir()
    runner = build(directory)
    cache_parent = os.path.join(directory, "cache")
    os.makedirs(cache_parent, exist_ok=True)
    # A fresh, empty phy_table cache per run: nothing is read from bench/out.
    cache_root = tempfile.mkdtemp(prefix="run-", dir=cache_parent)
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache-root", cache_root]
    if args.small:
        command.append("--small")
    if args.trace:
        command += ["--trace-out", os.path.join(directory, f"trace-{args.workload}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUNNER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"runner exited with {proc.returncode}")

    doc = json.loads(proc.stdout)
    result, errors, exact = checks.evaluate(doc, reference, bench)

    build_info = dict(doc["build"], jobs=doc["jobs"], commit=git_commit(),
                      source_digest=source_digest())
    print(f"build: {json.dumps(build_info, sort_keys=True)}")
    print(f"workload {args.workload}: seed {args.seed}, {len(doc['ops'])} timed operations "
          f"({checks.WORK_UNIT[args.workload]} per op), trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"checks: {result['failed']} failed of {result['attempted']} checked operations "
          f"(failed share {result['failed'] / result['attempted']:.4g})")
    print(f"exact match with the reference statistics: "
          f"{'not probed' if exact is None else str(exact).lower()}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
