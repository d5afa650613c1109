"""Tests of the benchmark itself.

    python3 -m unittest perfbench.test_perfbench            # all, incl. smoke runs
    python3 -m unittest perfbench.test_perfbench.Checks     # output checks only

Run from the repository root. The smoke runs build the runner and run
every workload at its small size, untraced and traced.
"""

import copy
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "reference.json")) as f:
    REFERENCE = json.load(f)

END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
METRIC_LINE = re.compile(r"^  (\S+) = (\S+) (\S+)$")


def link_op(points):
    return {"wall_s": 1.0, "work": sum(p["frames"] for p in points), "points": points}


def des_op(**changes):
    op = {"wall_s": 1.0, "work": 1300, "events": 1300, "data_slots": 1000, "probe_slots": 200,
          "delivered": 800, "delivered_sum": 800, "attempts_sum": 1000, "transitions": 40,
          "readmissions": 3, "event_log_hash": 12345, "cache_hit": True}
    op.update(changes)
    return op


def soak_op(failed=()):
    names = ["transition_legality", "no_starvation", "frame_conservation",
             "bounded_recovery", "graceful_degradation"]
    return {"wall_s": 1.0, "work": 960, "rounds": 120, "trials": 4,
            "invariants": [{"name": n, "passed": n not in failed,
                            "detail": "fabricated" if n in failed else ""} for n in names],
            "delivered_per_tag": [100] * 8, "reference_per_tag": [100] * 8,
            "transitions": 10, "readmissions": 2}


def document(workload, ops, trace=False):
    doc = {"workload": workload, "seed": 5, "trace": trace, "jobs": 4, "ops": ops,
           "peak_rss_mb": 12.5, "setup_s": [0.1, 0.2, 0.3]}
    if trace:
        doc["layers"] = {name: 1.0 for name in PER_LAYER}
        doc["trace_checks"] = {"compared": 10, "mismatches": 0}
    return doc


class Checks(unittest.TestCase):
    def reference_points(self):
        return copy.deepcopy(REFERENCE["workloads"]["link_waterfall"]["points"])

    def test_reference_points_pass(self):
        result, errors, _ = checks.evaluate(
            document("link_waterfall", [link_op(self.reference_points())]), REFERENCE, BENCH)
        self.assertEqual(errors, [])
        self.assertTrue(result["correct"])

    def test_per_outside_tolerance_fails(self):
        points = self.reference_points()
        points[0]["delivered"] = 0  # every frame lost at the nearest point
        result, errors, _ = checks.evaluate(document("link_waterfall", [link_op(points)]),
                                            REFERENCE, BENCH)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any("PER" in e and "Wilson" in e for e in errors), errors)

    def test_per_falling_with_distance_fails(self):
        points = self.reference_points()
        last = points[-1]
        last["delivered"] = last["frames"]  # the farthest point suddenly clean
        last["bit_errors"] = 0
        errors = checks.check_link_points(points, points, REFERENCE["tolerance"]["wilson_z"])
        self.assertTrue(any("PER falls" in e for e in errors), errors)

    def test_delivered_above_data_slots_fails(self):
        bad = des_op(delivered=1001, delivered_sum=1001)
        result, errors, _ = checks.evaluate(document("des_metro", [bad]), REFERENCE, BENCH)
        self.assertFalse(result["correct"])
        self.assertTrue(any("delivered 1001 > data_slots 1000" in e for e in errors), errors)

    def test_delivered_sum_mismatch_fails(self):
        self.assertTrue(checks.check_des_op(des_op(delivered_sum=799)))

    def test_event_log_hash_must_repeat(self):
        result, errors, _ = checks.evaluate(
            document("des_metro", [des_op(), des_op(event_log_hash=54321)]),
            REFERENCE, BENCH)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertTrue(any("differs from operation 0" in e for e in errors), errors)

    def test_one_tripped_invariant_fails(self):
        result, errors, _ = checks.evaluate(
            document("soak_chaos", [soak_op(), soak_op(failed=("bounded_recovery",))]),
            REFERENCE, BENCH)
        self.assertFalse(result["correct"])
        self.assertTrue(any("bounded_recovery failed" in e for e in errors), errors)

    def test_calibration_outside_tolerance_fails(self):
        reference = REFERENCE["workloads"]["des_metro"]["calibration"]
        bad = copy.deepcopy(reference)
        curve = bad["curves"][0]
        curve["per"] = [1.0 - p for p in curve["per"]]
        self.assertEqual(checks.check_calibration(reference, reference, 4.5), [])
        self.assertTrue(checks.check_calibration(bad, reference, 4.5))

    def test_trace_mismatch_and_coverage_fail(self):
        doc = document("link_waterfall", [link_op(self.reference_points())], trace=True)
        doc["trace_checks"]["mismatches"] = 1
        doc["layers"]["link.stage_coverage"] = 0.5
        result, errors, _ = checks.evaluate(doc, REFERENCE, BENCH)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(len(errors), 2)


class MetricNames(unittest.TestCase):
    def test_untraced_reports_every_end_to_end_metric(self):
        result, _, _ = checks.evaluate(document("soak_chaos", [soak_op()]), REFERENCE, BENCH)
        self.assertEqual(list(result["metrics"]), END_TO_END)
        self.assertEqual(result["metrics"]["setup_s"]["value"], 0.2)

    def test_traced_reports_every_per_layer_metric(self):
        result, _, _ = checks.evaluate(document("soak_chaos", [soak_op()], trace=True),
                                       REFERENCE, BENCH)
        self.assertEqual(list(result["metrics"]), PER_LAYER)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class Smoke(unittest.TestCase):
    """Every workload at its small size, untraced and traced."""

    def run_benchmark(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--small"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=600)
        lines = proc.stdout.strip().splitlines()
        self.assertEqual(proc.returncode, 0, proc.stdout)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        expected = PER_LAYER if trace else END_TO_END
        self.assertEqual(list(result["metrics"]), expected)
        printed = [m.group(1) for m in map(METRIC_LINE.match, lines[:-1]) if m]
        self.assertEqual(printed, expected)
        units = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float))

    def test_small_runs(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.run_benchmark(workload, trace)


if __name__ == "__main__":
    unittest.main()
