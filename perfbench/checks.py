"""Output checks and metric derivation for perfbench_runner documents.

A runner document holds raw measurements (wall times, set-up times, peak
memory, traced per-layer figures) and the simulated statistics of every
timed operation. `evaluate` checks those statistics against the reference
in reference.json and turns the measurements into the metrics named in
BENCHMARK.json.
"""

import math
import statistics

# Workload -> what one unit of `ops_per_s` work is.
WORK_UNIT = {
    "link_waterfall": "sample-accurate frames",
    "des_metro": "DES events",
    "soak_chaos": "supervisor rounds (both arms, all trials)",
}


def wilson(successes, n, z):
    """Wilson score interval of a proportion; successes may be fractional."""
    if n <= 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def overlaps(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def check_link_points(points, reference_points, z):
    """PER and BER of each sweep point within Wilson bounds of the
    reference, and PER not decreasing with distance beyond those bounds.

    Bit errors cluster inside frames (a lost frame costs half its bits), so
    the BER interval counts frames, not bits, as independent samples.
    """
    errors = []
    if len(points) != len(reference_points):
        return [f"link: {len(points)} sweep points, reference has {len(reference_points)}"]
    per_intervals = []
    for point, ref in zip(points, reference_points):
        where = f"link @ {point['distance_m']:g} m"
        if point["distance_m"] != ref["distance_m"]:
            errors.append(f"{where}: reference point is at {ref['distance_m']:g} m")
            continue
        if point["delivered"] > point["frames"] or point["bit_errors"] > point["bits"]:
            errors.append(f"{where}: more delivered frames or bit errors than offered")
            continue
        per = wilson(point["frames"] - point["delivered"], point["frames"], z)
        ref_per = wilson(ref["frames"] - ref["delivered"], ref["frames"], z)
        if not overlaps(per, ref_per):
            errors.append(
                f"{where}: PER {1 - point['delivered'] / point['frames']:.4f} outside "
                f"the reference's Wilson bounds [{ref_per[0]:.4f}, {ref_per[1]:.4f}]")
        ber = wilson(point["bit_errors"] / point["bits"] * point["frames"], point["frames"], z)
        ref_ber = wilson(ref["bit_errors"] / ref["bits"] * ref["frames"], ref["frames"], z)
        if not overlaps(ber, ref_ber):
            errors.append(
                f"{where}: BER {point['bit_errors'] / point['bits']:.3e} outside the "
                f"reference's Wilson bounds [{ref_ber[0]:.3e}, {ref_ber[1]:.3e}]")
        per_intervals.append((point["distance_m"], per))
    for (d0, near), (d1, far) in zip(per_intervals, per_intervals[1:]):
        if far[1] < near[0]:
            errors.append(f"link: PER falls from {d0:g} m to {d1:g} m beyond its Wilson bounds")
    return errors


def check_des_op(op):
    errors = []
    if op["delivered"] > op["data_slots"]:
        errors.append(f"des: delivered {op['delivered']} > data_slots {op['data_slots']}")
    if op["delivered_sum"] != op["delivered"]:
        errors.append(
            f"des: sum of delivered_per_tag {op['delivered_sum']} != delivered {op['delivered']}")
    if op["events"] < op["data_slots"] + op["probe_slots"]:
        errors.append("des: fewer events than data and probe slots")
    if not op["cache_hit"]:
        errors.append("des: the timed run recalibrated instead of loading the warm table")
    return errors


def check_soak_op(op):
    errors = [f"soak: invariant {inv['name']} failed: {inv['detail']}"
              for inv in op["invariants"] if not inv["passed"]]
    if len(op["invariants"]) != 5:
        errors.append(f"soak: {len(op['invariants'])} invariants reported, expected 5")
    return errors


def check_calibration(calibration, reference, z):
    """Each calibrated PER within Wilson bounds of the reference table."""
    errors = []
    if calibration["fingerprint"] != reference["fingerprint"]:
        return [f"calibration: fingerprint {calibration['fingerprint']} != "
                f"reference {reference['fingerprint']}"]
    for curve, ref in zip(calibration["curves"], reference["curves"]):
        for sinr, per, frames, ref_per, ref_frames in zip(
                curve["sinr_db"], curve["per"], curve["frames"], ref["per"], ref["frames"]):
            if not overlaps(wilson(per * frames, frames, z),
                            wilson(ref_per * ref_frames, ref_frames, z)):
                errors.append(f"calibration {curve['scheme']}/{curve['fec']} @ {sinr:g} dB: "
                              f"PER {per:.3f} outside the reference's Wilson bounds")
    return errors


def simulated(op):
    """An operation's simulated statistics: everything but its timing."""
    return {k: v for k, v in op.items() if k not in ("wall_s", "cache_hit")}


def check_op(workload, op, reference):
    z = reference["tolerance"]["wilson_z"]
    if workload == "link_waterfall":
        return check_link_points(op["points"], reference["workloads"][workload]["points"], z)
    if workload == "soak_chaos":
        return check_soak_op(op)
    return check_des_op(op)


def exact_match(doc, reference):
    """Whether every simulated statistic of the reference-seed probe (and,
    on the DES workloads, the calibrated table) repeats the reference
    exactly. None when the run has no probe (traced runs)."""
    if "probe" not in doc:
        return None
    ref = reference["workloads"][doc["workload"]]
    if simulated(doc["probe"]) != ref["probe"]:
        return False
    if "calibration" in doc and doc["calibration"] != ref["calibration"]:
        return False
    return True


def loop_rate(ops):
    """Work per wall second over the timed operations after the first.

    The first operation warms the caches, the allocator and the thread
    pool; it is checked like the others but not timed. The rate is the
    loop's total work over its total wall time rather than a median of
    per-operation rates: on a shared host those rates are bimodal (a CPU is
    contended or it is not), so their median jumps between the two modes
    from one run to the next, while the total moves smoothly.
    """
    timed = ops[1:] if len(ops) > 1 else ops
    return sum(op["work"] for op in timed) / sum(op["wall_s"] for op in timed)


def evaluate(doc, reference, bench):
    """Checks a runner document and derives its metrics.

    Returns (result, errors, exact): `result` is the benchmark's final JSON
    object, `errors` the failed checks in words.
    """
    workload = doc["workload"]
    tolerance = reference["tolerance"]
    errors = []
    attempted = 0
    failed = 0

    ops = doc["ops"]
    first = simulated(ops[0])
    for i, op in enumerate(ops):
        op_errors = check_op(workload, op, reference)
        if i > 0 and simulated(op) != first:
            op_errors.append(f"operation {i} differs from operation 0 on the same inputs")
        attempted += 1
        if op_errors:
            failed += 1
            errors.extend(op_errors)

    if "calibration" in doc:
        attempted += 1
        cal_errors = check_calibration(doc["calibration"],
                                       reference["workloads"][workload]["calibration"],
                                       tolerance["wilson_z"])
        if cal_errors:
            failed += 1
            errors.extend(cal_errors)

    if doc["trace"]:
        layers = doc["layers"]
        trace = doc["trace_checks"]
        attempted += trace["compared"]
        failed += trace["mismatches"]
        if trace["mismatches"]:
            errors.append(f"trace: {trace['mismatches']} of {trace['compared']} composed "
                          "outcomes differ from the entry point's")
        if workload == "link_waterfall":
            # Other workloads trace the link chain on a 32-frame probe only.
            attempted += 1
            lo, hi = tolerance["stage_coverage"]
            if not lo <= layers["link.stage_coverage"] <= hi:
                failed += 1
                errors.append(f"trace: link stage self times cover "
                              f"{layers['link.stage_coverage']:.3f} of the frame time, "
                              f"outside [{lo}, {hi}]")
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in names}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {
            "ops_per_s": loop_rate(ops),
            "setup_s": statistics.median(doc["setup_s"]),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, errors, exact_match(doc, reference)
