"""Tests of the benchmark itself: the checkers and a smoke-size run.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

DEFINITION = run.benchmark_definition()


def _reference_rows(n=40):
    ref = workloads.load_reference("scan-equal.json")
    rows = [
        {"a": a, "x": x, "g": 0.0, "family": f, "omega2": 1.0, "fixed_point": False, "max_residual": 1e-14}
        for a, x, f in zip(ref["a"][:n], ref["x"][:n], ref["family"][:n])
    ]
    sub = {k: ref[k][:n] for k in ("a", "x", "family")}
    return rows, sub


def test_scan_check_accepts_reference_and_tiny_moves():
    rows, ref = _reference_rows()
    assert checks.check_scan(rows, 1e-10, ref) == (len(rows), 0, {"resid_ge_1e-10": 0, "missing": 0})
    for r in rows:
        r["x"] += 1e-11
        r["a"] -= 1e-12
    assert checks.check_scan(rows, 1e-10, ref)[1] == 0


def test_scan_check_flags_dropped_hit():
    rows, ref = _reference_rows()
    del rows[7]
    attempted, failed, extra = checks.check_scan(rows, 1e-10, ref)
    assert (attempted, failed, extra["missing"]) == (len(rows) + 1, 1, 1)


def test_scan_check_flags_perturbed_residual():
    rows, ref = _reference_rows()
    rows[3]["max_residual"] = 1.5e-10
    attempted, failed, extra = checks.check_scan(rows, 1e-10, ref)
    assert failed == 1 and extra["resid_ge_1e-10"] == 1
    # the unequal-mass bound is the library's 1e-8: counted, not failed
    assert checks.check_scan(rows, 1e-8, ref)[1] == 0


def test_scan_check_flags_moved_hit_and_wrong_family():
    rows, ref = _reference_rows()
    rows[0]["x"] += 1e-6
    rows[1]["family"] = "scalene" if rows[1]["family"] != "scalene" else "isosceles-pole-middle"
    attempted, failed, extra = checks.check_scan(rows, 1e-10, ref)
    # each bad hit fails, and so does the reference hit it no longer matches
    assert (failed, extra["missing"]) == (4, 2)


def test_scan_check_flags_duplicate_hit():
    rows, ref = _reference_rows()
    rows.append(dict(rows[5]))
    assert checks.check_scan(rows, 1e-10, ref)[1] == 1


def test_verify_check_flags_flipped_verdict():
    ref = workloads.load_reference("verify-pool.json")["reports"]
    labels = ["tri-k2-r1", "iso-0.6", "mirror-iso-1.35"]
    reports = [{"label": lab, "completed": ref[lab]["completed"], "passed": ref[lab]["passed"]} for lab in labels]
    assert checks.check_verify(reports, labels, ref)[:2] == (3, 0)
    reports[2]["passed"] = not reports[2]["passed"]
    assert checks.check_verify(reports, labels, ref)[:2] == (3, 1)
    reports[0]["completed"] = False
    assert checks.check_verify(reports, labels, ref)[:2] == (3, 2)
    assert checks.check_verify(reports[1:], labels, ref)[:2] == (3, 2)


def test_drift_check_rules():
    ref = np.array([1e-12, 1e-3, 5e-7, 2e-6, math.nan, 1e-9])
    assert checks.check_drift(ref, ref)[:2] == (6, 0)
    out = ref.copy()
    out[2], out[3] = 2e-6, 5e-7  # flips inside [1e-7, 1e-5]: counted only
    out[4] = 1.0  # finite where the reference blew up
    attempted, failed, extra = checks.check_drift(out, ref)
    assert failed == 0 and extra["near_bound"] == 2
    out[0] = 2e-6  # flip of a row far below the bound
    out[1] = 1e-8  # flip of a row far above it
    out[5] = math.nan  # lost a finite row
    assert checks.check_drift(out, ref)[1] == 3


def test_drift_reference_reproduces_criterion_6_count():
    ref = workloads.load_reference("scan-equal.json")
    drift = np.array([math.nan if d is None else d for d in ref["drift"]])
    assert len(drift) == 3396
    with np.errstate(invalid="ignore"):
        assert int(np.count_nonzero(drift < 1e-6)) == 2781


def test_every_unequal_mass_seed_has_a_reference_scan():
    pool = workloads.load_reference("scan-unequal.json.gz")["pool"]
    assert [r["masses"] for r in pool] == [workloads.unequal_pool_masses(k) for k in range(workloads.UNEQUAL_POOL)]
    assert all(len(r["a"]) > 3000 and set(r["family"]) == {"scalene"} for r in pool)
    assert {tuple(workloads.unequal_masses(seed)) for seed in range(200)} == {tuple(r["masses"]) for r in pool}


def test_verify_pool_keeps_rounding_sensitive_candidates_out():
    ref = workloads.load_reference("verify-pool.json")["reports"]
    for group in workloads.pool_labels():
        assert any(checks.robust_verdict(ref[lab]) for lab in group)
    assert not checks.robust_verdict({"sigma_drift": 5e-6, "energy_drift": 0.0, "momentum_drift": 0.0})


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.01, trace=trace, size=workloads.SMOKE)
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        side = json.loads((run.ROOT / result["info"]["trace_file"]).read_text())
        assert {"cli.main", "euler.ere_scan", "verify.verify_re", "verify.batch_meridian_drift"} & {
            s["name"] for s in side["spans"]
        }
        assert side["env"]["threads"]["SPHERE_RE_THREADS"] is None


def test_host_clock_shares_doses_between_blocks():
    import hostclock

    clock = hostclock.HostClock()
    result, scale = clock.measure(lambda: "first")
    assert result == "first" and scale > 0
    clock.measure(lambda: None)
    # three doses for two blocks: the one between them serves both
    assert len(clock.loops) == 3 * hostclock.LOOPS_PER_DOSE


def test_library_is_restored_after_tracing():
    lib = run.Library()
    originals = (lib.euler.g_cyclic, lib.verify.verify_re, lib.potential.Potential.u_prime)
    from tracing import Tracer

    tr = Tracer("t")
    tr.install(lib)
    assert lib.euler.g_cyclic is not originals[0]
    tr.restore()
    assert (lib.euler.g_cyclic, lib.verify.verify_re, lib.potential.Potential.u_prime) == originals


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-equal", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
