"""Correctness checks of workload outputs.

Every check returns (attempted, failed, extra counts).  An operation is
a scan hit, a verified candidate, or a drift-sweep row.  Hits are
matched to reference hits by position, so a later change that moves a
root by a few ulps (a vectorized bisection, say) still matches.
"""

from __future__ import annotations

import math

import numpy as np

MATCH_TOL = 1e-9
DRIFT_BOUND = 1e-6
# verdicts of rows whose reference drift lies within this factor of the
# bound depend on rounding (unstable equilibria); they are counted, not failed
NEAR_BOUND_FACTOR = 10.0


def match_hits(a, x, family, ref_a, ref_x, ref_family) -> tuple[np.ndarray, np.ndarray]:
    """Index of the matching reference hit for each hit (-1 if none), and the
    mask of reference hits that nothing matched.

    A match lies in the same grid row (|da| <= MATCH_TOL), within
    MATCH_TOL in x, and has the same family; each reference hit is used
    at most once.
    """
    a, x = np.asarray(a, dtype=float), np.asarray(x, dtype=float)
    ref_a, ref_x = np.asarray(ref_a, dtype=float), np.asarray(ref_x, dtype=float)
    rows = np.unique(ref_a)
    match = np.full(a.size, -1)
    used = np.zeros(ref_a.size, dtype=bool)
    if a.size == 0 or ref_a.size == 0:
        return match, ~used
    ref_row = np.searchsorted(rows, ref_a)
    pos = np.clip(np.searchsorted(rows, a), 1, rows.size - 1) if rows.size > 1 else np.zeros(a.size, dtype=int)
    if rows.size > 1:
        pos = np.where(np.abs(rows[pos - 1] - a) < np.abs(rows[pos] - a), pos - 1, pos)
    row_ok = np.abs(rows[pos] - a) <= MATCH_TOL
    # x lies in (-pi, pi), so row * 10 + x orders hits by row, then x
    ref_key = ref_row * 10.0 + ref_x
    order = np.argsort(ref_key, kind="stable")
    sorted_key = ref_key[order]
    key = pos * 10.0 + x
    j = np.clip(np.searchsorted(sorted_key, key), 1, max(sorted_key.size - 1, 1))
    for i in np.flatnonzero(row_ok):
        for k in (j[i] - 1, j[i]):
            if not 0 <= k < sorted_key.size:
                continue
            r = order[k]
            if not used[r] and ref_row[r] == pos[i] and abs(ref_x[r] - x[i]) <= MATCH_TOL and ref_family[r] == family[i]:
                match[i] = r
                used[r] = True
                break
    return match, ~used


def check_scan(rows: list[dict], resid_bound: float, reference: dict | None) -> tuple[int, int, dict]:
    """Failed hits of one ere-scan CSV (rows parsed with `parse_scan_csv`).

    A hit fails if its residual is not below `resid_bound`, if its rate is
    not finite, or (with a reference) if no reference hit matches it.  A
    reference hit missing from the output also fails.
    """
    resid = np.array([r["max_residual"] for r in rows], dtype=float)
    om2 = np.array([r["omega2"] for r in rows], dtype=float)
    bad = ~(resid < resid_bound) | ~np.isfinite(om2)
    missing = 0
    if reference is not None:
        match, unused = match_hits(
            [r["a"] for r in rows],
            [r["x"] for r in rows],
            [r["family"] for r in rows],
            reference["a"],
            reference["x"],
            reference["family"],
        )
        bad |= match < 0
        missing = int(np.count_nonzero(unused))
    extra = {"resid_ge_1e-10": int(np.count_nonzero(resid >= 1e-10)), "missing": missing}
    return len(rows) + missing, int(np.count_nonzero(bad)) + missing, extra


def parse_scan_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "a,x,g,family,omega2,fixed_point,max_residual":
        raise ValueError("unexpected ere-scan header")
    out = []
    for line in lines[1:]:
        a, x, g, family, om2, fixed, resid = line.split(",")
        out.append(
            {
                "a": float(a),
                "x": float(x),
                "g": float(g),
                "family": family,
                "omega2": float(om2),
                "fixed_point": fixed == "true",
                "max_residual": float(resid),
            }
        )
    return out


def check_verify(reports: list[dict], labels: list[str], reference: dict) -> tuple[int, int, dict]:
    """A candidate fails if its completed or passed verdict differs from the
    reference, or if it has no report."""
    by_label = {r.get("label"): r for r in reports}
    failed = 0
    for label in labels:
        rep, ref = by_label.get(label), reference[label]
        if rep is None or rep["completed"] != ref["completed"] or rep["passed"] != ref["passed"]:
            failed += 1
    return len(labels), failed, {}


def check_drift(drift, ref_drift) -> tuple[int, int, dict]:
    """Failed rows of a drift sweep against reference drifts (NaN = blow-up).

    A row fails if it is non-finite where the reference is finite, or if
    its verdict (drift < 1e-6) flips while the reference drift is more
    than NEAR_BOUND_FACTOR away from the bound.
    """
    drift = np.asarray(drift, dtype=float)
    ref = np.asarray(ref_drift, dtype=float)
    with np.errstate(invalid="ignore"):
        lost = np.isfinite(ref) & ~np.isfinite(drift)
        near = np.isfinite(ref) & (ref >= DRIFT_BOUND / NEAR_BOUND_FACTOR) & (ref <= DRIFT_BOUND * NEAR_BOUND_FACTOR)
        flip = np.isfinite(ref) & ((drift < DRIFT_BOUND) != (ref < DRIFT_BOUND)) & ~near
        passed = drift < DRIFT_BOUND
    bad = lost | flip
    return drift.size, int(np.count_nonzero(bad)), {
        "pass_count": int(np.count_nonzero(passed)),
        "near_bound": int(np.count_nonzero(near)),
    }


def robust_verdict(ref: dict) -> bool:
    """True if every drift of a reference report is more than
    NEAR_BOUND_FACTOR away from its tolerance, so its verdict does not
    hinge on rounding."""
    for key, tol in (("sigma_drift", 1e-6), ("energy_drift", 1e-9), ("momentum_drift", 1e-9)):
        v = ref[key]
        if v is None or not math.isfinite(v):
            continue
        if tol / NEAR_BOUND_FACTOR <= v <= tol * NEAR_BOUND_FACTOR:
            return False
    return True
