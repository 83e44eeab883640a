"""Command-line front end.

Subcommands mirror the library: shape scans and point solves for both
RE classes, shape-matrix eigenpairs, dynamical verification of a
candidate file, the flat-limit momentum check, and the scalene search.
Output is CSV or JSON with 17 significant digits so values round-trip;
identical invocations produce byte-identical output.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import euler, lagrange, verify as verify_mod
from .dynamics import euclidean_limit_check
from .errors import SphereReError
from .geometry import MeridianShape3, Shape3
from .inertia import principal_axes, shape_matrix
from .potential import BUILT_INS, potential_by_name

SCHEMA_VERSION = 1

# machine-readable description of every output this tool produces;
# dump it with `sphere-re schema`
OUTPUT_SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "angles": "radians",
    "float_format": "17 significant digits (round-trip exact)",
    "csv": {
        "ere-scan": ["a", "x", "g", "family", "omega2", "fixed_point", "max_residual"],
        "lre-scan": ["sigma12", "sigma", "omega2", "lambda", "equilateral"],
    },
    "json": {
        "ere-solve": [
            "schema_version", "a", "x", "theta", "s", "omega2", "fixed_point",
            "omega_undetermined", "family", "det", "discriminant_A", "residuals",
            "is_ere", "verification?",
        ],
        "lre-solve": [
            "schema_version", "sigma_input", "sigma", "input_condition_residual",
            "psi_L", "lambda", "cos_theta", "phi_diffs", "omega2", "residuals",
            "orientation", "verification?",
        ],
        "axis": ["schema_version", "shape_matrix", "eigenpairs"],
        "verify": ["schema_version", "reports"],
        "euclid-limit": ["schema_version", "rows", "observed_orders"],
        "scalene-lre-search": [
            "schema_version", "grid_points", "margin", "min_residual_off_loci",
            "argmin", "polished_minima_on_loci", "conclusive", "note",
        ],
    },
    "verification_report": [
        "T", "dt", "sigma_drift", "theta_drift", "phi_rate_drift", "energy_drift",
        "momentum_drift", "completed", "blew_up_at", "passed",
    ],
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_dump(obj) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return [float(v) for v in o]
        if isinstance(o, (np.floating, np.integer)):
            return float(o)
        raise TypeError(f"not serializable: {type(o)}")

    return json.dumps(obj, indent=2, default=default) + "\n"


def _masses(text: str) -> np.ndarray:
    return _three_masses([float(v) for v in text.split(",")])


def _three_masses(values) -> np.ndarray:
    masses = np.array(values, dtype=float)
    if masses.shape != (3,):
        raise ValueError("exactly three masses required")
    if np.any(masses <= 0.0):
        raise ValueError("masses must be positive")
    return masses


def cmd_ere_scan(args) -> int:
    masses = _masses(args.masses)
    pot = potential_by_name(args.potential)
    hits = euler.ere_scan(masses, na=args.grid, nx=args.grid, pot=pot)
    lines = ["a,x,g,family,omega2,fixed_point,max_residual"]
    for h in hits:
        sol = h.solution
        lines.append(
            ",".join(
                [
                    _fmt(h.a),
                    _fmt(h.x),
                    _fmt(h.g),
                    sol.family,
                    _fmt(sol.omega2),
                    str(sol.fixed_point).lower(),
                    _fmt(sol.max_residual),
                ]
            )
        )
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ere_solve(args) -> int:
    masses = _masses(args.masses)
    pot = potential_by_name(args.potential)
    a, x = (float(v) for v in args.shape.split(","))
    shape = MeridianShape3(a, x)
    sol = euler.solve_ere(shape, masses, pot)
    out = {
        "schema_version": SCHEMA_VERSION,
        "a": sol.shape.a,
        "x": sol.shape.x,
        "theta": sol.thetas,
        "s": sol.s,
        "omega2": sol.omega2,
        "fixed_point": sol.fixed_point,
        "omega_undetermined": sol.omega_undetermined,
        "family": sol.family,
        "det": sol.det,
        "discriminant_A": sol.diagnostics.A,
        "residuals": sol.residuals,
        "is_ere": sol.is_ere,
    }
    if args.verify:
        rep = verify_mod.verify_re(verify_mod.candidate_from_ere(sol), T=args.T, dt=args.dt)
        out["verification"] = _report_dict(rep)
    _write(args.output, _json_dump(out))
    return EXIT_OK if sol.is_ere else EXIT_NUMERICAL


def cmd_lre_scan(args) -> int:
    grid = np.linspace(0.02, math.pi - 0.02, args.sigma12_grid)
    points = lagrange.isosceles_lre_scan(grid)
    lines = ["sigma12,sigma,omega2,lambda,equilateral"]
    for p in points:
        lines.append(
            ",".join([_fmt(p.sigma12), _fmt(p.sigma), _fmt(p.omega2), _fmt(p.lam), str(p.equilateral).lower()])
        )
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_lre_solve(args) -> int:
    masses = _masses(args.masses)
    pot = potential_by_name(args.potential)
    s12, s23, s31 = (float(v) for v in args.shape.split(","))
    shape = Shape3(s12, s23, s31).require_realizable()
    input_residual = lagrange.lre_condition_residual(shape, masses, pot)
    # shapes quoted to a few decimals are polished onto the condition
    # manifold first; anything farther off is not an LRE shape
    if float(np.max(np.abs(input_residual))) > 1e-8:
        shape = lagrange.polish_lre_shape(shape, masses, pot)
    cand = lagrange.lre_reconstruct(shape, masses, pot)
    out = {
        "schema_version": SCHEMA_VERSION,
        "sigma_input": [s12, s23, s31],
        "sigma": shape.as_array(),
        "input_condition_residual": input_residual,
        "psi_L": cand.psi,
        "lambda": cand.lam,
        "cos_theta": cand.cos_thetas,
        "phi_diffs": cand.phi_diffs,
        "omega2": cand.omega2,
        "residuals": lagrange.lre_condition_residual(shape, masses, pot),
        "orientation": {"north": cand.north, "negative_dphi": cand.negative_dphi},
    }
    if args.verify:
        rep = verify_mod.verify_re(verify_mod.candidate_from_lre(cand), T=args.T, dt=args.dt)
        out["verification"] = _report_dict(rep)
    _write(args.output, _json_dump(out))
    return EXIT_OK


def cmd_axis(args) -> int:
    masses = _masses(args.masses)
    s12, s23, s31 = (float(v) for v in args.shape.split(","))
    shape = Shape3(s12, s23, s31)
    J = shape_matrix(shape, masses)
    axes = principal_axes(J)
    out = {
        "schema_version": SCHEMA_VERSION,
        "shape_matrix": [list(map(float, row)) for row in J],
        "eigenpairs": [
            {"eigenvalue": a.eigenvalue, "vector": a.vector, "degenerate": a.degenerate} for a in axes
        ],
    }
    _write(args.output, _json_dump(out))
    return EXIT_OK


def _report_dict(rep) -> dict:
    return {
        "T": rep.T,
        "dt": rep.dt,
        "sigma_drift": rep.sigma_drift,
        "theta_drift": rep.theta_drift,
        "phi_rate_drift": rep.phi_rate_drift,
        "energy_drift": rep.energy_drift,
        "momentum_drift": rep.momentum_drift,
        "completed": rep.completed,
        "blew_up_at": rep.blew_up_at,
        "passed": rep.passed,
    }


def _candidate(item) -> verify_mod.ReCandidate:
    """One entry of a `verify` input file, checked before it is integrated."""
    if not isinstance(item, dict) or item.get("theta") is None or "omega2" not in item:
        raise ValueError("each candidate needs 'theta' and 'omega2'")
    angles = {key: np.array(item[key], dtype=float) for key in ("theta", "phi") if item.get(key) is not None}
    if any(a.shape != (3,) for a in angles.values()):
        raise ValueError("candidate angles must come in threes")
    meridian = item.get("meridian", "phi" not in angles)
    if not isinstance(meridian, bool):
        raise ValueError("'meridian' must be true or false")
    if not meridian and "phi" not in angles:
        raise ValueError("a candidate off the meridian needs 'phi'")
    potential = item.get("potential", "cotangent")
    if not isinstance(potential, str):
        raise ValueError("'potential' must be the name of a potential")
    label = item.get("label", "")
    if not isinstance(label, str):
        raise ValueError("'label' must be a string")
    return verify_mod.ReCandidate(
        theta=angles["theta"],
        phi=angles.get("phi"),
        omega2=float(item["omega2"]),
        meridian=meridian,
        masses=_three_masses(item.get("masses", [1.0, 1.0, 1.0])),
        potential=potential_by_name(potential),
        label=label,
    )


def cmd_verify(args) -> int:
    with open(args.input) as fh:
        items = json.load(fh)
    if not isinstance(items, list):
        raise ValueError("the input must be a JSON array of candidates")
    try:
        cands = [_candidate(item) for item in items]
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed candidate: {exc}") from None
    reports = []
    for cand, rep in zip(cands, verify_mod.verify_many(cands, T=args.T, dt=args.dt)):
        d = _report_dict(rep)
        d["label"] = cand.label
        reports.append(d)
    _write(args.output, _json_dump({"schema_version": SCHEMA_VERSION, "reports": reports}))
    return EXIT_OK


def cmd_euclid_limit(args) -> int:
    masses = _masses(args.masses)
    if not all(math.isfinite(eps) and eps > 0.0 for eps in args.eps):
        raise ValueError(f"--eps values must be finite and positive, got {args.eps}")
    if len(set(args.eps)) < len(args.eps):
        raise ValueError(f"--eps values must be distinct, got {args.eps}")
    rng = np.random.default_rng(args.seed)
    r = rng.uniform(0.3, 1.5, 3)
    phi = rng.uniform(0.0, 2.0 * math.pi, 3)
    rd = rng.normal(0.0, 0.3, 3)
    phid = rng.normal(0.0, 0.3, 3)
    rows = []
    for eps in args.eps:
        rep = euclidean_limit_check(r, phi, rd, phid, masses, eps)
        rows.append({"eps": rep.eps, "deviation": rep.deviation})
    orders = [
        math.log(rows[k]["deviation"] / rows[k + 1]["deviation"]) / math.log(rows[k]["eps"] / rows[k + 1]["eps"])
        for k in range(len(rows) - 1)
        if rows[k + 1]["deviation"] > 0.0
    ]
    _write(args.output, _json_dump({"schema_version": SCHEMA_VERSION, "rows": rows, "observed_orders": orders}))
    return EXIT_OK


def cmd_schema(args) -> int:
    _write(args.output, _json_dump(OUTPUT_SCHEMA))
    return EXIT_OK


def cmd_scalene_lre_search(args) -> int:
    rep = lagrange.scalene_lre_search(n=args.resolution, margin=args.margin)
    out = {
        "schema_version": SCHEMA_VERSION,
        "grid_points": rep.grid_points,
        "margin": rep.margin,
        "min_residual_off_loci": rep.min_residual_off_loci,
        "argmin": list(rep.argmin),
        "polished_minima_on_loci": rep.polished_minima_on_loci,
        "conclusive": rep.conclusive,
        "note": "numerical evidence only; absence of scalene solutions is not proven",
    }
    _write(args.output, _json_dump(out))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sphere-re",
        description="Relative equilibria of the three-body problem on the unit sphere.",
        epilog=(
            "All angles are radians; CSV/JSON values carry 17 significant digits. "
            "Columns: ere-scan -> (a, x, g, family, omega2, fixed_point, max_residual); "
            "lre-scan -> (sigma12, sigma, omega2, lambda, equilateral)."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, masses_default="1,1,1"):
        sp.add_argument("--masses", default=masses_default, help="m1,m2,m3 (positive)")
        sp.add_argument("--potential", default="cotangent", choices=list(BUILT_INS))
        sp.add_argument("--output", "-o", default="-", help="output path or - for stdout")

    sp = sub.add_parser("ere-scan", help="zero set of the collinear shape condition")
    common(sp)
    sp.add_argument("--grid", type=int, default=720, help="grid resolution per axis (>= 2)")
    sp.set_defaults(func=cmd_ere_scan)

    sp = sub.add_parser("ere-solve", help="solve one meridian shape a,x")
    common(sp)
    sp.add_argument("--shape", required=True, help="a,x in radians")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--T", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.set_defaults(func=cmd_ere_solve)

    sp = sub.add_parser("lre-scan", help="equal-mass isosceles LRE curve")
    sp.add_argument("--sigma12-grid", type=int, default=512)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_lre_scan)

    sp = sub.add_parser("lre-solve", help="solve one triangular shape s12,s23,s31")
    common(sp)
    sp.add_argument("--shape", required=True, help="sigma12,sigma23,sigma31 in radians")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--T", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.set_defaults(func=cmd_lre_solve)

    sp = sub.add_parser("axis", help="eigenpairs of the shape matrix")
    common(sp)
    sp.add_argument("--shape", required=True, help="sigma12,sigma23,sigma31 in radians")
    sp.set_defaults(func=cmd_axis)

    sp = sub.add_parser("verify", help="verify candidates from a JSON file")
    sp.add_argument("--input", required=True, help="JSON array of candidates")
    sp.add_argument("--T", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("euclid-limit", help="flat-plane limit of the momentum integrals")
    sp.add_argument("--masses", default="1,1,1")
    sp.add_argument("--eps", type=float, nargs="+", default=[1e-2, 1e-3, 5e-4])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_euclid_limit)

    sp = sub.add_parser("scalene-lre-search", help="search evidence against scalene LRE")
    sp.add_argument("--resolution", type=int, default=60)
    sp.add_argument("--margin", type=float, default=0.05)
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_scalene_lre_search)

    sp = sub.add_parser("schema", help="print the output schema as JSON")
    sp.add_argument("--output", "-o", default="-")
    sp.set_defaults(func=cmd_schema)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "grid", 2) < 2 or getattr(args, "sigma12_grid", 2) < 2:
        print("error: grids need at least 2 points", file=sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "T", 1.0) <= 0.0 or getattr(args, "dt", 1.0) <= 0.0:
        print("error: T and dt must be positive", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SphereReError, OverflowError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
