"""Command-line front end.

Subcommands mirror the library: shape scans and point solves for both
RE classes, shape-matrix eigenpairs, dynamical verification of a
candidate file, the flat-limit momentum check, and the scalene search.
Output is CSV or JSON with 17 significant digits so values round-trip;
identical invocations produce byte-identical output.  Each `cmd_*`
returns its output and `main` writes it: as CSV for the subcommands
under OUTPUT_SCHEMA["csv"], else as JSON.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import euler, lagrange, verify as verify_mod
from .dynamics import _three_masses, euclidean_limit_check
from .errors import DegenerateShape, SphereReError, UnrealizableShape
from .geometry import MeridianShape3, Shape3
from .inertia import principal_axes, shape_matrix
from .potential import BUILT_INS, potential_by_name

SCHEMA_VERSION = 1

# machine-readable description of every output this tool produces;
# dump it with `sphere-re schema`
OUTPUT_SCHEMA = {
    "schema_version": SCHEMA_VERSION,
    "angles": "radians",
    "float_format": "17 significant digits (round-trip exact); a non-finite value is null",
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
    # the "verification" object of ere-solve and lre-solve
    "verification_report": [
        "T", "dt", "sigma_drift", "theta_drift", "phi_rate_drift", "energy_drift",
        "momentum_drift", "completed", "blew_up_at", "passed",
    ],
}
# each entry of the "reports" of verify: a verification report and its candidate's label
OUTPUT_SCHEMA["verify_report"] = [*OUTPUT_SCHEMA["verification_report"], "label"]

# --shape of each point solve: its angles and the shape they make
SHAPES = {
    "ere-solve": (("a", "x"), MeridianShape3),
    "lre-solve": (("sigma12", "sigma23", "sigma31"), lambda *s: Shape3(*s).require_realizable()),
    "axis": (("sigma12", "sigma23", "sigma31"), Shape3),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt_column(col: np.ndarray) -> list[str]:
    """Each value of a float column with 17 significant digits."""
    return list(map("{:.17g}".format, col.tolist()))


def _csv(command: str, columns: dict) -> str:
    """CSV text of `command`: the header of OUTPUT_SCHEMA and its cells by column."""
    header = OUTPUT_SCHEMA["csv"][command]
    rows = zip(*(columns[name] for name in header))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _json(out: dict) -> str:
    """Strict JSON text of an output, `schema_version` first; NaN and infinities, which JSON lacks, become null."""

    def strict(o):
        if isinstance(o, dict):
            return {key: strict(v) for key, v in o.items()}
        if isinstance(o, (list, tuple, np.ndarray)):
            return [strict(v) for v in o]
        if isinstance(o, (float, np.floating, np.integer)):
            return float(o) if math.isfinite(o) else None
        return o

    return json.dumps(strict({"schema_version": SCHEMA_VERSION, **out}), indent=2, allow_nan=False) + "\n"


def _masses(text: str) -> np.ndarray:
    return _three_masses([float(v) for v in text.split(",")])


def _shape(args):
    """The --shape angles as a shape; a wrong count or an angle outside the domain is invalid configuration."""
    names, make = SHAPES[args.command]
    values = [float(v) for v in args.shape.split(",")]
    if len(values) != len(names):
        raise ValueError(f"--shape takes {len(names)} angles {','.join(names)}, got {len(values)}")
    try:
        return make(*values)
    except (DegenerateShape, UnrealizableShape) as exc:
        raise ValueError(f"--shape {args.shape}: {exc}") from None


def _with_verification(args, out: dict, candidate: verify_mod.ReCandidate) -> dict:
    """A point solve's output, with the verification of `candidate` under --verify."""
    if args.verify:
        out["verification"] = _report_dict(verify_mod.verify_re(candidate, T=args.T, dt=args.dt))
    return out


def cmd_ere_scan(args) -> dict:
    masses = _masses(args.masses)
    pot = potential_by_name(args.potential)
    table = euler.ere_scan_table(masses, na=args.grid, nx=args.grid, pot=pot)
    return {
        "a": _fmt_column(table["a"]),
        "x": _fmt_column(table["x"]),
        "g": _fmt_column(table["g"]),
        "family": table["family"].tolist(),
        "omega2": _fmt_column(table["omega2"]),
        "fixed_point": ["true" if v else "false" for v in table["fixed_point"].tolist()],
        "max_residual": _fmt_column(np.abs(table["residuals"]).max(axis=1)),
    }


def cmd_ere_solve(args) -> dict:
    masses = _masses(args.masses)
    pot = potential_by_name(args.potential)
    sol = euler.solve_ere(_shape(args), masses, pot)
    out = {
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
    return _with_verification(args, out, verify_mod.candidate_from_ere(sol))


def cmd_lre_scan(args) -> dict:
    grid = np.linspace(0.02, math.pi - 0.02, args.sigma12_grid)
    points = lagrange.isosceles_lre_scan(grid)
    sigma12, sigma, omega2, lam = np.array([(p.sigma12, p.sigma, p.omega2, p.lam) for p in points]).reshape(-1, 4).T
    return {
        "sigma12": _fmt_column(sigma12),
        "sigma": _fmt_column(sigma),
        "omega2": _fmt_column(omega2),
        "lambda": _fmt_column(lam),
        "equilateral": ["true" if p.equilateral else "false" for p in points],
    }


def cmd_lre_solve(args) -> dict:
    masses = _masses(args.masses)
    pot = potential_by_name(args.potential)
    shape = sigma_input = _shape(args)
    input_residual = lagrange.lre_condition_residual(shape, masses, pot)
    # shapes quoted to a few decimals are polished onto the condition
    # manifold first; anything farther off is not an LRE shape
    if float(np.max(np.abs(input_residual))) > lagrange.LRE_RESIDUAL_TOL:
        shape = lagrange.polish_lre_shape(shape, masses, pot)
    cand = lagrange.lre_reconstruct(shape, masses, pot)
    out = {
        "sigma_input": sigma_input.as_array(),
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
    return _with_verification(args, out, verify_mod.candidate_from_lre(cand))


def cmd_axis(args) -> dict:
    masses = _masses(args.masses)
    J = shape_matrix(_shape(args), masses)
    return {
        "shape_matrix": [list(map(float, row)) for row in J],
        "eigenpairs": [
            {"eigenvalue": a.eigenvalue, "vector": a.vector, "degenerate": a.degenerate} for a in principal_axes(J)
        ],
    }


def _report_dict(rep) -> dict:
    return {key: getattr(rep, key) for key in OUTPUT_SCHEMA["verification_report"]}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_floats(values, key: str) -> np.ndarray:
    """The list of JSON numbers `key` of a candidate as floats; a boolean, a string or a non-finite value is refused."""
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise TypeError(f"'{key}' must be a list of numbers")
    floats = np.array(values, dtype=float)
    if not np.isfinite(floats).all():
        raise ValueError(f"'{key}' must be finite")
    return floats


def _candidate(item) -> verify_mod.ReCandidate:
    """One entry of a `verify` input file, checked before it is integrated."""
    if not isinstance(item, dict) or item.get("theta") is None or "omega2" not in item:
        raise ValueError("each candidate needs 'theta' and 'omega2'")
    angles = {key: _finite_floats(item[key], key) for key in ("theta", "phi") if item.get(key) is not None}
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
    omega2 = item["omega2"]
    # a meridian family may have omega^2 < 0; off the meridian it is a rate squared
    if type(omega2) not in (int, float) or not math.isfinite(omega2) or not (meridian or omega2 >= 0.0):
        raise ValueError("'omega2' must be a number: finite, and at least 0 off the meridian")
    return verify_mod.ReCandidate(
        theta=angles["theta"],
        phi=angles.get("phi"),
        omega2=float(omega2),
        meridian=meridian,
        masses=_three_masses(_finite_floats(item.get("masses", [1.0, 1.0, 1.0]), "masses")),
        potential=potential_by_name(potential),
        label=label,
    )


def cmd_verify(args) -> dict:
    with open(args.input) as fh:
        items = json.load(fh, parse_constant=_refuse_constant)
    if not isinstance(items, list):
        raise ValueError("the input must be a JSON array of candidates")
    try:
        cands = [_candidate(item) for item in items]
    except (TypeError, OverflowError) as exc:  # a field of the wrong JSON type, or an integer beyond a float
        raise ValueError(f"malformed candidate: {exc}") from None
    reports = zip(cands, verify_mod.verify_many(cands, T=args.T, dt=args.dt))
    return {"reports": [dict(_report_dict(rep), label=cand.label) for cand, rep in reports]}


def cmd_euclid_limit(args) -> dict:
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
    return {"rows": rows, "observed_orders": orders}


def cmd_schema(args) -> dict:
    return OUTPUT_SCHEMA


def cmd_scalene_lre_search(args) -> dict:
    rep = lagrange.scalene_lre_search(n=args.resolution, margin=args.margin)
    note = "numerical evidence only; absence of scalene solutions is not proven"
    return {**dataclasses.asdict(rep), "note": note}


# every option but --shape and --output, defined once; each subcommand
# in COMMANDS lists the ones it takes
OPTIONS = {
    "--masses": dict(default="1,1,1", help="m1,m2,m3 (positive)"),
    "--potential": dict(default="cotangent", choices=list(BUILT_INS)),
    "--grid": dict(type=int, default=720, help="grid resolution per axis (>= 2)"),
    "--sigma12-grid": dict(type=int, default=512),
    "--verify": dict(action="store_true"),
    "--T": dict(type=float, default=10.0),
    "--dt": dict(type=float, default=1e-3),
    "--input": dict(required=True, help="JSON array of candidates"),
    "--eps": dict(type=float, nargs="+", default=[1e-2, 1e-3, 5e-4]),
    "--seed": dict(type=int, default=0),
    "--resolution": dict(type=int, default=60),
    "--margin": dict(type=float, default=0.05),
}

SOLVE_OPTIONS = ["--masses", "--potential", "--verify", "--T", "--dt"]

COMMANDS = {
    "ere-scan": (cmd_ere_scan, "zero set of the collinear shape condition", ["--masses", "--potential", "--grid"]),
    "ere-solve": (cmd_ere_solve, "solve one meridian shape a,x", SOLVE_OPTIONS),
    "lre-scan": (cmd_lre_scan, "equal-mass isosceles LRE curve", ["--sigma12-grid"]),
    "lre-solve": (cmd_lre_solve, "solve one triangular shape s12,s23,s31", SOLVE_OPTIONS),
    "axis": (cmd_axis, "eigenpairs of the shape matrix", ["--masses"]),
    "verify": (cmd_verify, "verify candidates from a JSON file", ["--input", "--T", "--dt"]),
    "euclid-limit": (cmd_euclid_limit, "flat-plane limit of the momentum integrals", ["--masses", "--eps", "--seed"]),
    "scalene-lre-search": (cmd_scalene_lre_search, "search evidence against scalene LRE", ["--resolution", "--margin"]),
    "schema": (cmd_schema, "print the output schema as JSON", []),
}


def build_parser() -> argparse.ArgumentParser:
    columns = "; ".join(f"{name} -> ({', '.join(cols)})" for name, cols in OUTPUT_SCHEMA["csv"].items())
    p = argparse.ArgumentParser(
        prog="sphere-re",
        description="Relative equilibria of the three-body problem on the unit sphere.",
        epilog=f"All angles are radians; CSV/JSON values carry 17 significant digits. Columns: {columns}.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        if name in SHAPES:
            sp.add_argument("--shape", required=True, help=f"{','.join(SHAPES[name][0])} in radians")
        for option in options:
            sp.add_argument(option, **OPTIONS[option])
        sp.add_argument("--output", "-o", default="-", help="output path or - for stdout")
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "grid", 2) < 2 or getattr(args, "sigma12_grid", 2) < 2:
            raise ValueError("grids need at least 2 points")
        if getattr(args, "T", 1.0) <= 0.0 or getattr(args, "dt", 1.0) <= 0.0:
            raise ValueError("T and dt must be positive")
        out = args.func(args)
        text = _csv(args.command, out) if args.command in OUTPUT_SCHEMA["csv"] else _json(out)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as fh:
                fh.write(text)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SphereReError, OverflowError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if out.get("is_ere") is False:  # its report is written all the same
        worst, bound = float(np.max(np.abs(out["residuals"]))), euler.ere_residual_bound(_masses(args.masses))
        message = f"the shape is no ERE: max residual {worst:.3g} is not below {bound:.3g}"
        print(f"numerical failure: {message}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
