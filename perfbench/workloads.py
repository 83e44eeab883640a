"""The four workloads: inputs from a seed, one timed pass, and its check.

Each workload is a set-up step (build the inputs from the seed; not
timed as part of a pass), a pass (the timed call into the library), and
a check of the pass output.  The library only ever receives the
generated inputs.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# fixed ROADMAP inputs: never shrink these to flatter a number
GRID = 720
T = 10.0
DT = 1e-3
DRIFT_ROWS = 256

ONES = (1.0, 1.0, 1.0)
SCAN_RESID_EQUAL = 1e-10
SCAN_RESID_UNEQUAL = 1e-8  # the library's is_ere bound
UNEQUAL_POOL = 8  # scan-unequal mass triples with a stored reference; the seed picks one

# verify-mixed candidate pool; the seed picks one of each kind per file
TRIANGULAR = [(k, i) for k in (2, 3, 4, 5, 7, 8) for i in range(3) if (k, i) != (8, 2)]  # sigma12 = k pi/12, root i
ISOSCELES = (0.35, 0.6, 0.85, 1.1, 1.35, 1.75, 1.95, 2.2, 2.45, 2.7)  # spread theta: shape (theta, -theta)
SCALENE = (1.6, 1.65, 1.7, 1.75, 1.8)  # spread a on the equal-mass scalene branch


@dataclass(frozen=True)
class Size:
    grid: int
    T: float
    drift_rows: int
    use_reference: bool


FULL = Size(GRID, T, DRIFT_ROWS, True)
# small enough for a test run; outputs get the intrinsic checks only
SMOKE = Size(48, 0.02, 16, False)


@functools.cache
def load_reference(name: str) -> dict:
    """A stored reference, read once per process: it belongs to the checks,
    so it stays out of the timed set-up.  Callers must not change it."""
    opener = gzip.open if name.endswith(".gz") else open
    with opener(REFERENCE_DIR / name, "rt") as fh:
        data = json.load(fh)
    for scan in data.get("pool", [data]):
        if "families" in scan:  # scan references store families as indices
            scan["family"] = [scan["families"][i] for i in scan["family"]]
    return data


def fmt_masses(masses) -> str:
    return ",".join(f"{float(m):.17g}" for m in masses)


def unequal_pool_masses(k: int) -> list[float]:
    """Member k of the scan-unequal pool: three distinct masses
    (1, 2, 3) + U(-0.2, 0.2), in that order.

    The order is kept because permuting the masses moves the hit count
    by up to 16% (2801 to 3348 hits), and with it the work of a pass.
    """
    rng = np.random.default_rng([k, 2])
    return [float(v) for v in np.array([1.0, 2.0, 3.0]) + rng.uniform(-0.2, 0.2, 3)]


def unequal_masses(seed: int) -> list[float]:
    """The pool member the seed picks; each has a stored reference scan."""
    return unequal_pool_masses(int(np.random.default_rng([seed, 5]).integers(UNEQUAL_POOL)))


def unit_masses(seed: int) -> list[float]:
    """The ROADMAP's headline scan input; the seed does not change it.

    A common mass scale would keep the zero set but not the code path:
    the equal-mass isosceles shortcut of `solve_ere` only holds at unit
    masses, and at m = 1.83 every isosceles hit takes the generic path
    (2.7x slower).
    """
    return list(ONES)


class ScanWorkload:
    """`sphere-re ere-scan` through `cli.main` at grid 720^2."""

    def __init__(self, name: str, masses_for_seed, resid_bound: float, reference_file: str):
        self.name = name
        self.masses_for_seed = masses_for_seed
        self.resid_bound = resid_bound
        self.reference_file = reference_file
        self.op_name = "hits_per_s"
        self.layer_keys = ("euler.ere_scan.resid_ge_1e-10",)

    def setup(self, lib, seed: int, size: Size, workdir: Path) -> dict:
        masses = self.masses_for_seed(seed)
        ref = None
        if size.use_reference:
            data = load_reference(self.reference_file)
            ref = next((r for r in data.get("pool", [data]) if r["masses"] == masses), None)
            if ref is None:
                raise LookupError(f"no reference scan for masses {masses} in {self.reference_file}")
        argv = ["ere-scan", "--masses", fmt_masses(masses), "--grid", str(size.grid), "--output", str(workdir / "scan.csv")]
        return {"argv": argv, "masses": masses, "reference": ref, "out": workdir / "scan.csv"}

    def run(self, lib, inputs: dict):
        code = lib.cli.main(inputs["argv"])
        if code != 0:
            raise RuntimeError(f"ere-scan exited with {code}")
        return checks.parse_scan_csv(inputs["out"].read_text())

    def check(self, output, inputs: dict) -> tuple[int, int, dict]:
        attempted, failed, extra = checks.check_scan(output, self.resid_bound, inputs["reference"])
        return attempted, failed, {"euler.ere_scan.resid_ge_1e-10": extra["resid_ge_1e-10"]}

    def ops(self, output, inputs: dict) -> int:
        return len(output)


def _candidate_item(label: str, theta, phi, omega2: float, meridian: bool, masses, potential: str) -> dict:
    return {
        "label": label,
        "theta": [float(v) for v in theta],
        "phi": None if phi is None else [float(v) for v in phi],
        "omega2": float(omega2),
        "meridian": meridian,
        "masses": [float(v) for v in masses],
        "potential": potential,
    }


def build_candidate(lib, label: str) -> dict:
    """One pool candidate, built by the library from its label."""
    kind, _, rest = label.partition("-")
    if kind == "tri":
        k, i = (int(v[1:]) for v in rest.split("-"))
        s12 = k * math.pi / 12.0
        root = lib.lagrange.isosceles_lre_roots(s12)[i]
        cand = lib.verify.candidate_from_lre(lib.lagrange.lre_reconstruct(lib.geometry.Shape3(s12, root, root), ONES))
        return _candidate_item(label, cand.theta, cand.phi, cand.omega2, False, cand.masses, cand.potential_name)
    mirror = kind == "mirror"
    if mirror:
        kind, _, rest = rest.partition("-")
    v = float(rest)
    if kind == "iso":
        shape = lib.geometry.MeridianShape3(v, -v)
    elif kind == "scalene":
        shape = lib.euler.scalene_shape(v)
    else:
        raise ValueError(f"unknown candidate label {label!r}")
    sol = lib.euler.solve_ere(shape, ONES)
    if mirror:
        sol = lib.euler.repulsive_mirror(sol)
    return _candidate_item(label, sol.thetas, None, sol.omega2, True, sol.masses, sol.potential_name)


def pool_labels() -> tuple[list[str], list[str], list[str]]:
    tri = [f"tri-k{k}-r{i}" for k, i in TRIANGULAR]
    mer = [f"iso-{v}" for v in ISOSCELES] + [f"scalene-{v}" for v in SCALENE]
    return tri, mer, [f"mirror-{m}" for m in mer]


class VerifyWorkload:
    """`sphere-re verify` through `cli.main` on a seed-built candidate file.

    Each file holds one triangular candidate (full-system RK4), one
    meridian candidate and one negated-cotangent mirror (reduced RK4).
    Pool members whose reference drifts sit within 10x of a bound are
    left out, because their verdicts depend on rounding.
    """

    name = "verify-mixed"
    op_name = "candidates_per_s"
    layer_keys = ()

    def setup(self, lib, seed: int, size: Size, workdir: Path) -> dict:
        ref = load_reference("verify-pool.json")["reports"]
        rng = np.random.default_rng([seed, 3])
        labels = [str(rng.choice([lab for lab in group if checks.robust_verdict(ref[lab])])) for group in pool_labels()]
        items = [build_candidate(lib, lab) for lab in labels]
        path = workdir / "candidates.json"
        path.write_text(json.dumps(items))
        argv = [
            "verify", "--input", str(path), "--T", repr(size.T), "--dt", repr(DT),
            "--output", str(workdir / "reports.json"),
        ]
        return {"argv": argv, "labels": labels, "reference": ref if size.use_reference else None,
                "out": workdir / "reports.json"}

    def run(self, lib, inputs: dict):
        code = lib.cli.main(inputs["argv"])
        if code != 0:
            raise RuntimeError(f"verify exited with {code}")
        return json.loads(inputs["out"].read_text())["reports"]

    def check(self, output, inputs: dict) -> tuple[int, int, dict]:
        ref = inputs["reference"]
        if ref is None:
            got = {r["label"] for r in output}
            return len(inputs["labels"]), sum(1 for lab in inputs["labels"] if lab not in got), {}
        attempted, failed, _ = checks.check_verify(output, inputs["labels"], ref)
        return attempted, failed, {}

    def ops(self, output, inputs: dict) -> int:
        return len(output)


class DriftWorkload:
    """`verify.batch_meridian_drift` on seed-chosen rows of the equal-mass scan."""

    name = "drift-sweep"
    op_name = "candidate_steps_per_s"
    setup_repeats = 1  # each set-up runs the 720^2 scan
    layer_keys = (
        "verify.drift_pass_count",
        "verify.drift_near_bound",
        "verify.batch_meridian_drift.step_us",
        "verify.batch_meridian_drift.row_steps",
    )

    def setup(self, lib, seed: int, size: Size, workdir: Path) -> dict:
        hits = lib.euler.ere_scan(np.array(ONES), na=size.grid, nx=size.grid)
        rng = np.random.default_rng([seed, 4])
        rows = np.sort(rng.choice(len(hits), size=min(size.drift_rows, len(hits)), replace=False))
        chosen = [hits[i] for i in rows]
        ref_drift, unmatched = None, 0
        if size.use_reference:
            ref = load_reference("scan-equal.json")
            match, _ = checks.match_hits(
                [h.a for h in chosen], [h.x for h in chosen], [h.solution.family for h in chosen],
                ref["a"], ref["x"], ref["family"],
            )
            drift = np.array([math.nan if d is None else d for d in ref["drift"]], dtype=float)
            # a row the scan no longer reproduces has no reference: it fails
            unmatched = int(np.count_nonzero(match < 0))
            chosen = [h for h, j in zip(chosen, match) if j >= 0]
            ref_drift = drift[match[match >= 0]]
        return {
            "thetas": np.stack([h.solution.thetas for h in chosen]),
            "omega2s": np.array([h.solution.omega2 for h in chosen]),
            "n_steps": int(round(size.T / DT)),
            "T": size.T,
            "ref_drift": ref_drift,
            "unmatched": unmatched,
        }

    def run(self, lib, inputs: dict):
        return lib.verify.batch_meridian_drift(inputs["thetas"], inputs["omega2s"], np.array(ONES), T=inputs["T"], dt=DT)

    def check(self, output, inputs: dict) -> tuple[int, int, dict]:
        ref = inputs["ref_drift"]
        if ref is None:
            ref = np.full(len(inputs["omega2s"]), math.nan)  # smoke size: no reference drifts
        attempted, failed, extra = checks.check_drift(output, ref)
        return attempted + inputs["unmatched"], failed + inputs["unmatched"], {
            "verify.drift_pass_count": extra["pass_count"],
            "verify.drift_near_bound": extra["near_bound"],
        }

    def ops(self, output, inputs: dict) -> int:
        return len(inputs["omega2s"]) * inputs["n_steps"]

    def traced_metrics(self, layers: dict, inputs: dict) -> dict:
        """Per-layer values derived from the tracer's values of one pass."""
        return {
            "verify.batch_meridian_drift.step_us": layers["verify.batch_meridian_drift.s"] / inputs["n_steps"] * 1e6,
            "verify.batch_meridian_drift.row_steps": len(inputs["omega2s"]) * inputs["n_steps"],
        }


WORKLOADS = {
    "scan-equal": ScanWorkload("scan-equal", unit_masses, SCAN_RESID_EQUAL, "scan-equal.json"),
    "scan-unequal": ScanWorkload("scan-unequal", unequal_masses, SCAN_RESID_UNEQUAL, "scan-unequal.json.gz"),
    "verify-mixed": VerifyWorkload(),
    "drift-sweep": DriftWorkload(),
}
# per-layer values that only some workloads produce; the others report 0
LAYER_KEYS = tuple(sorted({k for w in WORKLOADS.values() for k in w.layer_keys}))
