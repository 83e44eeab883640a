"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py [scan-equal] [scan-unequal] [verify-pool]

Run it only at a commit whose outputs are known good (the references
were taken at the seed commit); the benchmark then fails any later
output that disagrees with them.  With no argument it rewrites all
three; that takes about four minutes.
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads


def _hits(lib, masses) -> tuple[list, dict]:
    hits = lib.euler.ere_scan(np.asarray(masses, dtype=float), na=workloads.GRID, nx=workloads.GRID)
    families = sorted({h.solution.family for h in hits})
    return hits, {
        "masses": list(masses),
        "families": families,
        "a": [round(h.a, 11) for h in hits],
        "x": [round(h.x, 11) for h in hits],
        "family": [families.index(h.solution.family) for h in hits],
    }


def scan_equal(lib) -> None:
    hits, ref = _hits(lib, workloads.ONES)
    drift = lib.verify.batch_meridian_drift(
        np.stack([h.solution.thetas for h in hits]), np.array([h.solution.omega2 for h in hits]),
        np.array(workloads.ONES), T=workloads.T, dt=workloads.DT,
    )
    ref["drift"] = [None if not np.isfinite(d) else float(f"{d:.3e}") for d in drift]
    (workloads.REFERENCE_DIR / "scan-equal.json").write_text(json.dumps(ref))


def scan_unequal(lib) -> None:
    pool = [_hits(lib, workloads.unequal_pool_masses(k))[1] for k in range(workloads.UNEQUAL_POOL)]
    # mtime=0: the same outputs give the same file
    with open(workloads.REFERENCE_DIR / "scan-unequal.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps({"pool": pool}).encode())


def verify_pool(lib) -> None:
    labels = [lab for group in workloads.pool_labels() for lab in group]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        (path / "c.json").write_text(json.dumps([workloads.build_candidate(lib, lab) for lab in labels]))
        code = lib.cli.main(["verify", "--input", str(path / "c.json"), "--output", str(path / "r.json")])
        if code != 0:
            raise RuntimeError(f"verify exited with {code}")
        reports = json.loads((path / "r.json").read_text())["reports"]
    pool = {
        r["label"]: {
            "completed": r["completed"],
            "passed": r["passed"],
            "sigma_drift": r["sigma_drift"],
            "energy_drift": r["energy_drift"],
            "momentum_drift": max(r["momentum_drift"]),
        }
        for r in reports
    }
    text = json.dumps({"T": workloads.T, "dt": workloads.DT, "reports": pool}, indent=1)
    (workloads.REFERENCE_DIR / "verify-pool.json").write_text(text)


PARTS = {"scan-equal": scan_equal, "scan-unequal": scan_unequal, "verify-pool": verify_pool}


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(PARTS)
    lib = run.Library()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        PARTS[name](lib)
    return 0


if __name__ == "__main__":
    sys.exit(main())
