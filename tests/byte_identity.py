"""Write the CLI outputs that a byte-identical change must reproduce, one file each.

    PYTHONPATH=src python3 tests/byte_identity.py OUTDIR

runs `cli.main` of the `sphere_re` on the path and writes to OUTDIR:
- `golden/<case>`: every case of `tests/test_golden.py`;
- `ere-scan-<name>.csv`: 15 `ere-scan --grid 720` scans, at 1,1,1 under
  both potentials, at 1.83 x 3, 1,2,3, 1,1,1.01, 1.01,1,1 and 4,8,12, and
  at the 8 members of perfbench's scan-unequal pool (`pool0` ... `pool7`);
- `lre-scan-<n>.csv`: `lre-scan --sigma12-grid n` at 64, 512 and 4096;
- `verify-pool-input.json` and `verify-pool.json`: the 47 verify-pool
  candidates, built by the library from `perfbench/workloads.pool_labels()`,
  and their `verify` reports as one file; `verify-alone/<label>.json`, each
  candidate verified alone;
- `exit-codes.txt`: the exit code of every run.

Two trees give the same outputs when `diff -r` of their OUTDIRs is empty:
run this file once with each tree's `src` on PYTHONPATH.  The inputs come
from the `perfbench/` next to this file, which is only read.  pytest does
not collect this file; a run took about 11 s on a 2-core x86-64 host.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import sphere_re  # noqa: E402
import workloads  # noqa: E402
from sphere_re.cli import main  # noqa: E402
from test_golden import CASES  # noqa: E402

SCAN_MASSES = {
    "111": "1,1,1",
    "111-negated": "1,1,1",
    "183": "1.83,1.83,1.83",
    "123": "1,2,3",
    "11-101": "1,1,1.01",
    "101-11": "1.01,1,1",
    "4-8-12": "4,8,12",
    **{f"pool{k}": workloads.fmt_masses(workloads.unequal_pool_masses(k)) for k in range(workloads.UNEQUAL_POOL)},
}


def runs(out: Path):
    """(output path, argv) of every run."""
    for name, (args, _) in CASES.items():
        yield out / "golden" / name, args
    for name, masses in SCAN_MASSES.items():
        potential = "negated-cotangent" if name.endswith("-negated") else "cotangent"
        yield out / f"ere-scan-{name}.csv", ["ere-scan", "--grid", "720", "--masses", masses, "--potential", potential]
    for n in (64, 512, 4096):
        yield out / f"lre-scan-{n}.csv", ["lre-scan", "--sigma12-grid", str(n)]
    labels = [label for group in workloads.pool_labels() for label in group]
    items = [workloads.build_candidate(sphere_re, label) for label in labels]
    verify = ["verify", "--T", repr(workloads.T), "--dt", repr(workloads.DT), "--input"]
    pool = out / "verify-pool-input.json"
    pool.write_text(json.dumps(items, indent=1) + "\n")
    yield out / "verify-pool.json", [*verify, str(pool)]
    for label, item in zip(labels, items):
        alone = out / "verify-alone" / f"{label}.input.json"
        alone.write_text(json.dumps([item]) + "\n")
        yield out / "verify-alone" / f"{label}.json", [*verify, str(alone)]


def write_all(out: Path) -> None:
    for sub in ("golden", "verify-alone"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    codes = []
    for path, argv in runs(out):
        codes.append(f"{path.relative_to(out)} {main([*argv, '--output', str(path)])}\n")
    (out / "exit-codes.txt").write_text("".join(codes))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: PYTHONPATH=src python3 {sys.argv[0]} OUTDIR")
    write_all(Path(sys.argv[1]))
