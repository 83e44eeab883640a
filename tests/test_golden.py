"""CLI outputs against stored golden files, byte for byte.

Each case runs `sphere-re` in process and compares its stdout with
`tests/golden/<case>` and its exit code with the one listed here.  After
a deliberate output change, rewrite the files with

    PYTHONPATH=src python3 tests/test_golden.py

and record the change in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from sphere_re.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SOLVE = ["ere-solve", "--verify", "--T", "1"]

# case name -> (arguments, exit code)
CASES = {
    "ere-scan-111.csv": (["ere-scan", "--grid", "48", "--masses", "1,1,1"], 0),
    "ere-scan-123.csv": (["ere-scan", "--grid", "48", "--masses", "1,2,3"], 0),
    "ere-scan-183.csv": (["ere-scan", "--grid", "48", "--masses", "1.83,1.83,1.83"], 0),
    "ere-scan-neg.csv": (
        ["ere-scan", "--grid", "48", "--masses", "0.7,1.3,2.9", "--potential", "negated-cotangent"],
        0,
    ),
    "ere-solve-pole-middle.json": ([*SOLVE, "--shape", "0.8,-0.8"], 0),
    "ere-solve-equator-middle.json": ([*SOLVE, "--shape", "2.3,-2.3"], 0),
    "ere-solve-equilateral.json": ([*SOLVE, "--shape", "2.0943951023931953,-2.0943951023931953"], 0),
    "ere-solve-scalene.json": ([*SOLVE, "--shape", "1.8,1.1194589199604674"], 0),
    "ere-solve-unequal.json": ([*SOLVE, "--masses", "1,2,3", "--shape", "1.3463968515384828,1.6735792599654868"], 0),
    "lre-scan.csv": (["lre-scan", "--sigma12-grid", "64"], 0),
    "scalene-lre-search.json": (["scalene-lre-search", "--resolution", "30"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    args, expect = CASES[name]
    assert main(args) == expect
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, (args, expect) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args)
        if code != expect:
            sys.exit(f"{name}: exit code {code}, expected {expect}")
        (GOLDEN / name).write_text(buf.getvalue())
