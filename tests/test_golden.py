"""CLI outputs against stored golden files, byte for byte.

Each case runs `sphere-re` in process and compares its stdout with
`tests/golden/<case>` and its exit code with the one listed here.  The
`verify` case reads `tests/golden/verify-input.json`, which holds
`VERIFY_INPUT`.  After a deliberate output change, rewrite the files
(the input file included) with

    PYTHONPATH=src python3 tests/test_golden.py

and record the change in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from sphere_re.cli import OUTPUT_SCHEMA, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SOLVE = ["ere-solve", "--verify", "--T", "1"]

VERIFY_INPUT_FILE = GOLDEN / "verify-input.json"

# a triangular RE, meridian REs under both potentials and at unequal
# masses, a non-equilibrium and a collision that blows up
VERIFY_INPUT = [
    {"label": "right-angle", "theta": [0.9553166181245093] * 3,
     "phi": [0.0, 2.0943951023931953, 4.1887902047863905], "omega2": 3.0},
    {"label": "iso", "theta": [-0.5, 0.5, 0.0], "phi": None, "omega2": 13.697366470914243},
    {"label": "mirror", "theta": [1.0707963267948966, 2.0707963267948966, 1.5707963267948966], "phi": None,
     "omega2": 13.697366470914243, "potential": "negated-cotangent"},
    {"label": "unequal", "theta": [-1.5366931927200698, -0.19029634118158079, 0.1368860672453807],
     "omega2": 150.7219876939306, "masses": [1.0, 2.0, 3.0]},
    {"label": "not-an-re", "theta": [-0.5, 0.5, 0.0], "omega2": 1.0},
    {"label": "collision", "theta": [1.5707963267948966, 1.5707963267948966, 1.0], "phi": [0.0, 0.05, 2.0],
     "omega2": 0.5},
]

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
    "ere-solve-degenerate.json": ([*SOLVE, "--shape", "2.0943951023931953,1.0471975511965976"], 0),
    "ere-solve-scalene.json": ([*SOLVE, "--shape", "1.8,1.1194589199604674"], 0),
    "ere-solve-unequal.json": ([*SOLVE, "--masses", "1,2,3", "--shape", "1.3463968515384828,1.6735792599654868"], 0),
    "lre-scan.csv": (["lre-scan", "--sigma12-grid", "64"], 0),
    "scalene-lre-search.json": (["scalene-lre-search", "--resolution", "30"], 0),
    "lre-solve-published.json": (
        ["lre-solve", "--verify", "--T", "1", "--shape", "1.0471975511965976,1.33240,1.33240"],
        0,
    ),
    "axis-123.json": (["axis", "--masses", "1,2,3", "--shape", "1.0,1.1,1.2"], 0),
    "euclid-limit.json": (["euclid-limit"], 0),
    "schema.json": (["schema"], 0),
    "verify.json": (["verify", "--T", "1", "--input", str(VERIFY_INPUT_FILE)], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    args, expect = CASES[name]
    assert main(args) == expect
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def assert_keys(obj, keys):
    """`obj` has the keys of `keys` in order; a key ending in `?` may be absent."""
    assert list(obj) == [k.rstrip("?") for k in keys if not k.endswith("?") or k[:-1] in obj]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_follows_the_schema(name):
    command = CASES[name][0][0]
    text = (GOLDEN / name).read_text()
    if command in OUTPUT_SCHEMA["csv"]:
        assert text.split("\n", 1)[0] == ",".join(OUTPUT_SCHEMA["csv"][command])
        return
    if command == "schema":
        return
    data = json.loads(text)
    assert_keys(data, OUTPUT_SCHEMA["json"][command])
    if "verification" in data:
        assert_keys(data["verification"], OUTPUT_SCHEMA["verification_report"])
    for report in data.get("reports", []):
        assert_keys(report, OUTPUT_SCHEMA["verify_report"])


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    VERIFY_INPUT_FILE.write_text(json.dumps(VERIFY_INPUT, indent=1) + "\n")
    for name, (args, expect) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(args)
        if code != expect:
            sys.exit(f"{name}: exit code {code}, expected {expect}")
        (GOLDEN / name).write_text(buf.getvalue())
