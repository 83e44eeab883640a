"""Each benchmark workload once, full size, against its stored references.

`perfbench/run.py` checks every pass it times against
`perfbench/reference/`; a pass that disagrees counts as failed, and the
benchmark rejects a change with failed passes.  This runs one pass of
each workload (the --seconds budget is smaller than one pass) and
requires it to be correct.  The runs write only under `perfbench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["scan-equal", "scan-unequal", "verify-mixed", "drift-sweep"])
def test_benchmark_workload_passes_its_reference_check(workload):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
