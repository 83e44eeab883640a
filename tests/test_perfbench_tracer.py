"""The benchmark still finds every library name it uses.

`perfbench/tracing.py` wraps library functions by module attribute
name, and `perfbench/workloads.py` builds the verify-mixed candidates
through the library.  A rename or removal in the library would
otherwise only show up in a benchmark run, which the test-suite does
not make.
"""

import importlib
import importlib.util
import json
import math
import sys
import types
from pathlib import Path

from sphere_re.cli import _candidate
from sphere_re.potential import BUILT_INS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "euler", "lagrange", "verify", "geometry", "potential", "errors")


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _library():
    return types.SimpleNamespace(**{name: importlib.import_module("sphere_re." + name) for name in MODULES})


def test_tracer_installs_on_the_library_and_restores_it():
    tracing = _load("tracing")
    lib = _library()
    tracer = tracing.Tracer("test")
    try:
        tracer.install(lib)
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
        # calls made through the library reach the wrappers
        assert lib.lagrange.isosceles_lre_roots(math.pi / 3)
        lib.euler.critical_angle_ac_bisection()
        assert tracer.span_count("lagrange.isosceles_lre_roots") == 1
        assert tracing.layer_metrics(tracer)["roots.bisect.calls"] == 1
    finally:
        tracer.restore()
    assert len(patched) > 10
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_every_verify_pool_candidate_builds_and_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling `checks`
    workloads = _load("workloads")
    labels = [label for group in workloads.pool_labels() for label in group]
    reference = json.loads((PERFBENCH / "reference" / "verify-pool.json").read_text())["reports"]
    assert sorted(labels) == sorted(reference)
    lib = _library()
    for label in labels:
        item = workloads.build_candidate(lib, label)
        cand = _candidate(item)
        assert cand.label == label
        assert cand.potential is BUILT_INS[item["potential"]]
        assert cand.potential.attractive != label.startswith("mirror-")
