"""The benchmark's per-layer tracer still finds every library name it rebinds.

`perfbench/tracing.py` wraps library functions by module attribute
name.  A rename or removal in the library would otherwise only show up
in a `--trace 1` benchmark run, which the test-suite does not make.
"""

import importlib
import importlib.util
import math
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cli", "euler", "lagrange", "verify", "geometry", "potential", "errors")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_library_and_restores_it():
    tracing = _load_tracing()
    lib = types.SimpleNamespace(**{name: importlib.import_module("sphere_re." + name) for name in MODULES})
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
