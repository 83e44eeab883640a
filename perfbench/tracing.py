"""Per-layer tracing of sphere_re from outside the library.

The tracer rebinds the names that callers look up (for example
`sphere_re.euler.g_cyclic`, which `ere_scan` and its bisection lambda
resolve through the module globals) to wrappers defined here, and
restores the originals afterwards.  Coarse calls become spans (name,
start, end, parent, run id); hot inner calls only bump counters and an
aggregate time, because a span per call would cost more than the call.
A layer's self time is its span time minus the time of the spans and
outermost hot calls beneath it.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_ns = time.perf_counter_ns


class _Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_ns", "attrs")

    def __init__(self, span_id, name, parent, start, attrs):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.child_ns = 0
        self.attrs = attrs

    def as_dict(self, run_id, origin):
        return {
            "run_id": run_id,
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start - origin,
            "end_ns": self.end - origin,
            "child_ns": self.child_ns,
            **self.attrs,
        }


class Tracer:
    """Spans and counters for one traced pass; `install` patches the library."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = _ns()
        self.spans: list[_Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.time_ns: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._stack: list[_Span] = []
        self._hot_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = _Span(len(self.spans), name, None if parent is None else parent.id, _ns(), attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = _ns()
            self._stack.pop()
            if parent is not None:
                parent.child_ns += sp.end - sp.start

    def _hot_done(self, name: str, dt: int) -> None:
        self._hot_depth -= 1
        self.counts[name] += 1
        self.time_ns[name] += dt
        # only the outermost hot call is charged to the enclosing span, so
        # a hot call nested in another (g_cyclic inside bisect) is not
        # subtracted twice from the span's self time
        if self._hot_depth == 0 and self._stack:
            self._stack[-1].child_ns += dt

    def hot(self, name: str, fn, keep_samples: bool = False):
        samples = self.samples[name] if keep_samples else None

        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            t0 = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _ns() - t0
                self._hot_done(name, dt)
                if samples is not None:
                    samples.append(dt)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, lib) -> None:
        """Rebind the public functions of every traced layer in `lib`."""
        euler, lagrange, verify = lib.euler, lib.lagrange, lib.verify
        potential_cls = lib.potential.Potential
        self.patch(lib.cli, "main", self.spanned("cli.main", lib.cli.main))

        g_cyclic = euler.g_cyclic

        def g_cyclic_traced(a, x, *rest):
            self.counts["euler.g_cyclic.points"] += max(np.size(a), np.size(x))
            return g_cyclic(a, x, *rest)

        self.patch(euler, "g_cyclic", self.hot("euler.g_cyclic", g_cyclic_traced))

        def bisect_wrapper(bisect):
            hot = self.hot("roots.bisect", bisect)

            def traced(*args, **kwargs):
                before = self.counts["euler.g_cyclic"]
                try:
                    return hot(*args, **kwargs)
                finally:
                    self.counts["roots.bisect.evals"] += self.counts["euler.g_cyclic"] - before

            return traced

        self.patch(euler, "bisect", bisect_wrapper(euler.bisect))
        self.patch(lagrange, "bisect", bisect_wrapper(lagrange.bisect))

        solve_hot = self.hot("euler.solve_ere", euler.solve_ere, keep_samples=True)

        def solve_traced(*args, **kwargs):
            try:
                return solve_hot(*args, **kwargs)
            except lib.errors.SphereReError as exc:
                self.counts["euler.solve_ere.raised." + type(exc).__name__] += 1
                raise

        self.patch(euler, "solve_ere", solve_traced)

        def gauss_newton_wrapper(gauss_newton):
            hot = self.hot("roots.gauss_newton", gauss_newton)

            def traced(residual, *args, **kwargs):
                return hot(self.counted("roots.gauss_newton.residual_evals", residual), *args, **kwargs)

            return traced

        self.patch(euler, "gauss_newton", gauss_newton_wrapper(euler.gauss_newton))
        self.patch(lagrange, "gauss_newton", gauss_newton_wrapper(lagrange.gauss_newton))
        self.patch(euler, "meridian_re_residual", self.hot("dynamics.meridian_re_residual", euler.meridian_re_residual))
        self.patch(verify, "eom_accelerations", self.hot("dynamics.eom_accelerations", verify.eom_accelerations))
        self.patch(
            verify, "meridian_accelerations", self.hot("dynamics.meridian_accelerations", verify.meridian_accelerations)
        )
        self.patch(potential_cls, "u_prime", self.counted("potential.u_prime", potential_cls.u_prime))
        self.patch(
            potential_cls, "u_prime_meridian", self.counted("potential.u_prime_meridian", potential_cls.u_prime_meridian)
        )

        ere_scan = euler.ere_scan

        def ere_scan_traced(*args, **kwargs):
            with self.span("euler.ere_scan") as sp:
                hits = ere_scan(*args, **kwargs)
                sp.attrs["hits"] = len(hits)
                return hits

        self.patch(euler, "ere_scan", ere_scan_traced)
        verify_re = verify.verify_re

        def verify_re_traced(candidate, *args, **kwargs):
            with self.span("verify.verify_re", meridian=bool(candidate.meridian)):
                return verify_re(candidate, *args, **kwargs)

        self.patch(verify, "verify_re", verify_re_traced)
        for name in ("integrate", "integrate_meridian", "first_integral_drift", "batch_meridian_drift"):
            self.patch(verify, name, self.spanned("verify." + name, getattr(verify, name)))
        for name in ("isosceles_lre_roots", "lre_reconstruct"):
            self.patch(lagrange, name, self.spanned("lagrange." + name, getattr(lagrange, name)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def span_s(self, name: str, **attrs) -> float:
        return sum(
            sp.end - sp.start
            for sp in self.spans
            if sp.name == name and all(sp.attrs.get(k) == v for k, v in attrs.items())
        ) / 1e9

    def self_s(self, name: str) -> float:
        return sum(sp.end - sp.start - sp.child_ns for sp in self.spans if sp.name == name) / 1e9

    def span_count(self, name: str) -> int:
        return sum(1 for sp in self.spans if sp.name == name)

    def hot_s(self, name: str) -> float:
        return self.time_ns[name] / 1e9

    def us_per_call(self, name: str) -> float:
        n = self.counts[name]
        return self.time_ns[name] / n / 1e3 if n else 0.0

    def percentile_us(self, name: str, q: int) -> float:
        data = self.samples[name]
        if len(data) < 2:
            return data[0] / 1e3 if data else 0.0
        return statistics.quantiles(data, n=100, method="inclusive")[q - 1] / 1e3

    def span_records(self) -> list[dict]:
        return [sp.as_dict(self.run_id, self.origin) for sp in self.spans]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (setup layers are added by the caller)."""
    c = tr.counts
    brackets = c["roots.bisect"]
    hits = sum(sp.attrs.get("hits", 0) for sp in tr.spans if sp.name == "euler.ere_scan")
    raised = sum(v for k, v in c.items() if k.startswith("euler.solve_ere.raised."))
    return {
        "euler.g_cyclic.calls": c["euler.g_cyclic"],
        "euler.g_cyclic.points": c["euler.g_cyclic.points"],
        "euler.g_cyclic.s": tr.hot_s("euler.g_cyclic"),
        "roots.bisect.calls": brackets,
        "roots.bisect.s": tr.hot_s("roots.bisect"),
        "roots.bisect.evals_per_call": c["roots.bisect.evals"] / brackets if brackets else 0.0,
        "euler.solve_ere.calls": c["euler.solve_ere"],
        "euler.solve_ere.s": tr.hot_s("euler.solve_ere"),
        "euler.solve_ere.p50_us": tr.percentile_us("euler.solve_ere", 50),
        "euler.solve_ere.p99_us": tr.percentile_us("euler.solve_ere", 99),
        "euler.solve_ere.raised": raised,
        "euler.solve_ere.raised.SingularSeparation": c["euler.solve_ere.raised.SingularSeparation"],
        "euler.solve_ere.raised.InconsistentRatios": c["euler.solve_ere.raised.InconsistentRatios"],
        "roots.gauss_newton.calls": c["roots.gauss_newton"],
        "roots.gauss_newton.s": tr.hot_s("roots.gauss_newton"),
        "roots.gauss_newton.residual_evals": c["roots.gauss_newton.residual_evals"],
        "dynamics.meridian_re_residual.calls": c["dynamics.meridian_re_residual"],
        "dynamics.meridian_re_residual.s": tr.hot_s("dynamics.meridian_re_residual"),
        "euler.ere_scan.self_s": tr.self_s("euler.ere_scan"),
        "euler.ere_scan.cutoff_dropped": brackets - c["euler.solve_ere"],
        "euler.ere_scan.hit_yield": hits / brackets if brackets else 0.0,
        "dynamics.eom_accelerations.calls": c["dynamics.eom_accelerations"],
        "dynamics.eom_accelerations.us_per_call": tr.us_per_call("dynamics.eom_accelerations"),
        "dynamics.meridian_accelerations.calls": c["dynamics.meridian_accelerations"],
        "dynamics.meridian_accelerations.us_per_call": tr.us_per_call("dynamics.meridian_accelerations"),
        "potential.u_prime.calls": c["potential.u_prime"],
        "potential.u_prime_meridian.calls": c["potential.u_prime_meridian"],
        "verify.verify_re.calls": tr.span_count("verify.verify_re"),
        "verify.verify_re.full_s": tr.span_s("verify.verify_re", meridian=False),
        "verify.verify_re.meridian_s": tr.span_s("verify.verify_re", meridian=True),
        "verify.integrate.s": tr.span_s("verify.integrate"),
        "verify.integrate_meridian.s": tr.span_s("verify.integrate_meridian"),
        "verify.first_integral_drift.s": tr.span_s("verify.first_integral_drift"),
        "verify.batch_meridian_drift.s": tr.span_s("verify.batch_meridian_drift"),
        "cli.self_s": tr.self_s("cli.main"),
    }
