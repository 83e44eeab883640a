"""sphere-re benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload scan-equal --seed 0 --seconds 30 --trace 0

Workloads: scan-equal, scan-unequal, verify-mixed, drift-sweep (see
BENCHMARK.json and perfbench/README.md).  With --trace 0 the run
alternates set-ups and timed passes for about --seconds and reports the
end-to-end metrics, with times scaled to a fixed host speed by
calibration doses around each timed block (hostclock.py).  With
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json; spans go to
perfbench/out/trace-<workload>-seed<seed>.json.  Every pass output is
checked.  The last stdout line is the JSON result.  The library is
imported from src/ of the same checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# numpy, and the modules here that use it, are imported inside functions:
# main() must set the thread variables before numpy is first imported

# set-ups before each timed pass; a workload whose set-up is expensive
# declares fewer
SETUP_REPEATS = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LIBRARY_MODULES = ("cli", "euler", "lagrange", "verify", "geometry", "potential", "errors")


class LibraryMissing(Exception):
    pass


class Library:
    """The sphere_re modules of one fresh import."""

    def __init__(self):
        import importlib

        for name in [n for n in sys.modules if n == "sphere_re" or n.startswith("sphere_re.")]:
            del sys.modules[name]
        if not (SRC / "sphere_re" / "__init__.py").is_file():
            raise LibraryMissing(f"no sphere_re package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        pkg = importlib.import_module("sphere_re")
        if Path(pkg.__file__).resolve().parent != SRC / "sphere_re":
            raise LibraryMissing(f"sphere_re imported from {pkg.__file__}, not from {SRC}")
        for name in LIBRARY_MODULES:
            setattr(self, name, importlib.import_module("sphere_re." + name))


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("SPHERE_RE_THREADS",)},
    }


def benchmark_definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else 0.0


def _best(values):
    return min(values) if values else 0.0


class Run:
    """One invocation: set up a workload, time passes, check every output."""

    def __init__(self, workload, seed: int, seconds: float, size, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.ops = 0
        self.extra: dict[str, float] = {}

    def setup(self, tracer=None):
        t0 = time.perf_counter()
        lib = Library()
        if tracer is not None:
            tracer.install(lib)
        try:
            inputs = self.workload.setup(lib, self.seed, self.size, self.workdir)
        finally:
            if tracer is not None:
                tracer.restore()
        return lib, inputs, time.perf_counter() - t0

    def one_pass(self, lib, inputs, tracer=None) -> float:
        if tracer is not None:
            tracer.install(lib)
        try:
            t0 = time.perf_counter()
            output = self.workload.run(lib, inputs)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        attempted, failed, extra = self.workload.check(output, inputs)
        self.attempted += attempted
        self.failed += failed
        self.extra = extra
        self.ops = self.workload.ops(output, inputs)
        return wall

    def _budget_left(self, start: float, unit: float) -> bool:
        return time.perf_counter() - start + unit <= self.seconds

    def end_to_end(self) -> tuple[dict, dict]:
        """Alternate set-ups and timed passes for about --seconds.

        Each pass runs on the inputs of the set-up just before it, so the
        set-ups are spread over the whole run.  Every block of set-ups and
        every pass runs between calibration doses, and the reported times
        are medians of times scaled to a fixed host speed (hostclock.py).
        """
        from hostclock import HostClock

        clock = HostClock()
        repeats = getattr(self.workload, "setup_repeats", SETUP_REPEATS)
        setups, walls, measured_setups, measured_walls = [], [], [], []
        start = time.perf_counter()
        while not walls or self._budget_left(start, repeats * _median(measured_setups) + _median(measured_walls)):
            runs, scale = clock.measure(lambda: [self.setup() for _ in range(repeats)])
            lib, inputs, _ = runs[-1]
            measured_setups += [dt for *_, dt in runs]
            setups += [dt * scale for *_, dt in runs]
            gc.collect()  # drop the modules of the earlier imports before timing
            wall, scale = clock.measure(lambda: self.one_pass(lib, inputs))
            measured_walls.append(wall)
            walls.append(wall * scale)
        wall = _median(walls)
        metrics = {
            "setup_s": _median(setups),
            "wall_s": wall,
            "ops_per_s": self.ops / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info = {
            "passes": len(walls),
            "setups": len(setups),
            self.workload.op_name: self.ops / wall,
            "measured_wall_s": measured_walls,
            "measured_setup_s": measured_setups,
            "calibration_loops_s": clock.loops,
        }
        return metrics, info

    def traced(self) -> tuple[dict, dict, dict]:
        from tracing import Tracer, layer_metrics
        from workloads import LAYER_KEYS

        name = self.workload.name
        setup_tracer = Tracer(f"{name}/seed{self.seed}/setup")
        lib, inputs, _ = self.setup(setup_tracer)
        plain, traced, layers, tracers = [], [], [], [setup_tracer]
        start = time.perf_counter()
        derived = getattr(self.workload, "traced_metrics", None)
        while not traced or self._budget_left(start, _median(plain) + _median(traced)):
            plain.append(self.one_pass(lib, inputs))
            tr = Tracer(f"{name}/seed{self.seed}/pass{len(traced)}")
            traced.append(self.one_pass(lib, inputs, tr))
            tracers.append(tr)
            m = dict.fromkeys(LAYER_KEYS, 0)
            m.update(layer_metrics(tr), **self.extra)
            if derived is not None:
                m.update(derived(m, inputs))
            layers.append(m)
        metrics = {k: _median([m[k] for m in layers]) for k in layers[0]}
        metrics["lagrange.isosceles_lre_roots.s"] = setup_tracer.span_s("lagrange.isosceles_lre_roots")
        metrics["lagrange.lre_reconstruct.s"] = setup_tracer.span_s("lagrange.lre_reconstruct")
        metrics["tracing.overhead_s"] = _best(traced) - _best(plain)
        info = {"passes": len(traced), "traced_wall_s": _best(traced), "untraced_wall_s": _best(plain)}
        side = {
            "workload": name,
            "seed": self.seed,
            "env": environment(),
            "spans": [s for tr in tracers for s in tr.span_records()],
            "counts": [dict(tr.counts) for tr in tracers],
            "metrics": metrics,
        }
        return metrics, info, side


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run one workload in this process and return the result object."""
    import workloads

    size = size or workloads.FULL
    definition = benchmark_definition()
    wanted = definition["per_layer" if trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = Run(workloads.WORKLOADS[name], seed, seconds, size, Path(tmp))
        if trace:
            metrics, info, side = run.traced()
            trace_path = OUT / f"trace-{name}-seed{seed}.json"
            trace_path.write_text(json.dumps(side))
            info["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            metrics, info = run.end_to_end()
    missing = sorted({m["name"] for m in wanted} - set(metrics))
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    info["failed_frac"] = run.failed / run.attempted if run.attempted else 1.0
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workload_names = [w["name"] for w in benchmark_definition()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # one worker thread, and the default sequential scan; numpy reads the
    # thread variables when it is first imported, so set them before that
    os.environ.pop("SPHERE_RE_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = result.pop("info")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(environment())}")
    for name, m in result["metrics"].items():
        print(f"# {name} {m['value']!r} {m['unit']}")
    print(f"# failed_frac {info.pop('failed_frac')!r} ({result['failed']}/{result['attempted']})")
    print(f"# info {json.dumps(info)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
