"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 100] [--json FILE]

For each workload it runs perfbench/run.py --trace 0 with seeds
first-seed, first-seed + 1, ... and reports, per metric, the median,
the quartiles and the spread (Q3 - Q1) / median, with quartiles as
`statistics.quantiles(values, n=4)` gives them.  A spread must stay
below the metric's bound in BENCHMARK.json and should stay below a third
of it; the exit code is 1 if any spread reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--json", help="write the raw values, each run's info line and the summary here")
    args = parser.parse_args(argv)

    summary = {}
    ok = True
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        infos = []
        failed = 0
        for k in range(args.runs):
            cmd = definition["command"] + [
                "--workload", name, "--seed", str(args.first_seed + k),
                "--seconds", str(definition["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            infos.append(json.loads(next(l for l in lines if l.startswith("# info "))[len("# info "):]))
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        rows = {}
        for m in definition["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"], "values": v}
            flag = "" if spread < m["bound"] / 3 else (" (above bound/3)" if spread < m["bound"] else " (ABOVE BOUND)")
            if spread >= m["bound"]:
                ok = False
            print(f"{name:13s} {m['name']:12s} median {med:.6g} {m['unit']:4s} spread {spread:.4f} bound {m['bound']}{flag}")
        print(f"{name:13s} failed operations: {failed}")
        summary[name] = {"failed": failed, "metrics": rows, "info": infos}
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
