"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/stability.py [--runs 10] [--first-seed 1] [--trace 0]
        [--workloads fuzz deep_orbit spectral]

Run from the repository root. Runs run.py once per (workload, seed), one
at a time, with BENCHMARK.json's run_seconds. For every metric it prints
the median over the runs and the quartile spread (Q3 - Q1) / median, with
quartiles from statistics.quantiles(values, n=4), next to the metric's
bound. Writes everything to benchmarks/out/stability-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
            wall = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"], result["stderr"] = seed, wall, proc.stderr.strip()
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, {result['attempted']} ops, "
                  f"{result['failed']} failed; {proc.stderr.strip().splitlines()[-1]}", flush=True)
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            summary[name] = {"median": median, "spread": spread, "bound": bounds.get(name)}
            bound = f" bound {bounds[name]}" if name in bounds else ""
            print(f"  {workload} {name}: median {median:.6g}, spread {spread:.4f}{bound}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  {workload} failed share(s): {sorted(shares)}", flush=True)
        report[workload] = {"runs": results, "summary": summary}

    out = BENCH / "out" / f"stability-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
