"""Benchmark midpoly end to end, or per layer with --trace 1.

    python3 benchmarks/run.py --workload {fuzz,deep_orbit,spectral} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each op is one `midpoly` command run
in-process through midpoly.cli.main, in a closed loop from one thread.
The workload's fixed reference kernel (refkernel.py) runs right before
and after each op, and every timing is scaled by its nominal time over
the mean of the two kernel times. Every op's output is checked against oracle.py outside the timed
region. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Raw wall-clock figures go
to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads
from refkernel import kernel_ms, nominal_ms

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
INPUTS = BENCH / "out" / "inputs"
COLD_STARTS = 7  # fresh interpreters per setup_s median, after one warm-up


def run_op(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process `midpoly` invocation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op, not the end of the run
        traceback.print_exc()
        code = 1
    return code, buf.getvalue()


def cold_start_s(workload: str, seed: int) -> float:
    """Median drift-corrected cold start over COLD_STARTS fresh interpreters.

    Bytecode caching is left on, as in an installed package, so the
    timed launches load the bytecode that the warm-up launch wrote.
    """
    cmd = [sys.executable, str(BENCH / "cold_start.py"), workload, str(seed), str(INPUTS)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    values = []
    for i in range(COLD_STARTS + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
        if i:  # the first launch only warms the file cache and bytecode
            values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values)


def measure(cli, ops, wants, workload, seconds, tracer):
    """The timed closed loop: whole rounds of ops until `seconds` have passed."""
    nominal = nominal_ms(workload)
    op_ms, per_op, kernels, raw_ms = [], [], [], []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while attempted % len(ops) or time.perf_counter() - start < seconds:
        op, want = ops[attempted % len(ops)], wants[attempted % len(ops)]
        k_before = kernel_ms(workload)
        t0 = time.perf_counter_ns()
        code, text = run_op(cli.main, op.argv)
        elapsed_ms = (time.perf_counter_ns() - t0) / 1e6
        k_after = kernel_ms(workload)
        attempted += 1
        factor = nominal / ((k_before + k_after) / 2)
        kernels += [k_before, k_after]
        traced = tracer.take_op() if tracer else None
        reason = f"exit {code}" if code != 0 else None
        if reason is None:
            try:
                reason = workloads.check(workload, op, want, text)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed report: {exc!r}"
            wrong += reason is not None
        if reason is not None:
            failed += 1
            print(f"op {attempted} {' '.join(op.argv)}: {reason}", file=sys.stderr)
            continue
        op_ms.append(elapsed_ms * factor)
        raw_ms.append(elapsed_ms)
        if traced is not None:
            traced["factor"] = factor
            per_op.append(traced)
    return dict(op_ms=op_ms, raw_ms=raw_ms, per_op=per_op, kernels=kernels,
                attempted=attempted, failed=failed, wrong=wrong)


def end_to_end(run: dict, setup_s: float) -> dict:
    op_ms = run["op_ms"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(op_ms) / (sum(op_ms) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(op_ms, n=10)[8] if len(op_ms) > 1 else op_ms[0], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: dict) -> dict:
    per_op = run["per_op"]
    n = len(per_op)
    metrics = {}
    for module, fn in tracing.TIMED:
        name = f"{module}.{fn}"
        total = sum(op["self_ns"].get(name, 0) * op["factor"] for op in per_op)
        metrics[f"{name}.self_ms"] = (total / 1e6 / n, "ms")
    for name in tracing.TOTALS:
        total = sum(op["total_ns"].get(name, 0) * op["factor"] for op in per_op)
        metrics[f"{name}.total_ms"] = (total / 1e6 / n, "ms")
    for name in tracing.CALLS:
        metrics[f"{name}.calls"] = (sum(op["calls"].get(name, 0) for op in per_op) / n, "count")
    metrics["exact_poly.den_bits_max"] = (max(op["den_bits"] for op in per_op), "bits")
    metrics["exact_poly.num_bits_max"] = (max(op["num_bits"] for op in per_op), "bits")
    runs = sum(op["theorem_runs"] for op in per_op)
    distinct = sum(op["theorem_distinct"] for op in per_op)
    metrics["verify.theorem_useful_ratio"] = (distinct / runs if runs else 1.0, "ratio")
    metrics["ref.kernel_ms"] = (statistics.median(run["kernels"]), "ms")
    metrics["traced.op_ms_p50"] = (statistics.median(run["op_ms"]), "ms")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fuzz", "deep_orbit", "spectral"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "midpoly" / "__init__.py").is_file():
        print(f"run.py: no midpoly sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import midpoly
    import midpoly.cli

    if not Path(midpoly.__file__).resolve().is_relative_to(src.resolve()):
        print(f"run.py: imported midpoly from {midpoly.__file__}, not {src}", file=sys.stderr)
        return 2
    oracle.self_test()
    ops = workloads.build_round(args.workload, args.seed, INPUTS)
    wants = [workloads.expected(args.workload, op) for op in ops]
    try:
        setup_s = None if args.trace else cold_start_s(args.workload, args.seed)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    tracer = tracing.Tracer(midpoly) if args.trace else None
    if tracer:
        tracer.install()
    try:
        run_op(midpoly.cli.main, ops[0].argv)  # warm-up, untimed and unchecked
        if tracer:
            tracer.take_op()
        run = measure(midpoly.cli, ops, wants, args.workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    done = len(run["op_ms"])
    if done == 0:
        metrics = {}
    elif args.trace:
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run, setup_s)
    kernels = run["kernels"]
    print(
        f"{args.workload} seed={args.seed}: {run['attempted']} ops, {run['failed']} failed; "
        f"raw p50 {statistics.median(run['raw_ms']) if done else float('nan'):.3f} ms; "
        f"kernel min/p50/max {min(kernels):.3f}/{statistics.median(kernels):.3f}/{max(kernels):.3f} ms",
        file=sys.stderr,
    )
    result = {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
