"""One cold start: import midpoly, build a workload's inputs, run its first op.

    python3 benchmarks/cold_start.py WORKLOAD SEED WORKDIR

Meant to run in a fresh interpreter from the repository root (run.py
launches it). Nothing that midpoly imports is loaded before the clock
starts, so the reference kernel, which uses fractions, runs only after
the timed region: the median of five runs gives the drift correction.
Prints the drift-corrected time in seconds; exits 1 if the op fails.
"""

import sys
import time

sys.path.insert(0, "src")


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter_ns()
    import contextlib
    import io
    from pathlib import Path

    import midpoly.cli
    import workloads

    ops = workloads.build_round(workload, seed, Path(workdir))
    with contextlib.redirect_stdout(io.StringIO()):
        code = midpoly.cli.main(ops[0].argv)
    elapsed_s = (time.perf_counter_ns() - t0) / 1e9
    from refkernel import kernel_ms, nominal_ms

    kernel = sorted(kernel_ms(workload) for _ in range(5))[2]
    if code != 0:
        print(f"cold start: first op exited {code}", file=sys.stderr)
        return 1
    print(elapsed_s * nominal_ms(workload) / kernel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
