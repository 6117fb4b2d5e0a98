"""Fixed reference kernels used to correct timings for machine-speed drift.

Small shared machines change speed by up to about 1.7x over seconds, in
CPU time as well as wall time. A reference kernel does a fixed amount of
work and runs right before and after every timed op; its duration tracks
the machine's current speed. A timing t between kernel runs k1 and k2 is
reported as t * nominal / ((k1 + k2) / 2): "ms at nominal machine speed".

Kinds of work do not slow down alike. Measured on the reference machine
against one mixed kernel, fuzz ops slowed about 1.3x as much, deep_orbit
ops about 1.0x and spectral ops about 1.1x, so a single kernel left a
10% phase bias on fuzz. Each workload therefore has its own kernel: a
small stdlib-only version of the work that dominates its op (small
rationals, 200-bit rationals, a complex double loop). Kernels never
import midpoly. Their code and nominal times are constants of the
benchmark; changing either rescales every figure, so neither may change
between two measured commits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter_ns

HALF = Fraction(1, 2)


def _exact_steps(pts: list[tuple[Fraction, Fraction]], steps: int) -> list[tuple[Fraction, Fraction]]:
    """Exact midpoint steps, each followed by shoelace area and moment sums."""
    m = len(pts)
    for _ in range(steps):
        pts = [((pts[k][0] + pts[(k + 1) % m][0]) * HALF, (pts[k][1] + pts[(k + 1) % m][1]) * HALF)
               for k in range(m)]
        area = zx = zy = Fraction(0)
        for k in range(m):
            (x0, y0), (x1, y1) = pts[k], pts[(k + 1) % m]
            c = x0 * y1 - x1 * y0
            area += c
            zx += (x0 + x1) * c
            zy += (y0 + y1) * c
    return pts


_SMALL = [(Fraction(x), Fraction(y)) for x, y in [(0, 3), (4, -2), (7, 1), (2, 6), (-5, 4), (-3, -1)]]
_BIG_DEN = 10 << 195
_BIG = [(Fraction(7 ** (70 + 2 * k) % (40 * _BIG_DEN) - 20 * _BIG_DEN, _BIG_DEN),
         Fraction(3 ** (110 + 2 * k) % (40 * _BIG_DEN) - 20 * _BIG_DEN, _BIG_DEN)) for k in range(6)]

_M = 64
_XI = [complex(math.cos(k), math.sin(k)) * (1 + k / 7) for k in range(_M)]
_IM_W = [math.sin(2 * math.pi * j / _M) for j in range(_M)]


def _small_rationals() -> None:
    _exact_steps(_SMALL, 18)


def _big_rationals() -> None:
    _exact_steps(_BIG, 7)


def _complex_loop() -> None:
    for _ in range(3):
        total = 0j
        for p in range(_M):
            for q in range(_M):
                factor = _IM_W[p] + _IM_W[q]
                if factor == 0.0:
                    continue
                total += _XI[p] * _XI[q].conjugate() * _XI[(q - p) % _M] * factor


# workload -> (kernel, nominal ms: the kernel's fast-phase median on the
# reference machine, see README)
KERNELS = {
    "fuzz": (_small_rationals, 2.0),
    "deep_orbit": (_big_rationals, 2.1),
    "spectral": (_complex_loop, 2.3),
}


def kernel_ms(workload: str) -> float:
    """Run the workload's kernel once and return its wall time in ms."""
    work = KERNELS[workload][0]
    t0 = perf_counter_ns()
    work()
    return (perf_counter_ns() - t0) / 1e6


def nominal_ms(workload: str) -> float:
    return KERNELS[workload][1]
