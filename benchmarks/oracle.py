"""Independent oracle for checking midpoly's outputs in the benchmark.

Nothing here calls midpoly. The exact side uses plain integers: a
rational polygon is scaled by the LCM L of its denominators, and its
n-th midpoint iterate is the integer polygon

    W_n[k] = sum_i C(n, i) * V[k + i]    (indices mod m)

divided by L * 2^n. Shoelace twice-area and moment are integer sums on
W_n, a centroid is the homogeneous integer triple (Zx, Zy, 3 * A2 * L *
2^n), and three points are colinear when the 3x3 integer determinant of
their triples vanishes. The float side builds the witness m-gon directly
from its vertex formula and iterates it by complex midpoints.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from math import comb, lcm

# A point of the projective plane: (x, y, w) stands for (x / w, y / w).
Hom = tuple[int, int, int]


def scale_to_lattice(coords: list[tuple[Fraction, Fraction]]) -> tuple[list[tuple[int, int]], int]:
    """Integer vertices V and the scale L with V = L * coords."""
    scale = lcm(*(c.denominator for xy in coords for c in xy))
    return [(int(x * scale), int(y * scale)) for x, y in coords], scale


def lattice_step(w: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """W_{n+1}[k] = W_n[k] + W_n[k+1]; iterating gives the binomial sum."""
    m = len(w)
    return [(w[k][0] + w[(k + 1) % m][0], w[k][1] + w[(k + 1) % m][1]) for k in range(m)]


def lattice_iterate(v: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """W_n by the closed binomial formula (used to cross-check lattice_step)."""
    m = len(v)
    return [
        (
            sum(comb(n, i) * v[(k + i) % m][0] for i in range(n + 1)),
            sum(comb(n, i) * v[(k + i) % m][1] for i in range(n + 1)),
        )
        for k in range(m)
    ]


def shoelace(w: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Integer (twice signed area, Zx, Zy) of a lattice polygon."""
    m = len(w)
    a2 = zx = zy = 0
    for k in range(m):
        x0, y0 = w[k]
        x1, y1 = w[(k + 1) % m]
        c = x0 * y1 - x1 * y0
        a2 += c
        zx += (x0 + x1) * c
        zy += (y0 + y1) * c
    return a2, zx, zy


def centroid_orbit(coords: list[tuple[Fraction, Fraction]], n: int) -> list[Hom | None]:
    """Homogeneous centroids of iterates 0..n; None where the area is zero."""
    w, scale = scale_to_lattice(coords)
    out: list[Hom | None] = []
    for step in range(n + 1):
        a2, zx, zy = shoelace(w)
        out.append(None if a2 == 0 else (zx, zy, 3 * a2 * scale << step))
        if step < n:
            w = lattice_step(w)
    return out


def vertex_mean(coords: list[tuple[Fraction, Fraction]]) -> Hom:
    """The vertex centroid, the limit of the orbit, as (sum x, sum y, m) scaled."""
    w, scale = scale_to_lattice(coords)
    return sum(x for x, _ in w), sum(y for _, y in w), len(w) * scale


def same_point(p: Hom, q: Hom) -> bool:
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


def det3(p: Hom, q: Hom, r: Hom) -> int:
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


def equals_fraction_pair(h: Hom, pair: list[str]) -> bool:
    """Whether the reported ["p/q", "r/s"] strings name the point h exactly."""
    fx, fy = Fraction(pair[0]), Fraction(pair[1])
    return fx.numerator * h[2] == h[0] * fx.denominator and fy.numerator * h[2] == h[1] * fy.denominator


class OrbitLine:
    """The centroid line of an orbit, anchored and directed as midpoly's report is.

    The anchor is the first defined centroid past iterate 0, the second
    point the next defined one distinct from it; with no such point, all
    defined centroids coincide and membership means equality.
    """

    def __init__(self, orbit: list[Hom | None]):
        defined = [g for g in orbit[1:] if g is not None]
        self.sufficient = len(defined) >= 2
        self.anchor = defined[0] if defined else None
        self.other = next((g for g in defined[1:] if not same_point(g, self.anchor)), None)
        self.defined = defined

    def contains(self, q: Hom) -> bool:
        if self.other is None:
            return same_point(q, self.anchor)
        return det3(self.anchor, self.other, q) == 0

    def all_colinear(self) -> bool:
        return all(self.contains(g) for g in self.defined)


# ------------------------------ fuzz stream ------------------------------


def fuzz_trial_hexagon(seed: int, trial: int, bound: int) -> list[tuple[Fraction, Fraction]]:
    """Trial `trial`'s hexagon, from the stream FuzzConfig documents.

    The stream is random.Random((seed << 32) + trial); each vertex draws
    x then y uniformly from [-bound, bound].
    """
    rng = random.Random((seed << 32) + trial)
    out = []
    for _ in range(6):
        x = rng.randint(-bound, bound)
        y = rng.randint(-bound, bound)
        out.append((Fraction(x), Fraction(y)))
    return out


def fuzz_counts(seed: int, trials: int, bound: int, steps: int) -> dict[str, int]:
    """Counts a fuzz summary must report, recomputed from the trial stream."""
    counts = dict(
        undefined_centroids=0, insufficient_data=0, g0_on_line_true=0,
        g0_on_line_false=0, theorem_passes=0,
    )
    for trial in range(trials):
        coords = fuzz_trial_hexagon(seed, trial, bound)
        orbit = centroid_orbit(coords, steps)
        counts["undefined_centroids"] += sum(1 for g in orbit if g is None)
        line = OrbitLine(orbit)
        if not line.sufficient:
            counts["insufficient_data"] += 1
            continue
        if orbit[0] is not None:
            key = "g0_on_line_true" if line.contains(orbit[0]) else "g0_on_line_false"
            counts[key] += 1
        if line.all_colinear() and line.contains(vertex_mean(coords)):
            counts["theorem_passes"] += 1
    return counts


# ------------------------------ float witness ------------------------------


def witness_slopes(m: int, n: int) -> list[float]:
    """Moment slopes Im Z / Re Z of iterates 0..n of the witness m-gon.

    Vertex k is i*w^k - w^(2k) + w^(3k), w = exp(2*pi*i/m); each step
    replaces the vertices by their complex edge midpoints, and Z is the
    float shoelace moment sum (v_k + v_{k+1}) * cross(v_k, v_{k+1}).
    """
    w = [cmath.exp(2j * math.pi * k / m) for k in range(m)]
    v = [1j * w[k] - w[(2 * k) % m] + w[(3 * k) % m] for k in range(m)]
    slopes = []
    for step in range(n + 1):
        z = 0j
        for k in range(m):
            a, b = v[k], v[(k + 1) % m]
            z += (a + b) * (a.real * b.imag - b.real * a.imag)
        slopes.append(z.imag / z.real)
        if step < n:
            v = [0.5 * (v[k] + v[(k + 1) % m]) for k in range(m)]
    return slopes


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ------------------------------ self-test ------------------------------


def _fan_centroid(coords: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction] | None:
    """Triangle-fan centroid anchored at vertex 0; None for zero total area."""
    (x0, y0) = coords[0]
    total = sx = sy = Fraction(0)
    for (ax, ay), (bx, by) in zip(coords[1:], coords[2:]):
        area = ((ax - x0) * (by - y0) - (ay - y0) * (bx - x0)) / 2
        total += area
        sx += area * (x0 + ax + bx) / 3
        sy += area * (y0 + ay + by) / 3
    return None if total == 0 else (sx / total, sy / total)


def self_test() -> None:
    """Check the oracle against a triangle-fan centroid on hand-picked polygons.

    Raises AssertionError on any disagreement (explicitly, so that it
    also runs under python -O).
    """
    F = Fraction
    polygons = [
        [(F(0), F(0)), (F(4), F(0)), (F(4), F(3)), (F(0), F(3))],
        [(F(0), F(2, 5)), (F(16, 5), F(1, 2)), (F(3), F(-1, 2)),
         (F(12, 5), F(2)), (F(-2), F(5, 2)), (F(-3, 10), F(6, 5))],
        [(F(1), F(1)), (F(2), F(2)), (F(3), F(3)), (F(-1), F(-1)), (F(0), F(0)), (F(5), F(5))],
        [(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2)), (F(2), F(0)), (F(0), F(2))],
        [(F(-7, 2), F(1)), (F(9), F(-4, 3)), (F(5), F(6)), (F(-1), F(1, 7)), (F(2), F(-9))],
    ]
    if _fan_centroid(polygons[2]) is not None:
        raise AssertionError("the colinear hexagon must have zero area")
    for coords in polygons:
        g0 = centroid_orbit(coords, 0)[0]
        fan = _fan_centroid(coords)
        if fan is None:
            agree = g0 is None
        else:
            agree = g0 is not None and equals_fraction_pair(g0, [str(fan[0]), str(fan[1])])
        if not agree:
            raise AssertionError(f"shoelace and fan centroids differ on {coords}")
        v, _ = scale_to_lattice(coords)
        w = v
        for _ in range(5):
            w = lattice_step(w)
        if lattice_iterate(v, 5) != w:
            raise AssertionError(f"step recurrence and binomial formula differ on {coords}")
    s = witness_slopes(7, 1)
    if abs(s[1] / s[0] - (2 * math.cos(2 * math.pi / 7) - 1)) > 1e-12:
        raise AssertionError("witness slope ratio for m = 7")
