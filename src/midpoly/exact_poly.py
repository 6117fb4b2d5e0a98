"""Exact rational polygons and the midpoint iteration, on one integer kernel.

Coordinates are arbitrary-precision rationals (`Fraction`), so midpoints,
areas, moments and centroids come out without any rounding. Every
operation computes on integers and builds a `Fraction` only for the value
it returns. A polygon is scaled once by L, the least common multiple of
its coordinate denominators, onto integer vertices W_0. The midpoint map
only divides by two, so the n-th iterate is the integer polygon W_n over
L * 2^n, with W_n[k] = W_{n-1}[k] + W_{n-1}[k+1]. Twice the area A2 and
the moment Z of W_n are integer shoelace sums: the polygon W / L has
signed area A2 / (2 L^2) and moment Z / L^3, and its centroid is the
homogeneous integer triple (Zx, Zy, 3 * A2 * L), i.e. the point
(Zx / w, Zy / w). The shoelace loop sums each edge's endpoints for Z,
and those edge sums are W_{n+1}, so one pass yields the moments of W_n
and the next iterate. Every command works on these integers directly,
up to the printed report or the float figure.

All values are immutable and all operations are pure functions, so callers
may copy them freely and parallelize over independent polygons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import AreaZeroError, WrongSizeError

# A point (x / w, y / w) of the plane as integers with w != 0.
Homogeneous = tuple[int, int, int]


def same_point(p: Homogeneous, q: Homogeneous) -> bool:
    """Exact equality of two homogeneous points, by cross-multiplication."""
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


@dataclass(frozen=True)
class PlanePoint:
    """A point x + iy of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction


def point(x, y) -> PlanePoint:
    """Build a PlanePoint, coercing ints, strings, or Fractions.

    Floats are rejected: the exact path never converts rounded values
    back to rationals.
    """
    if isinstance(x, float) or isinstance(y, float):
        raise TypeError("exact coordinates cannot be built from floats")
    return PlanePoint(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class Polygon:
    """An ordered vertex list; indices are understood modulo the length.

    Any vertex configuration is legal: no simplicity, convexity, or
    non-degeneracy condition is imposed or checked.
    """

    vertices: tuple[PlanePoint, ...]

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise WrongSizeError("a polygon needs at least one vertex")

    @classmethod
    def from_coords(cls, coords: Iterable[tuple]) -> "Polygon":
        return cls(tuple(point(x, y) for x, y in coords))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, k: int) -> PlanePoint:
        return self.vertices[k]


def midpoint_map(p: Polygon) -> Polygon:
    """The polygon joining the midpoints of consecutive edges.

    Vertex k of the result is the exact average of vertices k and k+1
    (indices mod m). This is a linear map on the space of m-gons.
    """
    scale, xs, ys = to_lattice(p)
    return _from_lattice(2 * scale, lattice_step(xs), lattice_step(ys))


def iterate(p: Polygon, n: int) -> list[Polygon]:
    """Return [p, Mp, M^2 p, ..., M^n p], all exact."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    orbit = lattice_orbit(*to_lattice(p), n)
    next(orbit)  # iterate 0 is p itself
    return [p, *(_from_lattice(w, xs, ys) for w, xs, ys in orbit)]


def signed_area(p: Polygon) -> Fraction:
    """Shoelace signed area (1/2) sum_k (x_k y_{k+1} - x_{k+1} y_k).

    The sign follows orientation; zero is a legal return value. For m <= 2
    the sum is identically zero.
    """
    scale, xs, ys = to_lattice(p)
    a2, *_ = lattice_moments(xs, ys)
    return Fraction(a2, 2 * scale * scale)


def z_moment(p: Polygon) -> PlanePoint:
    """The edge-weighted moment sum_k (v_k + v_{k+1}) * cross(v_k, v_{k+1}).

    Equals six times the signed area times the centroid whenever the area
    is nonzero.
    """
    scale, xs, ys = to_lattice(p)
    _, zx, zy, _, _ = lattice_moments(xs, ys)
    return PlanePoint(Fraction(zx, scale**3), Fraction(zy, scale**3))


def centroid(p: Polygon) -> PlanePoint:
    """The polygon centroid Z / (6 A), exact.

    For simple polygons this is the centroid of the filled region; the
    algebraic definition extends to arbitrary vertex configurations.

    Raises AreaZeroError when the signed area vanishes; batch callers
    should record the iterate as undefined rather than abort.
    """
    g = lattice_centroids(*to_lattice(p), 0)[0]
    if g is None:
        raise AreaZeroError("zero signed area: centroid undefined")
    return from_homogeneous(g)


def project_out_modes_0_3(p: Polygon) -> Polygon:
    """Remove the constant and the alternating-sign mode from a hexagon.

    Both coefficients are rational: the constant mode coefficient is the
    vertex mean and the alternating one is sum_k (-1)^k v_k / 6, since the
    alternating basis hexagon is (1, -1, 1, -1, 1, -1). The result has
    vertex mean zero and alternating sum zero; applying the projection
    twice changes nothing.
    """
    if len(p) != 6:
        raise WrongSizeError(f"projection requires a hexagon, got {len(p)} vertices")
    scale, xs, ys = to_lattice(p)
    return _from_lattice(6 * scale, lattice_projection(xs), lattice_projection(ys))


def to_lattice(p: Polygon) -> tuple[int, list[int], list[int]]:
    """Scale p onto the integer lattice: (L, xs, ys), vertex k being (xs[k], ys[k]) / L.

    L is the least common multiple of all coordinate denominators, so it
    is 1 for an integer polygon.
    """
    scale = math.lcm(*(c.denominator for v in p.vertices for c in (v.x, v.y)))
    xs = [v.x.numerator * (scale // v.x.denominator) for v in p.vertices]
    ys = [v.y.numerator * (scale // v.y.denominator) for v in p.vertices]
    return scale, xs, ys


def lattice_step(values: Sequence[int]) -> list[int]:
    """One coordinate of the midpoint map on the lattice: W[k] + W[k+1], doubling the scale."""
    return [a + b for a, b in zip(values, [*values[1:], *values[:1]])]


def lattice_orbit(
    scale: int, xs: list[int], ys: list[int], n: int
) -> Iterator[tuple[int, list[int], list[int]]]:
    """The iterates 0..n of the polygon (xs, ys) / scale, iterate s as (scale * 2^s, xs_s, ys_s)."""
    yield scale, xs, ys
    for s in range(1, n + 1):
        xs, ys = lattice_step(xs), lattice_step(ys)
        yield scale << s, xs, ys


def lattice_moments(
    xs: Sequence[int], ys: Sequence[int]
) -> tuple[int, int, int, list[int], list[int]]:
    """(A2, Zx, Zy, xs', ys') of an integer polygon of m >= 1 vertices in one shoelace pass.

    A2 is twice the signed area and (Zx, Zy) the moment Z. Z weighs each
    edge's cross product by the sum of its endpoints, W[k] + W[k+1], and
    those sums are the next iterate (xs', ys') = (lattice_step(xs),
    lattice_step(ys)), which the pass returns as well. The loop carries
    each edge's first vertex over from the edge before and closes the
    polygon with the edge (m - 1, 0) after it.
    """
    a2 = zx = zy = 0
    next_xs: list[int] = []
    next_ys: list[int] = []
    x0 = xs[0]
    y0 = ys[0]
    for k in range(1, len(xs)):
        x1 = xs[k]
        y1 = ys[k]
        c = x0 * y1 - x1 * y0
        sx = x0 + x1
        sy = y0 + y1
        a2 += c
        zx += sx * c
        zy += sy * c
        next_xs.append(sx)
        next_ys.append(sy)
        x0 = x1
        y0 = y1
    x1 = xs[0]
    y1 = ys[0]
    c = x0 * y1 - x1 * y0
    sx = x0 + x1
    sy = y0 + y1
    a2 += c
    zx += sx * c
    zy += sy * c
    next_xs.append(sx)
    next_ys.append(sy)
    return a2, zx, zy, next_xs, next_ys


def lattice_centroids(
    scale: int, xs: Sequence[int], ys: Sequence[int], n: int
) -> list[Homogeneous | None]:
    """Homogeneous centroids of the iterates 0..n of the polygon (xs, ys) / scale.

    Iterate s is W_s / (scale * 2^s), so its centroid Z / (6 A) is
    Z(W_s) / (3 * A2(W_s) * scale * 2^s), given as a triple with w > 0;
    None marks a zero-area iterate. Each `lattice_moments` pass also
    yields the next iterate.
    """
    out: list[Homogeneous | None] = []
    for s in range(n + 1):
        a2, zx, zy, xs, ys = lattice_moments(xs, ys)
        if a2 < 0:
            a2, zx, zy = -a2, -zx, -zy
        out.append(None if a2 == 0 else (zx, zy, (3 * a2 * scale) << s))
    return out


def lattice_mean(scale: int, xs: Sequence[int], ys: Sequence[int]) -> Homogeneous:
    """The vertex mean of the polygon (xs, ys) / scale, the limit of its orbit."""
    return (sum(xs), sum(ys), len(xs) * scale)


def lattice_projection(values: Sequence[int]) -> list[int]:
    """One coordinate of six times the mode-0/3 projection of an integer hexagon.

    Entry k is 6 v_k - sum_j v_j - (-1)^k sum_j (-1)^j v_j, an integer.
    """
    total = sum(values)
    alternating = sum(values[0::2]) - sum(values[1::2])
    return [6 * v - total - (alternating if k % 2 == 0 else -alternating)
            for k, v in enumerate(values)]


def _from_lattice(scale: int, xs: Sequence[int], ys: Sequence[int]) -> Polygon:
    """The rational polygon (xs, ys) / scale."""
    return Polygon(tuple(PlanePoint(Fraction(x, scale), Fraction(y, scale)) for x, y in zip(xs, ys)))


def from_homogeneous(h: Homogeneous) -> PlanePoint:
    """The rational point (x / w, y / w) of a homogeneous triple with w != 0."""
    x, y, w = h
    return PlanePoint(Fraction(x, w), Fraction(y, w))


def to_homogeneous(q: PlanePoint) -> Homogeneous:
    """A homogeneous integer triple for the rational point q, with w > 0."""
    return (q.x.numerator * q.y.denominator, q.y.numerator * q.x.denominator,
            q.x.denominator * q.y.denominator)
