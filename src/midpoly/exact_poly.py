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
(Zx / w, Zy / w). Z weighs each edge by the sum of its endpoints, and
those edge sums are W_{n+1}, so one pass takes one midpoint step and
yields the moments of W_n with the next iterate. Every command works on
these integers directly, up to the printed report or the float figure.
Hexagons, the only polygons whose orbits a command walks, take a
straight-line form of that pass.

All values are immutable and all operations are pure functions, so callers
may copy them freely and parallelize over independent polygons.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .errors import AreaZeroError, WrongSizeError
from .record import Record

# A point (x / w, y / w) of the plane as integers with w != 0.
Homogeneous = tuple[int, int, int]


def same_point(p: Homogeneous, q: Homogeneous) -> bool:
    """Exact equality of two homogeneous points, by cross-multiplication."""
    return p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]


class PlanePoint(Record):
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


class _VertexList(Record):
    """A nonempty `vertices` tuple read as that sequence; each subclass annotates `vertices` itself."""

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise WrongSizeError("a polygon needs at least one vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, k: int):
        return self.vertices[k]


class Polygon(_VertexList):
    """An ordered vertex list; indices are understood modulo the length.

    Any vertex configuration is legal: no simplicity, convexity, or
    non-degeneracy condition is imposed or checked.
    """

    vertices: tuple[PlanePoint, ...]

    @classmethod
    def from_coords(cls, coords: Iterable[tuple]) -> "Polygon":
        return cls(tuple(point(x, y) for x, y in coords))


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
    edge's cross product by the sum of its endpoints, W[k] + W[k+1]. Those
    sums are the next iterate (xs', ys'), which the pass takes first with
    `lattice_step`, returns, and reads every cross product off.

    Hexagons, the only polygons whose orbits `verify`, `fuzz`, `figure`
    and the moment-scaling check walk, take a straight-line pass over
    six unpacked vertices instead: the same cross products, edge sums
    and totals, with no loop or list appends.
    """
    if len(xs) == 6:
        x0, x1, x2, x3, x4, x5 = xs
        y0, y1, y2, y3, y4, y5 = ys
        c0 = x0 * y1 - x1 * y0
        c1 = x1 * y2 - x2 * y1
        c2 = x2 * y3 - x3 * y2
        c3 = x3 * y4 - x4 * y3
        c4 = x4 * y5 - x5 * y4
        c5 = x5 * y0 - x0 * y5
        sx0, sx1, sx2, sx3, sx4, sx5 = x0 + x1, x1 + x2, x2 + x3, x3 + x4, x4 + x5, x5 + x0
        sy0, sy1, sy2, sy3, sy4, sy5 = y0 + y1, y1 + y2, y2 + y3, y3 + y4, y4 + y5, y5 + y0
        return (
            c0 + c1 + c2 + c3 + c4 + c5,
            sx0 * c0 + sx1 * c1 + sx2 * c2 + sx3 * c3 + sx4 * c4 + sx5 * c5,
            sy0 * c0 + sy1 * c1 + sy2 * c2 + sy3 * c3 + sy4 * c4 + sy5 * c5,
            [sx0, sx1, sx2, sx3, sx4, sx5],
            [sy0, sy1, sy2, sy3, sy4, sy5],
        )
    next_xs, next_ys = lattice_step(xs), lattice_step(ys)
    a2 = zx = zy = 0
    for x, y, sx, sy in zip(xs, ys, next_xs, next_ys):
        c = x * sy - sx * y  # cross(v_k, v_{k+1}) = cross(v_k, v_k + v_{k+1})
        a2 += c
        zx += sx * c
        zy += sy * c
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
