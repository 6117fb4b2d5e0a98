"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the centroid oracle
uses a triangle-fan decomposition instead of the shoelace sums, the
Fraction loops compute on rationals where `exact_poly` computes on the
integer lattice, the dense mode sums visit every mode where the
spectral layer visits only the nonzero ones, the inverse transform takes
one `cmath.exp` per term where `spectral.decompose` reads one table of
roots, the line verdict tests each point against a Fraction cross
product where `verify` fits the line on integer triples, the slope
distinctness check compares every pair where `verify` compares sorted
neighbours, and the rotated-copy shoelace pass takes each cross product
x_k y_{k+1} - x_{k+1} y_k from both endpoints where
`exact_poly.lattice_moments` reads it off the next iterate, as
cross(v_k, v_k + v_{k+1}). `PlanePoint` and `Polygon` serve only as
containers: every sum, difference and product below is plain `Fraction`
arithmetic on their coordinates. `Poly`, a polynomial ring, is no
oracle but an input: the kernel run on it proves identities for all
polygons.
"""

import cmath
import math
from fractions import Fraction as F
from typing import NamedTuple

from midpoly import AreaZeroError, FloatPolygon, ModeVector, PlanePoint, Polygon, eigenvalue, root_of_unity
from midpoly.verify import SLOPE_DISTINCT_TOL


def sub(a: PlanePoint, b: PlanePoint) -> PlanePoint:
    """The vector a - b."""
    return PlanePoint(a.x - b.x, a.y - b.y)


def cross(a: PlanePoint, b: PlanePoint) -> F:
    return a.x * b.y - a.y * b.x


def dot(a: PlanePoint, b: PlanePoint) -> F:
    return a.x * b.x + a.y * b.y


def linear_combination(a, u: Polygon, b, v: Polygon) -> Polygon:
    """The polygon a u + b v, vertex by vertex."""
    assert len(u) == len(v)
    return Polygon(tuple(PlanePoint(a * p.x + b * q.x, a * p.y + b * q.y) for p, q in zip(u, v)))


def scaled(p: Polygon, s) -> Polygon:
    return Polygon(tuple(PlanePoint(s * v.x, s * v.y) for v in p))


def translated(p: Polygon, c: PlanePoint) -> Polygon:
    return Polygon(tuple(PlanePoint(v.x + c.x, v.y + c.y) for v in p))


def reversed_polygon(p: Polygon) -> Polygon:
    """The same vertices in the opposite order."""
    return Polygon(p.vertices[::-1])


def fan_centroid(p: Polygon) -> PlanePoint:
    """Triangle-fan centroid anchored at vertex 0, in exact rationals.

    Sum of signed triangle areas times triangle centroids over the fan
    (v0, vk, vk+1), divided by the total signed area.
    """
    v0 = p.vertices[0]
    total = F(0)
    sx = F(0)
    sy = F(0)
    for k in range(1, len(p) - 1):
        a = p.vertices[k]
        b = p.vertices[k + 1]
        area = cross(sub(a, v0), sub(b, v0)) / 2
        total += area
        sx += area * (v0.x + a.x + b.x) / 3
        sy += area * (v0.y + a.y + b.y) / 3
    assert total != 0
    return PlanePoint(sx / total, sy / total)


def fraction_midpoint_map(p: Polygon) -> Polygon:
    """Vertex k is (v_k + v_{k+1}) / 2, averaged in Fractions."""
    verts = p.vertices
    half = F(1, 2)
    return Polygon(tuple(PlanePoint((a.x + b.x) * half, (a.y + b.y) * half)
                         for a, b in zip(verts, verts[1:] + verts[:1])))


def fraction_iterate(p: Polygon, n: int) -> list[Polygon]:
    """[p, Mp, ..., M^n p] by repeated Fraction midpoint maps."""
    out = [p]
    for _ in range(n):
        out.append(fraction_midpoint_map(out[-1]))
    return out


def fraction_signed_area(p: Polygon) -> F:
    """Shoelace signed area, accumulated in Fractions."""
    verts = p.vertices
    m = len(verts)
    total = F(0)
    for k in range(m):
        total += cross(verts[k], verts[(k + 1) % m])
    return total / 2


def fraction_z_moment(p: Polygon) -> PlanePoint:
    """sum_k (v_k + v_{k+1}) * cross(v_k, v_{k+1}), accumulated in Fractions."""
    verts = p.vertices
    m = len(verts)
    zx = F(0)
    zy = F(0)
    for k in range(m):
        a = verts[k]
        b = verts[(k + 1) % m]
        c = cross(a, b)
        zx += (a.x + b.x) * c
        zy += (a.y + b.y) * c
    return PlanePoint(zx, zy)


def fraction_centroid(p: Polygon) -> PlanePoint:
    """Z / (6 A) from the Fraction sums; AreaZeroError when A = 0."""
    area = fraction_signed_area(p)
    if area == 0:
        raise AreaZeroError("zero signed area: centroid undefined")
    z = fraction_z_moment(p)
    return PlanePoint(z.x / (6 * area), z.y / (6 * area))


def fraction_centroid_or_none(p: Polygon) -> PlanePoint | None:
    try:
        return fraction_centroid(p)
    except AreaZeroError:
        return None


def fraction_vertex_centroid(p: Polygon) -> PlanePoint:
    """The vertex mean, summed in Fractions."""
    m = len(p)
    return PlanePoint(sum(v.x for v in p) / m, sum(v.y for v in p) / m)


class FractionLineVerdict(NamedTuple):
    first_violation: int | None
    g0_on_line: bool | None
    limit_on_line: bool
    direction: PlanePoint | None
    failure: str | None


def fraction_line_verdict(seq: list[PlanePoint | None], limit: PlanePoint) -> FractionLineVerdict | None:
    """The hexagon theorem's verdict on Fraction centroids G_0 .. G_n and their limit.

    None marks an undefined centroid in seq, and the result is None when
    fewer than two centroids past G_0 are defined. The line is anchored
    at the first defined centroid past G_0 and directed toward the first
    later point that differs from it, the limit included. Membership is
    a Fraction cross product, tested on every point separately.
    """
    defined = [(n, g) for n, g in enumerate(seq) if n >= 1 and g is not None]
    if len(defined) < 2:
        return None
    anchor = defined[0][1]
    candidates = [g for _, g in defined] + [limit]
    direction = next((sub(g, anchor) for g in candidates if g != anchor), None)

    def member(q):
        if direction is None:
            return q == anchor
        return cross(sub(q, anchor), direction) == 0

    violation = next((n for n, g in defined if not member(g)), None)
    limit_on_line = member(limit)
    if violation is not None:
        failure = f"centroids not colinear, first violation at iterate {violation}"
    elif not limit_on_line:
        failure = "vertex centroid off the centroid line"
    else:
        failure = None
    return FractionLineVerdict(
        first_violation=violation,
        g0_on_line=None if seq[0] is None else member(seq[0]),
        limit_on_line=limit_on_line,
        direction=direction,
        failure=failure,
    )


def fraction_project_out_modes_0_3(p: Polygon) -> Polygon:
    """v_k - mean - (-1)^k alt / 6, with alt = sum_k (-1)^k v_k, in Fractions."""
    mean = fraction_vertex_centroid(p)
    ax = F(0)
    ay = F(0)
    for k, v in enumerate(p.vertices):
        sign = 1 if k % 2 == 0 else -1
        ax += sign * v.x
        ay += sign * v.y
    out = []
    for k, v in enumerate(p.vertices):
        sign = 1 if k % 2 == 0 else -1
        out.append(PlanePoint(v.x - mean.x - sign * ax / 6, v.y - mean.y - sign * ay / 6))
    return Polygon(tuple(out))


def dense_z_from_modes(mv: ModeVector) -> complex:
    """The moment Z summed over all m^2 index pairs, zero modes included.

    The full double loop that `spectral.z_from_modes` restricts to the
    support; the sparse sum must equal it bit for bit.
    """
    m = mv.m
    xi = mv.coefficients
    im_omega = [root_of_unity(m, j).imag for j in range(m)]
    total = 0j
    for p in range(m):
        for q in range(m):
            factor = im_omega[p] + im_omega[q]
            if factor == 0.0:
                continue
            total += xi[p] * xi[q].conjugate() * xi[(q - p) % m] * factor
    return m * total


def dense_advance_modes(mv: ModeVector, n: int) -> ModeVector:
    """xi_j -> lambda_j^n xi_j on every mode, zero modes included."""
    m = mv.m
    return ModeVector(tuple(eigenvalue(m, j) ** n * c for j, c in enumerate(mv.coefficients)))


def inverse_dft(mv: ModeVector) -> FloatPolygon:
    """The polygon with modes mv, the inverse of `spectral.decompose`: vertex k is sum_j xi_j w^(jk)."""
    m = mv.m
    return FloatPolygon(tuple(
        sum((c * cmath.exp(2j * math.pi * (j * k % m) / m) for j, c in enumerate(mv.coefficients)), 0j)
        for k in range(m)
    ))


def dense_area_from_modes(mv: ModeVector) -> float:
    """(m/2) sum_j |xi_j|^2 Im(w^j) over every mode, zero modes included."""
    m = mv.m
    total = 0.0
    for j, c in enumerate(mv.coefficients):
        total += (c.real * c.real + c.imag * c.imag) * root_of_unity(m, j).imag
    return 0.5 * m * total


def pairwise_slopes_distinct(slopes: list[float]) -> bool:
    """No pair of slopes within SLOPE_DISTINCT_TOL of the larger magnitude, over all pairs."""
    distinct = True
    for i in range(len(slopes)):
        for j in range(i + 1, len(slopes)):
            gap = abs(slopes[i] - slopes[j])
            if gap <= SLOPE_DISTINCT_TOL * max(1.0, abs(slopes[i]), abs(slopes[j])):
                distinct = False
    return distinct


def rotated_copy_moments(xs: list[int], ys: list[int]) -> tuple[int, int, int, list[int], list[int]]:
    """(A2, Zx, Zy, xs', ys') of an integer polygon, zipping its vertices with rotated copies."""
    a2 = zx = zy = 0
    next_xs: list[int] = []
    next_ys: list[int] = []
    for x0, y0, x1, y1 in zip(xs, ys, [*xs[1:], *xs[:1]], [*ys[1:], *ys[:1]]):
        c = x0 * y1 - x1 * y0
        sx = x0 + x1
        sy = y0 + y1
        a2 += c
        zx += sx * c
        zy += sy * c
        next_xs.append(sx)
        next_ys.append(sy)
    return a2, zx, zy, next_xs, next_ys


class Poly:
    """An element of the integer polynomial ring Z[x0, y0, x1, ...], stdlib only.

    A dict from monomials to nonzero int coefficients; a monomial is the
    sorted tuple of its variable names, one entry per degree. It has the
    `+`, `-`, `*` and `sum` that the lattice kernel uses on ints, so the
    shipped `lattice_projection` and `lattice_moments` run on it
    unchanged and prove an identity for every polygon at once.
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: dict[tuple[str, ...], int]):
        self.terms = {mono: c for mono, c in terms.items() if c}

    @classmethod
    def variables(cls, prefix: str, m: int) -> list["Poly"]:
        """[prefix0, prefix1, ..., prefix(m-1)] as degree-one polynomials."""
        return [cls({(f"{prefix}{k}",): 1}) for k in range(m)]

    @staticmethod
    def lift(value) -> "Poly":
        return value if isinstance(value, Poly) else Poly({(): value})

    def __add__(self, other) -> "Poly":
        terms = dict(self.terms)
        for mono, c in Poly.lift(other).terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + -Poly.lift(other)

    def __mul__(self, other) -> "Poly":
        factor = Poly.lift(other).terms
        terms: dict[tuple[str, ...], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in factor.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return self.terms == Poly.lift(other).terms


def scalar_ratio(a: Poly, b: Poly) -> F | None:
    """The rational c with a = c * b identically, or None when no scalar works; b must be nonzero."""
    mono, coefficient = next(iter(b.terms.items()))
    c = F(a.terms.get(mono, 0), coefficient)
    return c if a * c.denominator == b * c.numerator else None
