"""Discrete Fourier analysis of polygons in double precision.

A polygon v in C^m decomposes over the basis polygons e(j) whose k-th
vertex is w^(jk), w = exp(2*pi*i/m). These are exactly the oriented
regular (possibly degenerate) m-gons and they are eigenvectors of the
midpoint map with eigenvalues (1 + w^j) / 2, which makes the iteration
diagonal in mode coordinates: coefficient j just picks up a factor of
the eigenvalue per step.

The transform is computed by direct O(m^2) summation from one table of
the m roots, where simplicity and accuracy beat speed. Work in mode
coordinates touches only a mode vector's support, the ascending indices
of its nonzero coefficients, which the vector carries: the midpoint map
keeps a zero mode zero, so an orbit keeps its support. One table per
support holds each live mode's root, eigenvalue and surviving moment
triples, and every mode sum reads it. For k nonzero modes
`area_from_modes` costs O(k), `z_from_modes` O(k^2) and `advance_modes`
O(k + m), since it returns a dense vector; `orbit_moments` builds the
table once for a whole orbit and never touches the m coefficients
again, so a step of the witness m-gon costs the same at any m.
Skipping a zero term leaves every sum bit-identical to the dense one,
given finite coefficients whose products do not overflow. Conversion
from the exact representation is explicit and one way: nothing in this
package converts floats back to rationals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

from .errors import DegenerateDenominatorError, PolygonDocumentError, WrongSizeError
from .exact_poly import Homogeneous, Polygon, to_homogeneous

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class FloatPolygon:
    """Float mirror of a polygon: vertices as complex numbers."""

    vertices: tuple[complex, ...]

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise WrongSizeError("a polygon needs at least one vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, k: int) -> complex:
        return self.vertices[k]


@dataclass(frozen=True)
class ModeVector:
    """Mode coefficients xi_0 .. xi_{m-1} of an m-gon.

    support holds the ascending indices of the nonzero coefficients. It is
    derived from the coefficients and takes no part in equality, hashing
    or repr.
    """

    coefficients: tuple[complex, ...]
    support: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coefficients) < 1:
            raise WrongSizeError("a mode vector needs at least one coefficient")
        support = tuple(compress(range(len(self.coefficients)), self.coefficients))
        object.__setattr__(self, "support", support)

    @property
    def m(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, j: int) -> complex:
        return self.coefficients[j]


def to_float_points(points: Iterable[Homogeneous]) -> FloatPolygon:
    """The exact points (x / w, y / w) as floats: the only exact-to-float conversion.

    Each coordinate is one int true division, which rounds correctly, so
    it equals float(Fraction(x, w)) whether or not x / w is reduced. A
    coordinate beyond the double range raises PolygonDocumentError.
    """
    try:
        return FloatPolygon(tuple(complex(x / w, y / w) for x, y, w in points))
    except OverflowError:
        raise PolygonDocumentError("coordinate out of float range") from None


def to_float_polygon(p: Polygon) -> FloatPolygon:
    """Explicit one-way conversion from the exact representation, by `to_float_points`."""
    return to_float_points(map(to_homogeneous, p.vertices))


def root_of_unity(m: int, j: int) -> complex:
    """exp(2*pi*i*j/m); the index is reduced mod m first."""
    if m < 1:
        raise WrongSizeError("m must be at least 1")
    return cmath.exp(2j * math.pi * (j % m) / m)


def eigenvalue(m: int, j: int) -> complex:
    """Midpoint-map eigenvalue (1 + w^j) / 2 for mode j of an m-gon."""
    return (1.0 + root_of_unity(m, j)) / 2.0


def mode_basis(m: int, j: int) -> FloatPolygon:
    """The basis m-gon whose k-th vertex is w^(jk)."""
    if m < 1:
        raise WrongSizeError("m must be at least 1")
    return FloatPolygon(tuple(root_of_unity(m, j * k) for k in range(m)))


def midpoint_map(p: FloatPolygon) -> FloatPolygon:
    """Float counterpart of the exact midpoint map."""
    verts = p.vertices
    m = len(verts)
    return FloatPolygon(tuple(0.5 * (verts[k] + verts[(k + 1) % m]) for k in range(m)))


def decompose(p: FloatPolygon) -> ModeVector:
    """Mode coefficients xi_j = (1/m) sum_k v_k w^(-jk), from one table of the m roots."""
    m = len(p.vertices)
    roots = [root_of_unity(m, r) for r in range(m)]
    coeffs = []
    for j in range(m):
        acc = 0j
        for k, v in enumerate(p.vertices):
            acc += v * roots[-j * k % m]
        coeffs.append(acc / m)
    return ModeVector(tuple(coeffs))


class _ModeTable:
    """The per-run constants of the mode sums over one support of an m-gon.

    Built once from (m, support) with one root_of_unity call per live mode:
    each mode's eigenvalue (1 + w^j) / 2 and Im w^j, and, on first use, the
    triples of z_from_modes. Coefficients are passed as the live list,
    aligned with the support; no method builds a dense m-tuple.
    """

    def __init__(self, m: int, support: tuple[int, ...]):
        roots = [root_of_unity(m, j) for j in support]
        self.m = m
        self.support = support
        self.eigenvalues = [(1.0 + w) / 2.0 for w in roots]
        self.im_omega = [w.imag for w in roots]

    @cached_property
    def triples(self) -> list[tuple[int, int, int, float]]:
        """(p, q, (q - p) mod m, Im w^p + Im w^q) as support positions, ascending in (p, q).

        Only triples whose three modes are live and whose factor is nonzero.
        """
        position = {j: a for a, j in enumerate(self.support)}
        out = []
        for a, p in enumerate(self.support):
            for b, q in enumerate(self.support):
                c = position.get((q - p) % self.m)
                factor = self.im_omega[a] + self.im_omega[b]
                if factor != 0.0 and c is not None:
                    out.append((a, b, c, factor))
        return out

    def advance(self, live: list[complex], n: int) -> list[complex]:
        """The live coefficients after n steps: lambda_j^n xi_j."""
        return [lam**n * c for lam, c in zip(self.eigenvalues, live)]

    def z(self, live: list[complex]) -> complex:
        total = 0j
        for a, b, c, factor in self.triples:
            total += live[a] * live[b].conjugate() * live[c] * factor
        return self.m * total

    def area(self, live: list[complex]) -> float:
        total = 0.0
        for c, im in zip(live, self.im_omega):
            total += (c.real * c.real + c.imag * c.imag) * im
        return 0.5 * self.m * total


def _live(mv: ModeVector) -> list[complex]:
    xi = mv.coefficients
    return [xi[j] for j in mv.support]


def advance_modes(mv: ModeVector, n: int) -> ModeVector:
    """Apply n midpoint steps in mode coordinates: xi_j -> lambda_j^n xi_j.

    Zero coefficients pass through unchanged, so eigenvalues are computed
    for the support only: O(k) for k nonzero modes. The returned dense
    vector rescans its m coefficients for its support, which is the old
    one less any mode whose coefficient underflows to zero.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    coeffs = list(mv.coefficients)
    for j, c in zip(mv.support, _ModeTable(mv.m, mv.support).advance(_live(mv), n)):
        coeffs[j] = c
    return ModeVector(tuple(coeffs))


def z_from_modes(mv: ModeVector) -> complex:
    """The moment Z in mode coordinates.

    Evaluates m * sum_{p,q} xi_p * conj(xi_q) * xi_{q-p} * Im(w^p + w^q)
    with the index q - p taken mod m. Agrees with the exact shoelace
    moment of the polygon whose modes these are.

    Only triples whose three indices p, q and q - p all lie in the
    support (nonzero coefficients) are summed, in ascending (p, q) order:
    O(k^2) for k nonzero modes, and bit-identical to the full m^2 sum
    for finite coefficients whose products do not overflow.
    """
    return _ModeTable(mv.m, mv.support).z(_live(mv))


def area_from_modes(mv: ModeVector) -> float:
    """Signed area in mode coordinates: (m/2) sum_j |xi_j|^2 Im(w^j).

    Only the diagonal terms of the quadratic expansion survive the sum
    over vertices. For hexagons this reads
    (3*sqrt(3)/2) * (|xi_1|^2 - |xi_5|^2 + |xi_2|^2 - |xi_4|^2).
    Only the support is visited, O(k) for k nonzero modes; coefficients
    are assumed finite.
    """
    return _ModeTable(mv.m, mv.support).area(_live(mv))


def orbit_moments(mv: ModeVector, n: int) -> Iterator[tuple[complex, float]]:
    """(Z, signed area) of the midpoint iterates 0 .. n of mv, from one mode table.

    Iterate s has the live coefficients lambda_j^s xi_j, computed as
    advance_modes(mv, s) computes them, so each pair equals the sums of
    advance_modes(mv, s) bit for bit. A coefficient that underflows to
    zero adds only zero terms, as if its mode were dropped for that step;
    it stays in the table, since for a tiny xi_j a later lambda_j^s xi_j
    can round to nonzero again. For k nonzero modes a run makes k
    root_of_unity calls, and a step costs O(k) plus the surviving triples.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    table = _ModeTable(mv.m, mv.support)
    xi = _live(mv)
    for s in range(n + 1):
        live = table.advance(xi, s)
        yield table.z(live), table.area(live)


def closed_form_centroid(mv: ModeVector, n: int) -> complex:
    """Centroid of the n-th midpoint iterate of a hexagon, in closed form.

    Requires a hexagon mode vector with (numerically) vanishing constant
    and alternating modes. With d1 = |xi_1|^2 - |xi_5|^2 and
    d2 = |xi_2|^2 - |xi_4|^2, the centroid of the n-th iterate is

        2^(-n) * Z / (9*sqrt(3) * (d1 + 3^(-n) * d2))

    a real multiple of the moment Z for every n, so the whole orbit lies
    on one line through the origin.

    Raises DegenerateDenominatorError when the bracketed real factor is
    zero (the n-th iterate has zero area).
    """
    if mv.m != 6:
        raise WrongSizeError("closed form applies to hexagons only")
    if n < 0:
        raise ValueError("step count must be nonnegative")
    if abs(mv[0]) > 1e-12 or abs(mv[3]) > 1e-12:
        raise ValueError("modes 0 and 3 must be projected out first")
    d1 = abs(mv[1]) ** 2 - abs(mv[5]) ** 2
    d2 = abs(mv[2]) ** 2 - abs(mv[4]) ** 2
    denom = d1 + 3.0 ** (-n) * d2
    if denom == 0.0:
        raise DegenerateDenominatorError(f"iterate {n} has zero area")
    return 0.5**n * z_from_modes(mv) / (9.0 * _SQRT3 * denom)

