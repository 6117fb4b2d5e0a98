"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the centroid oracle
uses a triangle-fan decomposition instead of the shoelace sums, and the
dense mode sums visit every mode where the spectral layer visits only
the nonzero ones.
"""

from fractions import Fraction as F

from midpoly import ModeVector, PlanePoint, Polygon, eigenvalue, root_of_unity


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
        area = (a - v0).cross(b - v0) / 2
        total += area
        sx += area * (v0.x + a.x + b.x) / 3
        sy += area * (v0.y + a.y + b.y) / 3
    assert total != 0
    return PlanePoint(sx / total, sy / total)


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


def dense_area_from_modes(mv: ModeVector) -> float:
    """(m/2) sum_j |xi_j|^2 Im(w^j) over every mode, zero modes included."""
    m = mv.m
    total = 0.0
    for j, c in enumerate(mv.coefficients):
        total += (c.real * c.real + c.imag * c.imag) * root_of_unity(m, j).imag
    return 0.5 * m * total
