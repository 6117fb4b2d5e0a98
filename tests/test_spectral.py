"""Mode analysis: roots, eigenvalues, transforms, and moment formulas."""

import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midpoly import (
    DegenerateDenominatorError,
    ModeVector,
    Polygon,
    WrongSizeError,
    advance_modes,
    area_from_modes,
    closed_form_centroid,
    decompose,
    eigenvalue,
    mode_basis,
    root_of_unity,
    signed_area,
    to_float_polygon,
    z_from_modes,
    z_moment,
)
from midpoly import spectral, verify
from midpoly.spectral import orbit_moments
from oracles import dense_advance_modes, dense_area_from_modes, dense_z_from_modes, inverse_dft

SQRT3 = math.sqrt(3.0)


def dyadic_hexagon(rng: random.Random) -> Polygon:
    """Random hexagon with coordinates k/16 in [-10, 10], exactly float-representable."""
    return Polygon.from_coords(
        [(F(rng.randint(-160, 160), 16), F(rng.randint(-160, 160), 16)) for _ in range(6)]
    )


float_coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# zero coefficients, signed zeros included, mixed with bounded nonzero ones
sparse_coefficients = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]),
    st.builds(complex, float_coords, float_coords),
)


def sparse_mode_vectors(min_m: int = 3, max_m: int = 40):
    return st.integers(min_value=min_m, max_value=max_m).flatmap(
        lambda m: st.lists(sparse_coefficients, min_size=m, max_size=m).map(
            lambda xi: ModeVector(tuple(xi))
        )
    )


def float_polygons(max_m: int = 16):
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: st.lists(
            st.tuples(float_coords, float_coords), min_size=m, max_size=m
        ).map(lambda pts: spectral.FloatPolygon(tuple(complex(x, y) for x, y in pts)))
    )


class TestRootsAndEigenvalues:
    def test_unity(self):
        assert root_of_unity(6, 0) == 1 + 0j

    def test_half_turn(self):
        assert abs(root_of_unity(6, 3) - (-1 + 0j)) < 1e-15

    def test_sixth_root(self):
        assert abs(root_of_unity(6, 1) - complex(0.5, 0.8660254037844386)) < 1e-15

    def test_index_reduced_mod_m(self):
        assert abs(root_of_unity(6, 7) - root_of_unity(6, 1)) < 1e-15
        assert abs(root_of_unity(6, -1) - root_of_unity(6, 5)) < 1e-15

    def test_unit_modulus(self):
        for m in range(1, 65):
            for j in range(m):
                assert abs(abs(root_of_unity(m, j)) - 1.0) <= 1e-15

    def test_hexagon_eigenvalues(self):
        assert eigenvalue(6, 0) == 1 + 0j
        assert abs(eigenvalue(6, 3)) <= 1e-15
        assert abs(abs(eigenvalue(6, 1)) - SQRT3 / 2) <= 1e-15
        assert abs(abs(eigenvalue(6, 5)) - SQRT3 / 2) <= 1e-15
        assert abs(abs(eigenvalue(6, 2)) - 0.5) <= 1e-15
        assert abs(abs(eigenvalue(6, 4)) - 0.5) <= 1e-15


class TestModeBasis:
    def test_constant_mode(self):
        assert mode_basis(6, 0).vertices == (1 + 0j,) * 6

    def test_alternating_mode(self):
        e3 = mode_basis(6, 3)
        expected = [1, -1, 1, -1, 1, -1]
        assert all(abs(v - w) < 1e-15 for v, w in zip(e3, expected))

    def test_square_mode(self):
        e1 = mode_basis(4, 1)
        expected = [1, 1j, -1, -1j]
        assert all(abs(v - w) < 1e-15 for v, w in zip(e1, expected))

    def test_eigen_relation_all_sizes(self):
        for m in range(1, 65):
            for j in range(m):
                e = mode_basis(m, j)
                lam = eigenvalue(m, j)
                mapped = spectral.midpoint_map(e)
                dev = max(abs(a - lam * b) for a, b in zip(mapped, e))
                assert dev <= 1e-12, (m, j, dev)


class TestTransform:
    def test_basis_is_orthogonal(self):
        mv = decompose(mode_basis(6, 1))
        assert abs(mv[1] - 1.0) <= 1e-12
        assert all(abs(mv[j]) <= 1e-12 for j in range(6) if j != 1)

    def test_constant_polygon(self):
        c = 2.5 - 1.25j
        mv = decompose(spectral.FloatPolygon((c,) * 6))
        assert abs(mv[0] - c) <= 1e-12
        assert all(abs(mv[j]) <= 1e-12 for j in range(1, 6))

    def test_reconstruct_constant(self):
        mv = ModeVector((3 + 4j, 0j, 0j, 0j, 0j, 0j))
        p = inverse_dft(mv)
        assert all(abs(v - (3 + 4j)) <= 1e-12 for v in p)
        assert max(abs(a - b) for a, b in zip(decompose(p).coefficients, mv.coefficients)) <= 1e-12

    def test_reconstruct_regular_hexagon(self):
        mv = ModeVector((0j, 1 + 0j, 0j, 0j, 0j, 0j))
        hexa = inverse_dft(mv)
        for k, v in enumerate(hexa):
            assert abs(v - root_of_unity(6, k)) <= 1e-12
        assert max(abs(a - b) for a, b in zip(decompose(hexa).coefficients, mv.coefficients)) <= 1e-12

    def test_one_root_table_per_transform(self, monkeypatch):
        m = 64
        rng = random.Random(5)
        p = spectral.FloatPolygon(tuple(complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(m)))
        # the per-term formula, one cmath.exp per term
        w = lambda r: cmath.exp(2j * math.pi * (r % m) / m)
        coeffs = [sum((v * w(-j * k) for k, v in enumerate(p.vertices)), 0j) / m for j in range(m)]

        calls = []
        exp = cmath.exp
        monkeypatch.setattr(cmath, "exp", lambda z: calls.append(z) or exp(z))
        got = decompose(p)
        assert len(calls) <= m
        assert got.coefficients == tuple(coeffs)

    @settings(max_examples=60, deadline=None)
    @given(float_polygons(max_m=64))
    def test_round_trip(self, p):
        back = inverse_dft(decompose(p))
        assert max(abs(a - b) for a, b in zip(back, p)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(float_polygons(max_m=24))
    def test_coefficient_round_trip(self, p):
        mv = decompose(p)
        again = decompose(inverse_dft(mv))
        assert max(abs(a - b) for a, b in zip(again.coefficients, mv.coefficients)) <= 1e-12


class TestAdvanceModes:
    def test_zero_steps_is_identity(self):
        mv = ModeVector((1 + 2j, -1j, 0.5 + 0j, 2 + 0j, 0j, 1 + 1j))
        assert advance_modes(mv, 0) == mv

    def test_alternating_mode_dies_in_one_step(self):
        mv = ModeVector((0j, 0j, 0j, 2 + 3j, 0j, 0j))
        advanced = advance_modes(mv, 1)
        assert abs(advanced[3]) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(float_polygons(max_m=16))
    def test_matches_float_midpoint_map(self, p):
        via_modes = advance_modes(decompose(p), 1).coefficients
        direct = decompose(spectral.midpoint_map(p)).coefficients
        assert max(abs(a - b) for a, b in zip(via_modes, direct)) <= 1e-12


class TestMomentFormulas:
    def test_zero_modes(self):
        assert z_from_modes(ModeVector((0j,) * 6)) == 0

    def test_two_mode_hexagon(self):
        mv = ModeVector((0j, 1 + 0j, 1 + 0j, 0j, 0j, 0j))
        assert abs(z_from_modes(mv) - 6 * SQRT3) <= 1e-12

    def test_reduced_hexagon_collapses_to_four_terms(self):
        # With modes 0 and 3 removed, only (p, q) in {(1,2),(2,1),(4,5),(5,4)}
        # survive the double sum; the factor Im(w^p + w^q) is +sqrt(3) on the
        # first pair and -sqrt(3) on the second (validated against the exact
        # shoelace oracle in test_moment_oracle_equivalence).
        rng = random.Random(2024)
        for _ in range(25):
            xi = [0j] + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
            xi += [0j] + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
            mv = ModeVector(tuple(xi))
            explicit = 6 * SQRT3 * (
                xi[1] * xi[2].conjugate() * xi[1]
                - xi[5] * xi[4].conjugate() * xi[5]
                + xi[2] * xi[1].conjugate() * xi[5]
                - xi[4] * xi[5].conjugate() * xi[1]
            )
            assert abs(z_from_modes(mv) - explicit) <= 1e-9 * max(1.0, abs(explicit))

    def test_moment_oracle_equivalence(self):
        rng = random.Random(404)
        for _ in range(60):
            p = dyadic_hexagon(rng)
            mv = decompose(to_float_polygon(p))
            ze = z_moment(p)
            exact = complex(float(ze.x), float(ze.y))
            approx = z_from_modes(mv)
            assert abs(approx - exact) <= max(1e-12, 1e-9 * max(abs(exact), abs(approx)))

    def test_regular_hexagon_area(self):
        mv = ModeVector((0j, 1 + 0j, 0j, 0j, 0j, 0j))
        assert abs(area_from_modes(mv) - 3 * SQRT3 / 2) <= 1e-12

    def test_conjugate_modes_cancel(self):
        mv = ModeVector((0j, 1 + 0j, 0j, 0j, 0j, 1 + 0j))
        assert abs(area_from_modes(mv)) <= 1e-12

    def test_area_oracle_equivalence(self):
        rng = random.Random(505)
        for _ in range(60):
            p = dyadic_hexagon(rng)
            mv = decompose(to_float_polygon(p))
            exact = float(signed_area(p))
            approx = area_from_modes(mv)
            assert abs(approx - exact) <= max(1e-12, 1e-9 * max(abs(exact), abs(approx)))

    def test_one_step_scales_moment_by_three_eighths(self):
        rng = random.Random(606)
        for _ in range(40):
            xi = [0j] * 6
            for j in (1, 2, 4, 5):
                xi[j] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            mv = ModeVector(tuple(xi))
            z0 = z_from_modes(mv)
            z1 = z_from_modes(advance_modes(mv, 1))
            assert abs(z1 - 0.375 * z0) <= 1e-12 * max(1.0, abs(z0))


class TestClosedFormCentroid:
    def test_step_zero(self):
        mv = ModeVector((0j, 1 + 0j, 1 + 0j, 0j, 0j, 0j))
        g = closed_form_centroid(mv, 0)
        assert abs(g - (1.0 / 3.0)) <= 1e-12

    def test_step_one(self):
        mv = ModeVector((0j, 1 + 0j, 1 + 0j, 0j, 0j, 0j))
        g = closed_form_centroid(mv, 1)
        assert abs(g - 0.25) <= 1e-12

    def test_real_multiple_of_moment(self):
        rng = random.Random(707)
        for _ in range(30):
            xi = [0j] * 6
            for j in (1, 2, 4, 5):
                xi[j] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            mv = ModeVector(tuple(xi))
            z = z_from_modes(mv)
            if abs(z) < 1e-9:
                continue
            for n in (0, 1, 2, 5):
                try:
                    g = closed_form_centroid(mv, n)
                except DegenerateDenominatorError:
                    continue
                ratio = g / z
                assert abs(ratio.imag) <= 1e-12 * max(1.0, abs(ratio.real))

    def test_degenerate_denominator(self):
        # equal-weight conjugate pairs: both imbalances vanish
        mv = ModeVector((0j, 1 + 0j, 1 + 0j, 0j, 1 + 0j, 1 + 0j))
        with pytest.raises(DegenerateDenominatorError):
            closed_form_centroid(mv, 0)

    def test_preconditions(self):
        with pytest.raises(WrongSizeError):
            closed_form_centroid(ModeVector((0j,) * 5), 0)
        with pytest.raises(ValueError):
            closed_form_centroid(ModeVector((1 + 0j, 1 + 0j, 0j, 0j, 0j, 0j)), 0)


def triple_product(m: int, p: int, q: int) -> complex:
    """The eigenvalue product lambda_p * conj(lambda_q) * lambda_{q-p} that z_from_modes scales by."""
    return eigenvalue(m, p) * eigenvalue(m, q).conjugate() * eigenvalue(m, q - p)


class TestTripleProduct:
    """The products are real, (1/4) Re(1 + w^p + w^q + w^(q-p))."""

    def test_hexagon_surviving_terms(self):
        for p, q in ((1, 2), (5, 4), (4, 5), (2, 1)):
            assert abs(triple_product(6, p, q) - 0.375) <= 1e-15

    def test_diagonal_is_squared_modulus(self):
        for m in (3, 5, 6, 8, 12):
            for p in range(m):
                expected = (1.0 + math.cos(2 * math.pi * p / m)) / 2.0
                assert abs(triple_product(m, p, p) - expected) <= 1e-14

    def test_matches_direct_eigenvalue_product(self):
        for m in (5, 6, 7, 9, 12):
            for p in range(m):
                for q in range(m):
                    product = triple_product(m, p, q)
                    cosines = (math.cos(2 * math.pi * r / m) for r in (p, q, q - p))
                    assert abs(product.imag) <= 1e-12
                    assert abs(product.real - (1.0 + sum(cosines)) / 4.0) <= 1e-12

    def test_slope_ratio_identity(self):
        # ratio of the mixed to the leading product is 2 cos(2 pi / m) - 1, as proposition checks
        for m in (5, 7, 8, 9, 10, 11, 12):
            mu = triple_product(m, 1, 2).real
            nu = triple_product(m, 1, 3).real
            assert abs(nu / mu - (2 * math.cos(2 * math.pi / m) - 1)) <= 1e-12


class TestSparseSupport:
    """The mode sums visit only nonzero modes and match the dense sums bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_mode_vectors(), st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4))
    def test_matches_dense_sums(self, mv, steps):
        # each advance starts from the support the previous one carried
        advanced, dense = mv, mv
        assert z_from_modes(mv) == dense_z_from_modes(mv)
        assert area_from_modes(mv) == dense_area_from_modes(mv)
        for n in steps:
            advanced = advance_modes(advanced, n)
            dense = dense_advance_modes(dense, n)
            assert advanced == dense
            assert z_from_modes(advanced) == dense_z_from_modes(dense)
            assert area_from_modes(advanced) == dense_area_from_modes(dense)

    @settings(max_examples=300, deadline=None)
    @given(sparse_mode_vectors(), st.integers(min_value=0, max_value=300))
    def test_support_is_nonzero_indices(self, mv, n):
        # signed zeros are zero; the carried support equals a fresh scan
        for v in (mv, advance_modes(mv, n)):
            assert v.support == tuple(j for j, c in enumerate(v.coefficients) if c != 0)

    def test_underflow_leaves_support(self):
        mv = ModeVector((0j, 0j, 0j, 1 + 0j, 0j, 0j))
        # lambda_3 = 6.1e-17j: subnormal after 19 steps, zero after 20
        assert advance_modes(mv, 19).support == (3,)
        assert advance_modes(mv, 19)[3] != 0
        assert advance_modes(mv, 20).support == ()
        assert advance_modes(advance_modes(mv, 10), 10).support == ()
        assert z_from_modes(advance_modes(mv, 20)) == 0j

    def test_support_outside_equality_hash_and_repr(self):
        mv = ModeVector((0j, 1j, complex(-0.0, 0.0)))
        assert mv.support == (1,)
        same = advance_modes(mv, 0)
        assert same == mv and hash(same) == hash(mv)
        assert repr(mv) == "ModeVector(coefficients=(0j, 1j, (-0+0j)))"

    def test_zero_modes_pass_through(self):
        # signed zeros included: a zero mode is returned as it came in
        mv = ModeVector((0j, complex(-0.0, 0.0), 1 + 1j, complex(0.0, -0.0)))
        advanced = advance_modes(mv, 5)
        zeros = (0, 1, 3)
        assert [repr(advanced[j]) for j in zeros] == [repr(mv[j]) for j in zeros]

    def test_roots_only_on_support(self, monkeypatch):
        m = 64
        mv = verify.counterexample_modes(m)  # modes 1, 2 and 3 are live
        expected = (dense_z_from_modes(mv), dense_area_from_modes(mv), dense_advance_modes(mv, 10))
        calls = []
        exp = cmath.exp
        monkeypatch.setattr(cmath, "exp", lambda z: calls.append(z) or exp(z))
        assert (z_from_modes(mv), area_from_modes(mv), advance_modes(mv, 10)) == expected
        assert len(calls) == 9

    @settings(max_examples=100, deadline=None)
    @given(sparse_mode_vectors(), st.integers(min_value=0, max_value=40))
    # lambda_3 = 6.1e-17j: the support shrinks by underflow at step 20
    @example(ModeVector((0j, 0j, 0j, 1 + 0j, 0j, 0j)), 25)
    # lambda_1^16 xi_1 rounds to zero and lambda_1^17 xi_1 does not, so the
    # mode is still summed at step 17, through the triple (1, 3, 2)
    @example(ModeVector((0j, 5e-324 + 0j, 1e150 + 0j, 1e150j) + (0j,) * 8), 20)
    def test_orbit_moments_match_dense_sums(self, mv, n):
        moments = list(orbit_moments(mv, n))
        assert len(moments) == n + 1
        for s, (z, area) in enumerate(moments):
            dense = dense_advance_modes(mv, s)
            assert z == dense_z_from_modes(dense)
            assert area == dense_area_from_modes(dense)

    def test_one_root_per_live_mode_per_run(self, monkeypatch):
        calls = []
        exp = cmath.exp
        monkeypatch.setattr(cmath, "exp", lambda z: calls.append(z) or exp(z))
        verify.verify_proposition(64, 10)  # the witness has live modes 1, 2 and 3
        assert len(calls) == 3
