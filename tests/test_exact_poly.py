"""Exact polygon arithmetic: worked examples and algebraic invariants."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midpoly import (
    AreaZeroError,
    PlanePoint,
    Polygon,
    WrongSizeError,
    centroid,
    iterate,
    midpoint_map,
    point,
    project_out_modes_0_3,
    signed_area,
    z_moment,
)

from midpoly.exact_poly import (
    from_homogeneous,
    lattice_mean,
    lattice_moments,
    lattice_projection,
    lattice_step,
    to_lattice,
)

from oracles import (
    Poly,
    fan_centroid,
    linear_combination,
    fraction_centroid,
    fraction_iterate,
    fraction_midpoint_map,
    fraction_project_out_modes_0_3,
    fraction_signed_area,
    fraction_vertex_centroid,
    fraction_z_moment,
    reversed_polygon,
    rotated_copy_moments,
    scalar_ratio,
    scaled,
    translated,
)

UNIT_SQUARE = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
L_HEXAGON = Polygon.from_coords([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
CONSTANT_HEX = Polygon.from_coords([(1, 1)] * 6)


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
nonzero_rationals = rationals.filter(lambda r: r != 0)


# Up to the size of a 200-step iterate's integers, about 2.6 bits a step.
integer_coordinates = st.integers(1, 12).flatmap(
    lambda m: st.tuples(*[st.lists(st.integers(-2**600, 2**600), min_size=m, max_size=m)] * 2)
)


hexagon_coordinates = st.tuples(*[st.lists(st.integers(-2**600, 2**600), min_size=6, max_size=6)] * 2)


def polygon_strategy(m: int):
    return st.lists(
        st.tuples(rationals, rationals), min_size=m, max_size=m
    ).map(Polygon.from_coords)


hexagons = polygon_strategy(6)


def test_floats_cannot_enter_the_exact_path():
    with pytest.raises(TypeError):
        point(0.5, 1)
    with pytest.raises(TypeError):
        Polygon.from_coords([(0.5, 1), (1, 2), (3, 4)])


class TestMidpointMap:
    def test_constant_hexagon_is_fixed(self):
        assert midpoint_map(CONSTANT_HEX) == CONSTANT_HEX

    def test_square(self):
        sq = Polygon.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert midpoint_map(sq) == Polygon.from_coords([(1, 0), (2, 1), (1, 2), (0, 1)])

    def test_l_hexagon(self):
        expected = Polygon.from_coords(
            [(1, 0), (2, F(1, 2)), (F(3, 2), 1), (1, F(3, 2)), (F(1, 2), 2), (0, 1)]
        )
        assert midpoint_map(L_HEXAGON) == expected

    @settings(max_examples=50, deadline=None)
    @given(hexagons, hexagons, rationals, rationals)
    def test_linearity(self, u, v, a, b):
        combo = linear_combination(a, u, b, v)
        lhs = midpoint_map(combo)
        rhs = linear_combination(a, midpoint_map(u), b, midpoint_map(v))
        assert lhs == rhs


class TestIterate:
    def test_zero_steps(self):
        assert iterate(L_HEXAGON, 0) == [L_HEXAGON]

    def test_constant_fixed_point(self):
        chain = iterate(CONSTANT_HEX, 5)
        assert len(chain) == 6
        assert all(q == CONSTANT_HEX for q in chain)

    def test_square_twice(self):
        sq = Polygon.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
        expected = Polygon.from_coords(
            [(F(3, 2), F(1, 2)), (F(3, 2), F(3, 2)), (F(1, 2), F(3, 2)), (F(1, 2), F(1, 2))]
        )
        assert iterate(sq, 2)[2] == expected

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate(UNIT_SQUARE, -1)


class TestSignedArea:
    def test_unit_square(self):
        assert signed_area(UNIT_SQUARE) == 1

    def test_reversed_square(self):
        assert signed_area(reversed_polygon(UNIT_SQUARE)) == -1

    def test_l_hexagon(self):
        assert signed_area(L_HEXAGON) == 3

    def test_tiny_polygons_are_flat(self):
        assert signed_area(Polygon.from_coords([(3, 5)])) == 0
        assert signed_area(Polygon.from_coords([(0, 0), (4, 7)])) == 0


class TestZMoment:
    def test_unit_square(self):
        assert z_moment(UNIT_SQUARE) == point(3, 3)

    def test_constant_polygon(self):
        assert z_moment(CONSTANT_HEX) == point(0, 0)

    def test_l_hexagon_matches_centroid(self):
        z = z_moment(L_HEXAGON)
        assert PlanePoint(z.x / 18, z.y / 18) == point(F(5, 6), F(5, 6))


class TestCentroid:
    def test_unit_square(self):
        assert centroid(UNIT_SQUARE) == point(F(1, 2), F(1, 2))

    def test_l_hexagon(self):
        assert centroid(L_HEXAGON) == point(F(5, 6), F(5, 6))

    def test_degenerate_hexagon(self):
        flat = Polygon.from_coords([(k, k) for k in range(6)])
        with pytest.raises(AreaZeroError):
            centroid(flat)

    def test_l_hexagon_matches_fan_oracle(self):
        assert centroid(L_HEXAGON) == fan_centroid(L_HEXAGON)

    @settings(max_examples=60, deadline=None)
    @given(hexagons)
    def test_fan_oracle_equivalence(self, p):
        if signed_area(p) == 0:
            return
        assert centroid(p) == fan_centroid(p)


def vertex_centroid(p: Polygon) -> PlanePoint:
    """The vertex mean on the lattice route, the orbit limit that `verify` reports."""
    return from_homogeneous(lattice_mean(*to_lattice(p)))


class TestVertexCentroid:
    def test_integer_hexagon(self):
        p = Polygon.from_coords([(1, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)])
        assert vertex_centroid(p) == point(F(-1, 6), 0) == fraction_vertex_centroid(p)

    def test_constant(self):
        assert vertex_centroid(CONSTANT_HEX) == point(1, 1) == fraction_vertex_centroid(CONSTANT_HEX)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12).flatmap(polygon_strategy))
    def test_conserved_by_midpoint_map(self, p):
        assert vertex_centroid(midpoint_map(p)) == vertex_centroid(p) == fraction_vertex_centroid(p)


class TestProjection:
    def test_fixed_point_unchanged(self):
        p = Polygon.from_coords([(1, 0), (0, 1), (-1, 0), (1, 0), (0, -1), (-1, 0)])
        reduced = project_out_modes_0_3(p)
        assert project_out_modes_0_3(reduced) == reduced

    def test_constant_maps_to_zero(self):
        zero = Polygon.from_coords([(0, 0)] * 6)
        assert project_out_modes_0_3(CONSTANT_HEX) == zero

    def test_pure_alternating_maps_to_zero(self):
        p = Polygon.from_coords([(1, 0), (-1, 0)] * 3)
        assert project_out_modes_0_3(p) == Polygon.from_coords([(0, 0)] * 6)

    def test_wrong_size(self):
        with pytest.raises(WrongSizeError):
            project_out_modes_0_3(UNIT_SQUARE)

    @settings(max_examples=50, deadline=None)
    @given(hexagons)
    def test_kills_mean_and_alternating_sum(self, p):
        reduced = project_out_modes_0_3(p)
        assert vertex_centroid(reduced) == point(0, 0)
        alt_x = sum((-1) ** k * v.x for k, v in enumerate(reduced.vertices))
        alt_y = sum((-1) ** k * v.y for k, v in enumerate(reduced.vertices))
        assert alt_x == 0 and alt_y == 0


class TestEquivariance:
    @settings(max_examples=50, deadline=None)
    @given(hexagons, rationals, rationals)
    def test_translation(self, p, cx, cy):
        c = PlanePoint(cx, cy)
        moved = translated(p, c)
        area = signed_area(p)
        assert signed_area(moved) == area
        z = z_moment(p)
        assert z_moment(moved) == PlanePoint(z.x + 6 * area * c.x, z.y + 6 * area * c.y)
        if area != 0:
            g = centroid(p)
            assert centroid(moved) == PlanePoint(g.x + c.x, g.y + c.y)

    @settings(max_examples=50, deadline=None)
    @given(hexagons, nonzero_rationals)
    def test_real_scaling(self, p, s):
        if signed_area(p) == 0:
            return
        g = centroid(p)
        assert centroid(scaled(p, s)) == PlanePoint(s * g.x, s * g.y)

    @settings(max_examples=50, deadline=None)
    @given(hexagons)
    def test_orientation_reversal(self, p):
        rev = reversed_polygon(p)
        assert signed_area(rev) == -signed_area(p)
        z = z_moment(p)
        assert z_moment(rev) == PlanePoint(-z.x, -z.y)
        if signed_area(p) != 0:
            assert centroid(rev) == centroid(p)


class TestFractionReference:
    """Each operation, computed on the integer lattice, equals its Fraction loop."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=8).flatmap(polygon_strategy), st.integers(0, 6))
    @example(CONSTANT_HEX, 3)
    @example(L_HEXAGON, 4)
    def test_matches_fraction_loops(self, p, n):
        assert iterate(p, n) == fraction_iterate(p, n)
        assert midpoint_map(p) == fraction_midpoint_map(p)
        assert signed_area(p) == fraction_signed_area(p)
        assert z_moment(p) == fraction_z_moment(p)
        assert vertex_centroid(p) == fraction_vertex_centroid(p)
        if fraction_signed_area(p) == 0:
            with pytest.raises(AreaZeroError):
                centroid(p)
        else:
            assert centroid(p) == fraction_centroid(p)

    @settings(max_examples=40, deadline=None)
    @given(hexagons)
    @example(CONSTANT_HEX)
    def test_projection_matches_fraction_loop(self, p):
        assert project_out_modes_0_3(p) == fraction_project_out_modes_0_3(p)


class TestLatticeSteps:
    """The fused shoelace pass equals the rotated-copy pass, and steps like `lattice_step`."""

    @settings(max_examples=200, deadline=None)
    @given(integer_coordinates)
    @example(([5], [-7]))
    @example(([0, 2, 2, 1, 1, 0], [0, 0, 1, 1, 2, 2]))
    @example(([2**600, -3, 7], [5, -2**599, 1]))
    def test_fused_pass_steps_like_lattice_step(self, coords):
        xs, ys = coords
        moments = lattice_moments(xs, ys)
        assert moments == rotated_copy_moments(xs, ys)
        assert moments[3:] == (lattice_step(xs), lattice_step(ys))

    @settings(max_examples=200, deadline=None)
    @given(hexagon_coordinates)
    @example(([2**600, -2**600, 3, 2**599, -7, 1], [-2**600, 5, 2**600, -1, 0, 2**598]))
    @example(([0, 1, 2, 3, 4, 5], [0, 2, 4, 6, 8, 10]))  # zero area
    @example(([1, 1, 4, 4, -2, -2], [3, 3, 0, 0, 5, 5]))  # repeated vertices
    @example(([-3, -9, -1, -5, -2, -8], [-4, -1, -7, -2, -6, -3]))
    def test_hexagon_pass_matches_rotated_copies(self, coords):
        # the straight-line m = 6 pass, on lists and on the tuples `fuzz` passes
        xs, ys = coords
        expected = rotated_copy_moments(xs, ys)
        assert lattice_moments(xs, ys) == expected
        assert lattice_moments(tuple(xs), tuple(ys)) == expected


class TestSymbolicMoments:
    """Identities over all polygons: the shipped kernel run on Z[x0, y0, x1, ...].

    R + shift R is `lattice_step(R)`, twice the midpoint polygon, and Z is
    cubic, so Z(M R) = (c / 8) Z(R) reads Z(R + shift R) = c Z(R).
    """

    @staticmethod
    def scaling(rx: list, ry: list) -> list:
        """[(Z(R + shift R), Z(R))] for the x and the y coordinate of the moment."""
        _, zx, zy, nx, ny = lattice_moments(rx, ry)
        _, zx1, zy1, _, _ = lattice_moments(nx, ny)
        return [(zx1, zx), (zy1, zy)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_pass_equals_rotated_copies(self, m):
        # one proof per vertex count of the general pass (and of the m = 6 one)
        xs, ys = Poly.variables("x", m), Poly.variables("y", m)
        assert lattice_moments(xs, ys) == rotated_copy_moments(xs, ys)

    def test_hexagon_lemma(self):
        # modes 0 and 3 projected out: Z(R + shift R) = 3 Z(R), i.e. Z(M v) = (3/8) Z(v)
        xs, ys = Poly.variables("x", 6), Poly.variables("y", 6)
        for z1, z in self.scaling(lattice_projection(xs), lattice_projection(ys)):
            assert len(z.terms) == 60
            assert scalar_ratio(z1, z) == 3

    def test_triangle_scales_by_two(self):
        xs, ys = Poly.variables("x", 3), Poly.variables("y", 3)
        for z1, z in self.scaling(xs, ys):
            assert scalar_ratio(z1, z) == 2

    @staticmethod
    def centred(m: int) -> tuple[list, list]:
        """The general m-gon with mode 0 projected out, as m v - sum v."""
        xs, ys = Poly.variables("x", m), Poly.variables("y", m)
        return [m * v - sum(xs) for v in xs], [m * v - sum(ys) for v in ys]

    @pytest.mark.parametrize("m", [5, 7, 8, 9, 10, 11, 12])
    def test_no_scalar_next_to_the_hexagon(self, m):
        # the moment is not zero, yet no c fits
        for z1, z in self.scaling(*self.centred(m)):
            assert z != 0
            assert scalar_ratio(z1, z) is None

    def test_quadrilateral_midpoints_have_zero_moment(self):
        # the Varignon parallelogram's centroid is the vertex mean, here 0
        for z1, z in self.scaling(*self.centred(4)):
            assert z != 0
            assert z1 == 0
