"""Verification machinery: line checks, scaling, counterexamples, fuzzing."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midpoly import (
    AreaZeroError,
    FloatPolygon,
    FuzzConfig,
    InsufficientDataError,
    PlanePoint,
    Polygon,
    UnsupportedSizeError,
    WrongSizeError,
    centroid_sequence,
    convergence_diagnostics,
    counterexample_modes,
    decompose,
    fuzz_hexagons,
    midpoint_map,
    point,
    root_of_unity,
    verify_hexagon_theorem,
    verify_proposition,
    verify_small_m_invariance,
    verify_z_scaling,
    z_moment,
)
from midpoly.exact_poly import from_homogeneous, to_homogeneous
from midpoly.verify import (
    SLOPE_DISTINCT_TOL,
    FuzzFailure,
    FuzzSummary,
    _decide_line,
    _fit_line,
    _normal_quotient,
    _on_line,
    _sign,
    _step_sign,
    random_integer_coords,
    random_integer_polygon,
    slopes_pairwise_distinct,
    trial_rng,
)

from oracles import (
    dot,
    fan_centroid,
    fraction_centroid_or_none,
    fraction_iterate,
    fraction_line_verdict,
    fraction_midpoint_map,
    fraction_project_out_modes_0_3,
    fraction_vertex_centroid,
    fraction_z_moment,
    inverse_dft,
    pairwise_slopes_distinct,
    reversed_polygon,
    sub,
)

# Frozen witnesses, found by seeded search over integer hexagons and kept
# fixed so the properties they demonstrate stay pinned down.
G0_OFF_LINE_HEX = ((-8, -1), (-7, 4), (-1, -6), (-8, 3), (8, 8), (1, 1))
UNPROJECTED_SCALING_FAILS_HEX = ((-1, 2), (7, -9), (5, -2), (-8, -4), (-6, 2), (6, -2))
SAME_SIGN_IMBALANCE_HEX = ((3, 3), (-3, -4), (-2, -2), (-5, -7), (-1, 3), (7, 8))
OPPOSITE_SIGN_IMBALANCE_HEX = ((4, 2), (3, -9), (-6, 7), (8, -3), (-9, 7), (0, -4))
# Centrally symmetric, so every centroid from the first iterate onward sits
# exactly on the vertex centroid.
CENTRAL_SYMMETRIC_HEX = ((1, 0), (3, 2), (0, 3), (-1, 0), (-3, -2), (0, -3))

CONSTANT_HEX = Polygon.from_coords([(1, 1)] * 6)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
hexagons = st.lists(st.tuples(rationals, rationals), min_size=6, max_size=6).map(
    Polygon.from_coords
)
polygons_3_to_8 = st.integers(3, 8).flatmap(
    lambda m: st.lists(st.tuples(rationals, rationals), min_size=m, max_size=m)
).map(Polygon.from_coords)



@st.composite
def slope_lists(draw):
    """Floats, infinities and NaN, plus copies of some shifted by about the distinctness tolerance."""
    base = draw(st.lists(st.floats(), min_size=1, max_size=10))
    near = draw(st.lists(
        st.tuples(st.sampled_from(base), st.floats(-3.0, 3.0)).map(
            lambda t: t[0] + t[1] * SLOPE_DISTINCT_TOL * max(1.0, abs(t[0]))),
        max_size=6,
    ))
    return draw(st.permutations(base + near))


def _rounded(num: int, den: int) -> float | None:
    """num / den correctly rounded, subnormals and signed zeros included; None where it overflows."""
    try:
        return num / den
    except OverflowError:
        return None


@st.composite
def parameter_pairs(draw):
    """Two parameters (num, den), den > 0, of up to 500 bits, whose quotients often tie or are missing.

    b is drawn freely, one unit from a in the numerator, a's value or one
    unit off over a larger denominator, or an exact zero. The pair is
    then scaled by 2**1100 in its numerators or denominators, so that
    both quotients overflow or underflow, or left as it is.
    """
    na, da = draw(st.integers(-(2**500), 2**500)), draw(st.integers(1, 2**500))
    shape = draw(st.sampled_from(["free", "unit", "scaled", "zero"]))
    if shape == "free":
        nb, db = draw(st.integers(-(2**500), 2**500)), draw(st.integers(1, 2**500))
    elif shape == "unit":
        nb, db = na + draw(st.sampled_from([-1, 1])), da
    elif shape == "scaled":
        k = draw(st.integers(2, 2**64))
        nb, db = na * k + draw(st.integers(-1, 1)), da * k
    else:
        nb, db = 0, draw(st.integers(1, 2**500))
    shift = draw(st.sampled_from([0, 1100, -1100]))
    if shift > 0:
        na, nb = na << shift, nb << shift
    elif shift < 0:
        da, db = da << -shift, db << -shift
    return (na, da), (nb, db)


def reference_fuzz(cfg: FuzzConfig) -> FuzzSummary:
    """The fuzz campaign computed on the Fraction loops of `oracles` alone."""
    counts = dict.fromkeys(
        ["theorem_passes", "theorem_failures", "z_scaling_passes", "z_scaling_failures",
         "insufficient_data", "undefined_centroids", "g0_on_line_true", "g0_on_line_false"],
        0,
    )
    first_failure = None
    for trial in range(cfg.trials):
        poly = random_integer_polygon(trial_rng(cfg.seed, trial), 6, cfg.coordinate_bound)
        seq = [fraction_centroid_or_none(q) for q in fraction_iterate(poly, cfg.steps)]
        counts["undefined_centroids"] += seq.count(None)
        verdict = fraction_line_verdict(seq, fraction_vertex_centroid(poly))
        reason = None
        if verdict is None:
            counts["insufficient_data"] += 1
        else:
            if verdict.g0_on_line is not None:
                counts["g0_on_line_true" if verdict.g0_on_line else "g0_on_line_false"] += 1
            reason = verdict.failure
            counts["theorem_passes" if reason is None else "theorem_failures"] += 1
        reduced = fraction_project_out_modes_0_3(poly)
        z0, z1 = fraction_z_moment(reduced), fraction_z_moment(fraction_midpoint_map(reduced))
        if z1.x * 8 == z0.x * 3 and z1.y * 8 == z0.y * 3:
            counts["z_scaling_passes"] += 1
        else:
            counts["z_scaling_failures"] += 1
            reason = reason or "moment scaling Z(Mv) != (3/8) Z(v) after projection"
        if reason is not None and first_failure is None:
            coords = tuple((int(v.x), int(v.y)) for v in poly)
            first_failure = FuzzFailure(trial=trial, vertices=coords, reason=reason)
    return FuzzSummary(
        seed=cfg.seed,
        trials=cfg.trials,
        coordinate_bound=cfg.coordinate_bound,
        steps=cfg.steps,
        first_failure=first_failure,
        **counts,
    )


def as_point(h):
    """The PlanePoint of a homogeneous triple, None for None."""
    return None if h is None else from_homogeneous(h)


class TestExactColinear:
    """`_fit_line`, the exact line fit behind every hexagon verdict, on homogeneous triples.

    It returns the direction from the first point to the first distinct
    one and the position of the first point off that line.
    """

    def test_diagonal_points(self):
        pts = [(0, 0, 1), (1, 1, 1), (2, 2, 1), (5, 5, 1)]
        assert _fit_line(pts) == ((1, 1, 1), None)

    def test_right_angle(self):
        pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
        assert _fit_line(pts) == ((1, 0, 1), 2)

    def test_fraction_multiples_no_tolerance(self):
        pts = [to_homogeneous(q) for q in (point(0, 0), point(F(1, 3), F(2, 7)), point(F(2, 3), F(4, 7)))]
        direction, violation = _fit_line(pts)
        assert violation is None
        assert from_homogeneous(direction) == point(F(1, 3), F(2, 7))

    def test_short_sequences(self):
        assert _fit_line([(1, 2, 1)]) == (None, None)
        assert _fit_line([(1, 2, 1), (3, -4, 1)]) == ((2, -6, 1), None)

    def test_repeated_anchor_then_violation(self):
        # the repeat is the anchor with another w: equal points, no direction yet
        pts = [(0, 0, 1), (0, 0, 3), (1, 0, 1), (1, 1, 1)]
        assert _fit_line(pts) == ((1, 0, 1), 3)


class TestCentroidSequence:
    def test_constant_hexagon_all_undefined(self):
        assert centroid_sequence(CONSTANT_HEX, 5) == [None] * 6

    def test_unit_square_symmetry(self):
        sq = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        target = point(F(1, 2), F(1, 2))
        assert centroid_sequence(sq, 3) == [target] * 4

    def test_l_hexagon_first_values(self):
        L = Polygon.from_coords([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        seq = centroid_sequence(L, 2)
        assert seq[0] == point(F(5, 6), F(5, 6))
        chain = [L, midpoint_map(L), midpoint_map(midpoint_map(L))]
        for got, poly in zip(seq, chain):
            assert got == fan_centroid(poly)


def reference_diagnostics(report) -> tuple:
    """(indices, projections, stable_from, sign_changes, distance_ratios) on Fractions."""
    limit = from_homogeneous(report.limit)
    defined = [(k, from_homogeneous(g)) for k, g in enumerate(report.orbit) if k >= 1 and g is not None]
    direction = as_point(report.direction) or point(1, 0)
    params = [dot(sub(g, limit), direction) / dot(direction, direction) for _, g in defined]
    signs = [s for s in ((t > 0) - (t < 0) for t in params) if s != 0]
    stable_from = defined[0][0]
    run_sign = 0
    for pos in range(len(params) - 2, -1, -1):
        step = params[pos + 1] - params[pos]
        s = (step > 0) - (step < 0)
        if s != 0 and run_sign == 0:
            run_sign = s
        elif s != 0 and s != run_sign:
            stable_from = defined[pos + 1][0]
            break
    ratios = []
    for (ka, ga), (kb, gb) in zip(defined, defined[1:]):
        da, db = sub(ga, limit), sub(gb, limit)
        if kb != ka + 1 or da == point(0, 0):
            ratios.append(None)
        else:
            ratios.append(math.sqrt(float(dot(db, db))) / math.sqrt(float(dot(da, da))))
    return (
        tuple(k for k, _ in defined),
        tuple(float(t) for t in params),
        stable_from,
        sum(1 for a, b in zip(signs, signs[1:]) if a != b),
        tuple(ratios),
    )


class TestLatticeKernel:
    """The integer-lattice orbit against the Fraction loops of `oracles`."""

    @settings(max_examples=60, deadline=None)
    @given(polygons_3_to_8, st.integers(0, 10))
    @example(CONSTANT_HEX, 4)
    @example(Polygon.from_coords([(0, 0), (1, 1), (2, 2), (F(7, 3), F(7, 3))]), 3)
    @example(Polygon.from_coords(CENTRAL_SYMMETRIC_HEX), 5)
    def test_centroid_sequence_matches_fraction_api(self, p, n):
        expected = [fraction_centroid_or_none(q) for q in fraction_iterate(p, n)]
        assert centroid_sequence(p, n) == expected

    @settings(max_examples=40, deadline=None)
    @given(hexagons, st.integers(3, 30))
    @example(Polygon.from_coords(CENTRAL_SYMMETRIC_HEX), 6)
    @example(Polygon.from_coords(OPPOSITE_SIGN_IMBALANCE_HEX), 40)
    def test_diagnostics_match_fraction_reference(self, p, n):
        try:
            report = verify_hexagon_theorem(p, n)
            diag = convergence_diagnostics(p, n)
        except InsufficientDataError:
            return
        got = (diag.indices, diag.projections, diag.stable_from, diag.sign_changes,
               diag.distance_ratios)
        assert got == reference_diagnostics(report)

    @pytest.mark.parametrize(
        "cfg",
        [
            FuzzConfig(seed=42, trials=60, coordinate_bound=9, steps=12),
            FuzzConfig(seed=11, trials=200, coordinate_bound=2, steps=5),
            # bound 1: zero-area iterates, coincident centroids, insufficient data
            FuzzConfig(seed=3, trials=300, coordinate_bound=1, steps=6),
            FuzzConfig(seed=7, trials=300, coordinate_bound=1, steps=2),
        ],
    )
    def test_fuzz_matches_fraction_reference(self, cfg):
        summary = fuzz_hexagons(cfg)
        assert summary == reference_fuzz(cfg)
        if cfg.coordinate_bound == 1:
            assert summary.insufficient_data > 0
            assert summary.undefined_centroids > 0


# Hand-built orbits of homogeneous triples (x, y, w) with their limit, for
# the verdict's failing branches, which no real hexagon reaches: the
# expected first violation and whether the check passes.
VERDICT_CASES = {
    "violation-after-undefined": (
        ((0, 0, 1), (0, 0, 1), None, (2, 0, 2), None, (5, 1, 1), (2, 0, 1)), (3, 0, 1), 5, False),
    "violation-at-last-iterate": (
        (None, (0, 0, 1), (1, 1, 1), (4, 4, 2), (3, 4, 1)), (-1, -1, 1), 4, False),
    "limit-off-line": (((7, 7, 1), (0, 0, 1), (1, 1, 1), None, (2, 2, 1)), (1, 0, 1), None, False),
    "all-equal-to-limit": (((1, 2, 1), (2, 4, 2), None, (3, 6, 3)), (1, 2, 1), None, True),
    "all-equal-distinct-limit": (((5, 5, 1), (1, 1, 1), (2, 2, 2), (1, 1, 1)), (0, 3, 1), None, True),
    "too-few-defined": (((0, 0, 1), None, (1, 1, 1), None), (1, 1, 1), None, None),
}


class TestDecideLine:
    @pytest.mark.parametrize("orbit, limit, violation, passed", VERDICT_CASES.values(), ids=VERDICT_CASES.keys())
    def test_matches_fraction_rule(self, orbit, limit, violation, passed):
        want = fraction_line_verdict(
            [None if g is None else from_homogeneous(g) for g in orbit], from_homogeneous(limit))
        if passed is None:
            assert want is None
            with pytest.raises(InsufficientDataError):
                _decide_line(orbit, limit)
            return
        report = _decide_line(orbit, limit)
        assert (report.first_violation, report.passed) == (violation, passed)
        assert report.all_colinear == (violation is None)
        assert report.first_violation == want.first_violation
        assert report.g0_on_line == want.g0_on_line
        assert report.limit_on_line == want.limit_on_line
        assert as_point(report.direction) == want.direction
        assert report.failure == want.failure


class TestHexagonTheorem:
    def test_random_integer_hexagons(self):
        rng = random.Random(7)
        for _ in range(60):
            p = random_integer_polygon(rng, 6, 9)
            try:
                report = verify_hexagon_theorem(p, 12)
            except InsufficientDataError:
                continue
            assert report.all_colinear
            assert report.first_violation is None
            assert report.limit_on_line
            # the line fit alone agrees with the report
            defined = [g for n, g in enumerate(report.orbit) if n >= 1 and g is not None]
            assert _fit_line(defined)[1] is None
            assert _fit_line(defined + [report.limit])[1] is None

    @settings(max_examples=40, deadline=None)
    @given(hexagons)
    def test_random_rational_hexagons(self, p):
        try:
            report = verify_hexagon_theorem(p, 10)
        except InsufficientDataError:
            return
        assert report.all_colinear
        assert report.limit_on_line

    def test_symmetric_hexagon_trivially_colinear(self):
        p = Polygon.from_coords(CENTRAL_SYMMETRIC_HEX)
        report = verify_hexagon_theorem(p, 8)
        assert report.all_colinear
        assert report.direction is None
        assert from_homogeneous(report.anchor) == fraction_vertex_centroid(p)
        assert report.limit_on_line

    @settings(max_examples=40, deadline=None)
    @given(hexagons, st.integers(1, 12))
    @example(Polygon.from_coords(CENTRAL_SYMMETRIC_HEX), 4)
    @example(reversed_polygon(Polygon.from_coords(G0_OFF_LINE_HEX)), 6)
    def test_point_views_match_triples(self, p, n):
        try:
            report = verify_hexagon_theorem(p, n)
        except InsufficientDataError:
            return
        triples = [g for g in (*report.orbit, report.anchor, report.limit) if g is not None]
        assert all(w > 0 for _, _, w in triples)
        if report.direction is not None:
            assert report.direction[2] > 0
        centroids = tuple(as_point(g) for g in report.orbit)
        assert centroids == tuple(fraction_centroid_or_none(q) for q in fraction_iterate(p, n))
        assert from_homogeneous(report.limit) == fraction_vertex_centroid(p)
        defined = [g for k, g in enumerate(report.orbit) if k >= 1 and g is not None]
        assert report.anchor == defined[0]
        assert all(_on_line(g, report.anchor, report.direction) for g in (*defined, report.limit))

    def test_g0_off_line_witness(self):
        report = verify_hexagon_theorem(Polygon.from_coords(G0_OFF_LINE_HEX), 12)
        assert report.all_colinear
        assert report.g0_on_line is False

    def test_constant_hexagon_insufficient(self):
        with pytest.raises(InsufficientDataError):
            verify_hexagon_theorem(CONSTANT_HEX, 12)

    def test_wrong_size(self):
        with pytest.raises(WrongSizeError):
            verify_hexagon_theorem(Polygon.from_coords([(0, 0), (1, 0), (0, 1)]), 12)

    @settings(max_examples=25, deadline=None)
    @given(hexagons, st.tuples(rationals, rationals, rationals, rationals, rationals, rationals))
    def test_affine_equivariance(self, p, coeffs):
        a, b, c, d, e, f = coeffs
        if a * d - b * c == 0:
            return

        def transform(q: PlanePoint) -> PlanePoint:
            return PlanePoint(a * q.x + b * q.y + e, c * q.x + d * q.y + f)

        mapped = Polygon(tuple(transform(v) for v in p.vertices))
        try:
            original = verify_hexagon_theorem(p, 8)
            imaged = verify_hexagon_theorem(mapped, 8)
        except InsufficientDataError:
            return
        assert imaged.all_colinear
        # the line predicate transfers for every centroid the line claim
        # covers (index >= 1; the initial centroid is excluded on both sides)
        def on_imaged_line(h) -> bool:
            return _on_line(to_homogeneous(transform(from_homogeneous(h))), imaged.anchor, imaged.direction)

        for n, g in enumerate(original.orbit):
            if n >= 1 and g is not None:
                assert on_imaged_line(g)
        assert on_imaged_line(original.limit)


class TestZScaling:
    def test_random_integer_hexagons(self):
        rng = random.Random(11)
        for _ in range(100):
            assert verify_z_scaling(random_integer_polygon(rng, 6, 9))

    @settings(max_examples=40, deadline=None)
    @given(hexagons)
    def test_random_rational_hexagons(self, p):
        assert verify_z_scaling(p)

    def test_alternating_plus_constant_collapses_to_zero(self):
        p = Polygon.from_coords([(3, 1), (1, 1), (3, 1), (1, 1), (3, 1), (1, 1)])
        assert verify_z_scaling(p)

    def test_projection_hypothesis_is_necessary(self):
        p = Polygon.from_coords(UNPROJECTED_SCALING_FAILS_HEX)
        assert verify_z_scaling(p)
        z0 = z_moment(p)
        z1 = z_moment(midpoint_map(p))
        assert not (z1.x * 8 == z0.x * 3 and z1.y * 8 == z0.y * 3)


class TestSmallSizes:
    def test_triangle_centroid_equals_vertex_mean(self):
        tri = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
        assert verify_small_m_invariance(tri, 10)
        assert centroid_sequence(tri, 3) == [point(1, 1)] * 4

    def test_quadrilateral_constant_after_first_step(self):
        quad = Polygon.from_coords([(0, 0), (4, 0), (5, 3), (1, 2)])
        assert verify_small_m_invariance(quad, 10)
        seq = centroid_sequence(quad, 3)
        assert seq[0] == point(F(50, 19), F(71, 57))
        assert seq[1] == point(F(5, 2), F(5, 4))
        assert seq[1] == seq[2] == seq[3]

    def test_unit_square_constant_from_start(self):
        sq = Polygon.from_coords([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert verify_small_m_invariance(sq, 10)
        assert centroid_sequence(sq, 1)[0] == point(F(1, 2), F(1, 2))

    def test_random_triangles_and_quadrilaterals(self):
        rng = random.Random(23)
        for m in (3, 4):
            done = 0
            while done < 50:
                p = random_integer_polygon(rng, m, 9)
                try:
                    assert verify_small_m_invariance(p, 10)
                except AreaZeroError:
                    continue
                done += 1

    def test_degenerate_triangle_raises(self):
        flat = Polygon.from_coords([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(AreaZeroError):
            verify_small_m_invariance(flat, 5)

    def test_wrong_size(self):
        with pytest.raises(WrongSizeError):
            verify_small_m_invariance(CONSTANT_HEX, 5)

    def test_step_count_validated(self):
        tri = Polygon.from_coords([(0, 0), (3, 0), (0, 3)])
        quad = Polygon.from_coords([(0, 0), (4, 0), (5, 3), (1, 2)])
        with pytest.raises(ValueError, match="nonnegative"):
            verify_small_m_invariance(quad, -1)
        with pytest.raises(ValueError, match="at least one iteration"):
            verify_small_m_invariance(quad, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            verify_small_m_invariance(tri, -1)
        assert verify_small_m_invariance(tri, 0)


def witness_polygon(m: int) -> FloatPolygon:
    """The witness m-gon by its vertex rule: vertex k is i*w^k - w^(2k) + w^(3k)."""
    return FloatPolygon(tuple(1j * root_of_unity(m, k) - root_of_unity(m, 2 * k) + root_of_unity(m, 3 * k)
                              for k in range(m)))


class TestCounterexample:
    def test_vertex_zero_is_i(self):
        for m in (5, 7):
            assert abs(inverse_dft(counterexample_modes(m))[0] - 1j) <= 1e-15

    def test_matches_mode_reconstruction(self):
        for m in (5, 7, 9, 12):
            direct = decompose(witness_polygon(m)).coefficients
            modes = counterexample_modes(m).coefficients
            assert max(abs(a - b) for a, b in zip(direct, modes)) <= 1e-12

    def test_unsupported_sizes(self):
        for m in (1, 2, 3, 4, 6):
            with pytest.raises(UnsupportedSizeError):
                counterexample_modes(m)


class TestProposition:
    def test_heptagon_ratio(self):
        report = verify_proposition(7, 10)
        assert abs(report.expected_ratio - 0.2469796) <= 1e-6
        assert report.ratio_ok
        assert report.lines_pairwise_distinct
        assert report.passed

    def test_pentagon_ratio_negative(self):
        report = verify_proposition(5, 10)
        assert abs(report.expected_ratio - (-0.3819660)) <= 1e-6
        assert -1.0 < report.expected_ratio < 0.0
        assert report.passed

    def test_twelve_gon_ratio(self):
        report = verify_proposition(12, 10)
        assert abs(report.expected_ratio - (math.sqrt(3) - 1.0)) <= 1e-12
        assert report.passed

    def test_expected_ratio_range(self):
        for m in range(7, 13):
            report = verify_proposition(m, 6)
            assert 0.0 < report.expected_ratio < 1.0

    def test_ratios_track_expected(self):
        report = verify_proposition(9, 10)
        for r in report.ratios:
            assert abs(r - report.expected_ratio) <= 1e-9 * abs(report.expected_ratio)

    def test_step_floor(self):
        with pytest.raises(ValueError):
            verify_proposition(7, 2)

    @settings(max_examples=400, deadline=None)
    @given(slope_lists())
    @example([math.inf, math.inf])
    @example([-math.inf, 1.0, math.inf])
    @example([1.0, math.nan, 1.0 + 0.5 * SLOPE_DISTINCT_TOL])
    @example([3.0, 1.0, 2.0, 1.0 + 0.5 * SLOPE_DISTINCT_TOL])
    @example([2.0e6, -5.0, 2.0e6 * (1.0 + 2.0 * SLOPE_DISTINCT_TOL)])
    def test_sorted_distinctness_matches_pairwise_loop(self, slopes):
        assert slopes_pairwise_distinct(slopes) == pairwise_slopes_distinct(slopes)


class TestFuzz:
    def test_determinism(self):
        cfg = FuzzConfig(seed=42, trials=40, coordinate_bound=9, steps=8)
        assert fuzz_hexagons(cfg) == fuzz_hexagons(cfg)

    def test_small_campaign_passes(self):
        summary = fuzz_hexagons(FuzzConfig(seed=7, trials=60, coordinate_bound=9, steps=10))
        assert summary.theorem_failures == 0
        assert summary.z_scaling_failures == 0
        assert summary.first_failure is None
        assert summary.theorem_passes + summary.insufficient_data == 60

    def test_degenerate_inputs_counted_not_failed(self):
        # bound 1 makes fully collinear hexagons (all centroids undefined) common
        summary = fuzz_hexagons(FuzzConfig(seed=3, trials=400, coordinate_bound=1, steps=6))
        assert summary.insufficient_data > 0
        assert summary.theorem_failures == 0
        assert summary.z_scaling_failures == 0

    @pytest.mark.parametrize("bound", [0, 1, 2, 7, 8, 9, 15, 16, 10**9])
    def test_draws_equal_randint_stream(self, bound):
        for seed in range(200):
            rng, ref = trial_rng(seed, 0), trial_rng(seed, 0)
            m = 1 + seed % 12
            expected = tuple((ref.randint(-bound, bound), ref.randint(-bound, bound)) for _ in range(m))
            assert random_integer_coords(rng, m, bound) == expected
            # the streams stay aligned for whatever the caller draws next
            assert rng.getstate() == ref.getstate()

    def test_negative_bound_rejected_before_drawing(self):
        rng = trial_rng(42, 0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            random_integer_coords(rng, 6, -1)
        assert rng.getstate() == state

    def test_trial_streams_are_reproducible(self):
        a = trial_rng(42, 5).random()
        b = trial_rng(42, 5).random()
        assert a == b

    def test_config_validation(self):
        # random.Random seeds from the absolute value: seed -1 would replay trial 0 of seed 1
        assert trial_rng(-1, 0).random() == trial_rng(1, 0).random()
        with pytest.raises(ValueError):
            FuzzConfig(seed=-1)
        with pytest.raises(ValueError):
            FuzzConfig(trials=0)
        with pytest.raises(ValueError):
            FuzzConfig(coordinate_bound=0)
        with pytest.raises(ValueError):
            FuzzConfig(steps=1)


class TestConvergenceDiagnostics:
    @settings(max_examples=500, deadline=None)
    @given(parameter_pairs(), st.sampled_from([_normal_quotient, _rounded]))
    # one unit apart in a 500-bit numerator: equal quotients
    @example(((2**500, 3**300), (2**500 + 1, 3**300)), _normal_quotient)
    @example(((2**500 + 1, 3**300), (2**500, 3**300)), _normal_quotient)
    # subnormal and overflowing quotients
    @example(((1, 2**1060), (2, 2**1060)), _rounded)
    @example(((1, 2**1060), (2, 2**1060)), _normal_quotient)
    @example(((2**1100, 1), (2**1100 + 1, 1)), _normal_quotient)
    # an exact zero, and -0.0, the rounded value of a tiny negative
    @example(((0, 5), (0, 7)), _normal_quotient)
    @example(((-1, 2**1100), (0, 1)), _rounded)
    @example(((0, 1), (-1, 2**1100)), _rounded)
    def test_step_sign_matches_cross_product(self, pair, quotient):
        (na, da), (nb, db) = a, b = pair
        assert _step_sign(a, b, quotient(*a), quotient(*b)) == _sign(nb * da - na * db)

    def test_same_sign_imbalances_never_flip(self):
        p = Polygon.from_coords(SAME_SIGN_IMBALANCE_HEX)
        diag = convergence_diagnostics(p, 40)
        assert diag.sign_changes == 0
        assert diag.stable_from == 1

    def test_opposite_sign_imbalances_flip_once(self):
        p = Polygon.from_coords(OPPOSITE_SIGN_IMBALANCE_HEX)
        diag = convergence_diagnostics(p, 40)
        assert diag.sign_changes == 1
        # monotone from stable_from onward: no difference sign flips after it
        start = diag.indices.index(diag.stable_from)
        diffs = [
            b - a for a, b in zip(diag.projections[start:], diag.projections[start + 1 :])
        ]
        signs = {(-1 if d < 0 else 1) for d in diffs if d != 0.0}
        assert len(signs) <= 1

    def test_ratios_approach_one_half(self):
        p = Polygon.from_coords(SAME_SIGN_IMBALANCE_HEX)
        diag = convergence_diagnostics(p, 40)
        tail = [r for r in diag.distance_ratios[24:] if r is not None]
        assert tail, "expected defined ratios in the tail"
        assert max(abs(r - 0.5) for r in tail) <= 1e-6

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            convergence_diagnostics(CONSTANT_HEX, 10)

    def test_symmetric_hexagon_projects_to_zero(self):
        p = Polygon.from_coords(CENTRAL_SYMMETRIC_HEX)
        diag = convergence_diagnostics(p, 10)
        assert all(t == 0.0 for t in diag.projections)
        assert diag.sign_changes == 0

    def test_exact_zero_projection_is_positive_zero(self):
        # an exact zero prints 0.0, never null or -0.0
        diag = convergence_diagnostics(Polygon.from_coords(CENTRAL_SYMMETRIC_HEX), 10)
        assert [math.copysign(1.0, t) for t in diag.projections] == [1.0] * 10
