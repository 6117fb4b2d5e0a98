"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from midpoly import (
    AreaZeroError,
    DegenerateDenominatorError,
    FuzzConfig,
    InsufficientDataError,
    Polygon,
    area_from_modes,
    centroid,
    closed_form_centroid,
    convergence_diagnostics,
    decompose,
    eigenvalue,
    fuzz_hexagons,
    iterate,
    mode_basis,
    project_out_modes_0_3,
    signed_area,
    to_float_polygon,
    verify_proposition,
    verify_small_m_invariance,
    z_from_modes,
    z_moment,
)
from midpoly import spectral
from midpoly.cli import EXIT_OK, FigureSpec, cmd_proposition, render_figure
from midpoly.verify import random_integer_polygon

SQRT3 = math.sqrt(3.0)

EXAMPLE_HEXAGON = Polygon.from_coords(
    [
        (0, F(2, 5)),
        (F(16, 5), F(1, 2)),
        (3, F(-1, 2)),
        (F(12, 5), 2),
        (-2, F(5, 2)),
        (F(-3, 10), F(6, 5)),
    ]
)


def conclude(label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label} failed{suffix}"


@pytest.fixture(scope="module")
def campaign():
    cfg = FuzzConfig(seed=42, trials=1000, coordinate_bound=9, steps=12)
    start = time.perf_counter()
    summary = fuzz_hexagons(cfg)
    elapsed = time.perf_counter() - start
    return summary, elapsed


def test_criterion_1_exact_colinearity_campaign(campaign):
    summary, elapsed = campaign
    ok = (
        summary.theorem_passes == 1000
        and summary.theorem_failures == 0
        and summary.insufficient_data == 0
        and elapsed <= 10.0
    )
    conclude(
        "1 exact colinearity, seed=42 x1000",
        ok,
        f"{summary.theorem_passes}/1000 colinear incl. limit membership, {elapsed:.2f}s",
    )


def test_criterion_2_initial_centroid_exclusion_is_necessary(campaign):
    summary, _ = campaign
    ok = summary.g0_on_line_false >= 1
    conclude(
        "2 initial centroid off the line somewhere",
        ok,
        f"{summary.g0_on_line_false} trials with g0 off the line",
    )


def test_criterion_3_exact_moment_scaling(campaign):
    summary, _ = campaign
    ok = summary.z_scaling_passes == 1000 and summary.z_scaling_failures == 0
    conclude(
        "3 exact Z(Mv) = (3/8) Z(v) after projection",
        ok,
        f"{summary.z_scaling_passes}/1000 exact equalities",
    )


def test_criterion_4_mode_formulas_match_exact_oracles():
    rng = random.Random(20240)
    alt_area_reading_fails = False
    for _ in range(200):
        # dyadic coordinates are exactly float-representable, so the exact
        # shoelace oracle applies to the same polygon the transform sees
        poly = Polygon.from_coords(
            [(F(rng.randint(-160, 160), 16), F(rng.randint(-160, 160), 16)) for _ in range(6)]
        )
        mv = decompose(to_float_polygon(poly))

        ze = z_moment(poly)
        exact_z = complex(float(ze.x), float(ze.y))
        approx_z = z_from_modes(mv)
        assert abs(approx_z - exact_z) <= max(1e-12, 1e-9 * max(abs(exact_z), abs(approx_z)))

        exact_a = float(signed_area(poly))
        approx_a = area_from_modes(mv)
        assert abs(approx_a - exact_a) <= max(1e-12, 1e-9 * max(abs(exact_a), abs(approx_a)))

        # adjudicate the hexagon area expansion: the |xi_4|^2 reading matches
        # the oracle, the |xi_3|^2 variant does not
        xi = mv.coefficients
        good = 1.5 * SQRT3 * (
            abs(xi[1]) ** 2 - abs(xi[5]) ** 2 + abs(xi[2]) ** 2 - abs(xi[4]) ** 2
        )
        bad = 1.5 * SQRT3 * (
            abs(xi[1]) ** 2 - abs(xi[5]) ** 2 + abs(xi[2]) ** 2 - abs(xi[3]) ** 2
        )
        assert abs(good - exact_a) <= max(1e-12, 1e-9 * abs(exact_a))
        if abs(bad - exact_a) > max(1e-12, 1e-6 * abs(exact_a)):
            alt_area_reading_fails = True

    conclude(
        "4 mode moment/area formulas vs exact shoelace",
        alt_area_reading_fails,
        f"200/200 within 1e-9 rel, squared-mode-4 reading confirmed",
    )


def test_criterion_5_closed_form_orbit_matches_exact_path():
    rng = random.Random(31337)
    checked = 0
    worst = 0.0
    for _ in range(100):
        poly = random_integer_polygon(rng, 6, 9)
        reduced = project_out_modes_0_3(poly)
        mv = decompose(to_float_polygon(reduced))
        d1 = abs(mv[1]) ** 2 - abs(mv[5]) ** 2
        d2 = abs(mv[2]) ** 2 - abs(mv[4]) ** 2
        chain = iterate(reduced, 15)
        for n in range(16):
            denom = d1 + 3.0 ** (-n) * d2
            if abs(denom) < 1e-6 * max(abs(d1), abs(d2), 1e-30):
                continue
            try:
                g = closed_form_centroid(mv, n)
                ge = centroid(chain[n])
            except (DegenerateDenominatorError, AreaZeroError):
                continue
            exact = complex(float(ge.x), float(ge.y))
            dev = abs(g - exact) / max(1e-12, abs(exact))
            worst = max(worst, dev)
            assert dev <= 1e-9, (poly, n, dev)
            checked += 1
    ok = checked > 1000
    conclude(
        "5 closed-form centroid orbit vs exact iterates",
        ok,
        f"{checked} comparisons, worst rel dev {worst:.2e}",
    )


def test_criterion_6_eigenstructure():
    worst = 0.0
    for m in range(3, 65):
        for j in range(m):
            basis = mode_basis(m, j)
            lam = eigenvalue(m, j)
            mapped = spectral.midpoint_map(basis)
            dev = max(abs(a - lam * b) for a, b in zip(mapped, basis))
            worst = max(worst, dev)
            assert dev <= 1e-12, (m, j, dev)

    assert eigenvalue(6, 0) == 1 + 0j
    assert abs(eigenvalue(6, 3)) <= 1e-15
    assert abs(abs(eigenvalue(6, 1)) - SQRT3 / 2) <= 1e-15
    assert abs(abs(eigenvalue(6, 5)) - SQRT3 / 2) <= 1e-15
    assert abs(abs(eigenvalue(6, 2)) - 0.5) <= 1e-15
    assert abs(abs(eigenvalue(6, 4)) - 0.5) <= 1e-15
    conclude("6 eigenstructure m=3..64", True, f"worst eigen-relation dev {worst:.2e}")


def test_criterion_7_small_sizes_exact_constancy():
    rng = random.Random(777)
    for m, label in ((3, "triangles"), (4, "quadrilaterals")):
        done = 0
        while done < 1000:
            poly = random_integer_polygon(rng, m, 9)
            if signed_area(poly) == 0:
                continue
            assert verify_small_m_invariance(poly, 10), poly
            done += 1
    conclude("7 small-size constancy, 1000 triangles + 1000 quadrilaterals", True)


def test_criterion_8_counterexample_slopes():
    for m in (5, 7, 8, 9, 10, 11, 12):
        report = verify_proposition(m, 10, rel_tol=1e-9)
        assert report.ratio_ok, m
        assert report.lines_pairwise_distinct, m
        code, _ = cmd_proposition(m, 10, 1e-9)
        assert code == EXIT_OK, m
    conclude("8 slope ratio 2cos(2pi/m)-1 for m=5,7..12", True)


def test_criterion_9_convergence_rate_and_monotonicity():
    rng = random.Random(4242)
    done = 0
    worst_ratio_dev = 0.0
    while done < 100:
        poly = random_integer_polygon(rng, 6, 9)
        mv = decompose(to_float_polygon(poly))
        scale = max(abs(c) for c in mv.coefficients[1:])
        if scale == 0.0:
            continue
        d1 = (abs(mv[1]) / scale) ** 2 - (abs(mv[5]) / scale) ** 2
        if abs(d1) < 1e-3:
            continue
        try:
            diag = convergence_diagnostics(poly, 40)
        except InsufficientDataError:
            continue
        assert diag.sign_changes <= 1, poly

        tail = []
        for pos, left_index in enumerate(diag.indices[:-1]):
            if left_index >= 25 and pos < len(diag.distance_ratios):
                r = diag.distance_ratios[pos]
                if r is not None:
                    tail.append((left_index, r))
        assert any(idx >= 30 for idx, _ in tail), poly
        for idx, r in tail:
            dev = abs(r - 0.5)
            worst_ratio_dev = max(worst_ratio_dev, dev)
            assert dev <= 1e-6, (poly, idx, dev)
        done += 1
    conclude(
        "9 distance ratios -> 1/2 and at most one sign flip",
        True,
        f"100 hexagons, worst |ratio - 1/2| = {worst_ratio_dev:.2e}",
    )


def test_criterion_10_figure_reproduction():
    spec = FigureSpec(steps=13)
    svg_a = render_figure(EXAMPLE_HEXAGON, spec)
    svg_b = render_figure(EXAMPLE_HEXAGON, spec)
    ok = (
        svg_a == svg_b
        and svg_a.count("<polygon") == 14
        and svg_a.count("<line") == 1
        and svg_a.startswith('<?xml version="1.0"')
        and svg_a.rstrip().endswith("</svg>")
    )
    conclude(
        "10 figure: 14 polygons, 1 line, byte-identical",
        ok,
        f"{len(svg_a)} bytes",
    )
