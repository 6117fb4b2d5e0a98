"""Mechanical verification of the centroid behavior of midpoint iterates.

Hexagons are special: all centroids of the iterates except possibly the
first lie on one fixed line, exactly, and converge to the vertex centroid
along it. This module checks that claim with zero-tolerance integer
arithmetic on the lattice form of the orbit (see `exact_poly`): centroids
are homogeneous integer triples, equality is cross-multiplication and
"on the line" is a vanishing 3x3 determinant. It also checks the exact
moment scaling Z(Mv) = (3/8) Z(v) behind the claim and the constancy
for triangles and quadrilaterals, and shows from the moment slopes of a
witness m-gon that colinearity fails for every other vertex count. A
seeded fuzzing harness runs the hexagon checks over random integers.

Failures found by the harness are data, not exceptions: summaries carry
pass/fail counts plus the first offending input, and identical seeds
produce identical summaries. Trials draw their random streams from
(seed, trial index) independently, so they could run in any order or in
parallel without changing the result.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AreaZeroError,
    InsufficientDataError,
    UnsupportedSizeError,
    WrongSizeError,
)
from .exact_poly import (
    Homogeneous,
    PlanePoint,
    Polygon,
    from_homogeneous,
    lattice_centroids,
    lattice_mean,
    lattice_moments,
    lattice_projection,
    same_point,
    to_lattice,
)
from .spectral import ModeVector, orbit_moments

RATIO_REL_TOL = 1e-9
SLOPE_DISTINCT_TOL = 1e-12
# Cost bounds of verify_proposition: a run builds the witness's m
# coefficients once, then each step computes only on its three live modes.
PROPOSITION_MAX_M = 4096
PROPOSITION_MAX_STEPS = 2000
# verify_hexagon_theorem's iterate n has numbers of about 2.6 n bits.
VERIFY_MAX_STEPS = 2000
# Cost bounds of fuzz_hexagons, linear in the trials: on a 2-vCPU Intel
# Xeon a trial of 200 steps takes about 1.3 ms, of the default 12 steps
# about 0.1 ms. The coordinate bound sets the numbers' starting size, so
# the cost grows with its digits: at 200 steps a trial up to 10**9 takes
# 1.2 to 1.5 ms, and one up to 10**100 (past the bound) about 5 ms.
FUZZ_MAX_TRIALS = 10_000
FUZZ_MAX_STEPS = 200
FUZZ_MAX_BOUND = 10**9


def _direction(a: Homogeneous, b: Homogeneous) -> Homogeneous:
    """The vector b - a as a triple (dx, dy, a_w * b_w)."""
    return (b[0] * a[2] - a[0] * b[2], b[1] * a[2] - a[1] * b[2], a[2] * b[2])


def _on_line(q: Homogeneous, anchor: Homogeneous, direction: Homogeneous | None) -> bool:
    """Exact membership of q in the line through anchor along direction.

    The line degenerates to the anchor itself when direction is None.
    Otherwise q is on it exactly when the cross product
    (q - anchor) x (dx, dy) vanishes, here scaled by q_w * anchor_w; the
    direction's w only scales the vector and plays no part.
    """
    if direction is None:
        return same_point(q, anchor)
    dx, dy, _ = direction
    ax, ay, aw = anchor
    qx, qy, qw = q
    return qw * (ax * dy - ay * dx) == aw * (qx * dy - qy * dx)


def _fit_line(points: Sequence[Homogeneous]) -> tuple[Homogeneous | None, int | None]:
    """Anchor a line at points[0], directed toward the first distinct point.

    Returns the direction from the anchor to that point (None when all
    points coincide) and the position of the first point off the line
    (None when all are on it).
    """
    anchor = points[0]
    direction: Homogeneous | None = None
    for pos in range(1, len(points)):
        q = points[pos]
        if direction is None:
            if not same_point(q, anchor):
                direction = _direction(anchor, q)
        elif not _on_line(q, anchor, direction):
            return direction, pos
    return direction, None


def centroid_sequence(p: Polygon, n: int) -> list[PlanePoint | None]:
    """Centroids of p, Mp, ..., M^n p; None marks a zero-area iterate."""
    return [None if g is None else from_homogeneous(g) for g in lattice_centroids(*to_lattice(p), n)]


@dataclass(frozen=True)
class ColinearityReport:
    """Exact verdict on the centroid line of an iterated hexagon.

    The points are homogeneous integer triples (x, y, w) with w > 0, as
    the lattice kernel computes them; `exact_poly.from_homogeneous`
    converts one to a PlanePoint. orbit[n] is the centroid of the
    n-th iterate or None where the area vanishes; limit is the vertex
    centroid. anchor is the first defined centroid with index >= 1.
    direction is the vector from the anchor to the next defined distinct
    centroid, or to the limit when all defined centroids coincide (two
    points always share a line), or None when the limit coincides with
    them too; membership then means equality with the anchor.
    first_violation is the index of the first defined centroid off the
    line, or None; g0_on_line is None when the initial centroid is
    undefined.

    all_colinear, failure and passed are derived from first_violation
    and limit_on_line.
    """

    orbit: tuple[Homogeneous | None, ...]
    anchor: Homogeneous
    direction: Homogeneous | None
    first_violation: int | None
    g0_on_line: bool | None
    limit: Homogeneous
    limit_on_line: bool

    @property
    def all_colinear(self) -> bool:
        return self.first_violation is None

    @property
    def failure(self) -> str | None:
        """Why the theorem check fails, or None when it passes."""
        if self.first_violation is not None:
            return f"centroids not colinear, first violation at iterate {self.first_violation}"
        return None if self.limit_on_line else "vertex centroid off the centroid line"

    @property
    def passed(self) -> bool:
        return self.failure is None


def _decide_line(orbit: tuple[Homogeneous | None, ...], limit: Homogeneous) -> ColinearityReport:
    """The theorem check on homogeneous centroids G_0 .. G_n and their limit.

    Fits one line to the defined centroids past G_0, then the limit:
    the limit lies on the true line, so it fixes the direction only when
    every defined centroid coincides. Raises InsufficientDataError when
    fewer than two centroids past G_0 are defined.
    """
    defined = [n for n, g in enumerate(orbit) if n >= 1 and g is not None]
    if len(defined) < 2:
        raise InsufficientDataError(
            f"only {len(defined)} defined centroids past the first iterate"
        )
    direction, violation = _fit_line([orbit[n] for n in defined] + [limit])
    anchor = orbit[defined[0]]
    g0 = orbit[0]
    return ColinearityReport(
        orbit=orbit,
        anchor=anchor,
        direction=direction,
        # position len(defined) is the limit's, which is not an iterate
        first_violation=None if violation in (None, len(defined)) else defined[violation],
        g0_on_line=None if g0 is None else _on_line(g0, anchor, direction),
        limit=limit,
        limit_on_line=_on_line(limit, anchor, direction),
    )


def verify_hexagon_theorem(p: Polygon, n: int) -> ColinearityReport:
    """Check exactly that all defined centroids G_1 .. G_n share one line.

    Also records whether the excluded initial centroid happens to lie on
    that line and whether the limit of the orbit, the vertex centroid,
    lies on it (it must). n is at most VERIFY_MAX_STEPS. Raises
    InsufficientDataError when fewer than two centroids past the first
    iterate are defined.
    """
    if len(p) != 6:
        raise WrongSizeError(f"expected a hexagon, got {len(p)} vertices")
    if n < 1:
        raise ValueError("need at least one iteration")
    if n > VERIFY_MAX_STEPS:
        raise ValueError(f"at most {VERIFY_MAX_STEPS} iterations, got {n}")
    scale, xs, ys = to_lattice(p)
    return _decide_line(tuple(lattice_centroids(scale, xs, ys, n)), lattice_mean(scale, xs, ys))


def _z_scaling_holds(xs: Sequence[int], ys: Sequence[int]) -> bool:
    """Z(Mv) = (3/8) Z(v) for the integer hexagon v after projecting out modes 0 and 3.

    Works on R, six times the projection (`lattice_projection`), which
    keeps it integer. As Z is cubic and R + shift(R) is 2 M R, the
    identity reads Z(R + shift(R)) = 3 Z(R).
    """
    _, zx, zy, rx1, ry1 = lattice_moments(lattice_projection(xs), lattice_projection(ys))
    _, zx1, zy1, _, _ = lattice_moments(rx1, ry1)
    return zx1 == 3 * zx and zy1 == 3 * zy


def verify_z_scaling(p: Polygon) -> bool:
    """Check Z(Mv) = (3/8) Z(v) exactly after projecting out modes 0 and 3."""
    if len(p) != 6:
        raise WrongSizeError(f"expected a hexagon, got {len(p)} vertices")
    _, xs, ys = to_lattice(p)
    return _z_scaling_holds(xs, ys)


def verify_small_m_invariance(p: Polygon, n: int) -> bool:
    """Exact centroid constancy for triangles and quadrilaterals.

    Triangles: every centroid G_0 .. G_n equals the vertex centroid.
    Quadrilaterals: G_1 .. G_n are all equal (the midpoint polygon of any
    quadrilateral is a parallelogram); G_0 may differ. Zero-area iterates
    in the required range raise AreaZeroError.
    """
    m = len(p)
    if m not in (3, 4):
        raise WrongSizeError(f"expected a triangle or quadrilateral, got {m} vertices")
    scale, xs, ys = to_lattice(p)
    start = 0 if m == 3 else 1
    required = lattice_centroids(scale, xs, ys, n)[start:]
    if any(g is None for g in required):
        raise AreaZeroError(f"zero-area iterate among steps {start}..{n}")
    target = lattice_mean(scale, xs, ys) if m == 3 else required[0]
    return all(same_point(g, target) for g in required)


def counterexample_modes(m: int) -> ModeVector:
    """Mode coefficients (0, i, -1, 1, 0, ..., 0) of the witness m-gon."""
    if m == 6 or m < 5:
        raise UnsupportedSizeError(f"no counterexample polygon for m={m}")
    coeffs = [0j] * m
    coeffs[1] = 1j
    coeffs[2] = -1.0 + 0j
    coeffs[3] = 1.0 + 0j
    return ModeVector(tuple(coeffs))


@dataclass(frozen=True)
class CounterexampleReport:
    """Slope record showing the centroids of the witness m-gon share no line.

    slopes[n] is Im Z / Re Z of the n-th iterate's moment, the slope of
    the line through the origin carrying that iterate's centroid. The
    slopes follow a geometric progression with ratio 2*cos(2*pi/m) - 1,
    so the lines are pairwise distinct and no two centroids are colinear
    with their limit at the origin. Float centroids are included as a
    sanity overlay; None marks a zero-area iterate.
    """

    m: int
    slopes: tuple[float, ...]
    ratios: tuple[float, ...]
    measured_ratio: float
    expected_ratio: float
    ratio_ok: bool
    lines_pairwise_distinct: bool
    centroids: tuple[complex | None, ...]

    @property
    def passed(self) -> bool:
        return self.ratio_ok and self.lines_pairwise_distinct


def slopes_pairwise_distinct(slopes: Sequence[float]) -> bool:
    """Whether no two slopes lie within SLOPE_DISTINCT_TOL, relative to the larger magnitude.

    Only neighbours in sorted order are compared. That decides every pair:
    for sorted a <= b <= c with, say, |c| >= |a|, the rounded gap c - b is
    at most the rounded c - a (rounding is monotone), and the tolerance of
    (b, c) is at least that of (a, c); so when (a, c) is close, so is
    (b, c). A NaN slope is close to nothing and is left out.
    """
    ordered = sorted(s for s in slopes if not math.isnan(s))
    return not any(
        b - a <= SLOPE_DISTINCT_TOL * max(1.0, abs(a), abs(b)) for a, b in zip(ordered, ordered[1:])
    )


def verify_proposition(m: int, n: int, rel_tol: float = RATIO_REL_TOL) -> CounterexampleReport:
    """Check the witness m-gon's moment slopes against 2*cos(2*pi/m) - 1.

    Computes Z of each iterate in mode coordinates, forms the slope
    sequence s_0 .. s_n, and checks that every successive ratio matches
    the expected value within rel_tol of the larger magnitude, with a
    1e-12 absolute floor, and that all slopes are pairwise distinct.
    rel_tol must be finite and nonnegative, m at most PROPOSITION_MAX_M
    and n at most PROPOSITION_MAX_STEPS. Raises InsufficientDataError
    when a part of Z underflows to zero, since the slope is then
    undefined or meaningless.
    """
    if n < 3:
        raise ValueError("need at least three iterations")
    if n > PROPOSITION_MAX_STEPS:
        raise ValueError(f"at most {PROPOSITION_MAX_STEPS} iterations, got {n}")
    if m > PROPOSITION_MAX_M:
        raise ValueError(f"m must be at most {PROPOSITION_MAX_M}, got {m}")
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {rel_tol!r}")
    mv = counterexample_modes(m)
    expected = 2.0 * math.cos(2.0 * math.pi / m) - 1.0

    slopes = []
    overlays: list[complex | None] = []
    for step, (z, area) in enumerate(orbit_moments(mv, n)):
        if z.real == 0.0 or z.imag == 0.0:
            raise InsufficientDataError(f"moment Z underflows to zero at step {step}")
        slopes.append(z.imag / z.real)
        overlays.append(None if area == 0.0 else z / (6.0 * area))

    ratios = tuple(slopes[i + 1] / slopes[i] for i in range(n))
    ratio_ok = all(abs(r - expected) <= max(1e-12, rel_tol * max(abs(r), abs(expected))) for r in ratios)
    # left to right: sum() over floats is compensated from Python 3.12 on,
    # which would make the printed mean depend on the Python version
    total = 0.0
    for r in ratios:
        total += r
    measured = total / len(ratios)
    return CounterexampleReport(
        m=m,
        slopes=tuple(slopes),
        ratios=ratios,
        measured_ratio=measured,
        expected_ratio=expected,
        ratio_ok=ratio_ok,
        lines_pairwise_distinct=slopes_pairwise_distinct(slopes),
        centroids=tuple(overlays),
    )


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic campaign parameters.

    Vertices are drawn with independent integer coordinates uniform on
    [-coordinate_bound, coordinate_bound]^2; trial t uses the random
    stream seeded by (seed, t), so trials are order-independent. seed is
    nonnegative, since random.Random seeds from the absolute value and
    -s would replay trial 0 of s. trials is at most FUZZ_MAX_TRIALS,
    coordinate_bound at most FUZZ_MAX_BOUND and steps at most FUZZ_MAX_STEPS.
    """

    seed: int = 42
    trials: int = 1000
    coordinate_bound: int = 9
    steps: int = 12

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > FUZZ_MAX_TRIALS:
            raise ValueError(f"at most {FUZZ_MAX_TRIALS} trials, got {self.trials}")
        if self.coordinate_bound < 1:
            raise ValueError("coordinate bound must be at least 1")
        if self.coordinate_bound > FUZZ_MAX_BOUND:
            raise ValueError(f"coordinate bound must be at most {FUZZ_MAX_BOUND}, got {self.coordinate_bound}")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if self.steps > FUZZ_MAX_STEPS:
            raise ValueError(f"at most {FUZZ_MAX_STEPS} iterations, got {self.steps}")


@dataclass(frozen=True)
class FuzzFailure:
    trial: int
    vertices: tuple[tuple[int, int], ...]
    reason: str


_FUZZ_COUNTERS = (
    "theorem_passes", "theorem_failures", "z_scaling_passes", "z_scaling_failures",
    "insufficient_data", "undefined_centroids", "g0_on_line_true", "g0_on_line_false",
)


@dataclass(frozen=True)
class FuzzSummary:
    seed: int
    trials: int
    coordinate_bound: int
    steps: int
    theorem_passes: int
    theorem_failures: int
    z_scaling_passes: int
    z_scaling_failures: int
    insufficient_data: int
    undefined_centroids: int
    g0_on_line_true: int
    g0_on_line_false: int
    first_failure: FuzzFailure | None

    @property
    def failures(self) -> int:
        return self.theorem_failures + self.z_scaling_failures


def trial_rng(seed: int, trial: int) -> random.Random:
    """Random stream for one trial, derived deterministically from (seed, trial)."""
    return random.Random((seed << 32) + trial)


def random_integer_coords(rng: random.Random, m: int, bound: int) -> tuple[tuple[int, int], ...]:
    """m integer vertices with independent coordinates uniform on [-bound, bound]^2."""
    return tuple((rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(m))


def random_integer_polygon(rng: random.Random, m: int, bound: int) -> Polygon:
    """m-gon with independent integer coordinates uniform on [-bound, bound]^2."""
    return Polygon.from_coords(random_integer_coords(rng, m, bound))


def fuzz_hexagons(cfg: FuzzConfig) -> FuzzSummary:
    """Run the hexagon line check and the moment scaling check over random inputs.

    Deterministic given the seed. A trial passes the line check when the
    theorem check on its orbit passes; trials with fewer than two defined
    centroids are counted as insufficient data, not as failures. The
    moment scaling check runs on every trial regardless.
    """
    counts = Counter(dict.fromkeys(_FUZZ_COUNTERS, 0))
    first_failure: FuzzFailure | None = None

    for trial in range(cfg.trials):
        coords = random_integer_coords(trial_rng(cfg.seed, trial), 6, cfg.coordinate_bound)
        xs = [x for x, _ in coords]
        ys = [y for _, y in coords]

        orbit = tuple(lattice_centroids(1, xs, ys, cfg.steps))
        counts["undefined_centroids"] += orbit.count(None)

        reason = None
        try:
            report = _decide_line(orbit, lattice_mean(1, xs, ys))
        except InsufficientDataError:
            counts["insufficient_data"] += 1
        else:
            if report.g0_on_line is not None:
                counts["g0_on_line_true" if report.g0_on_line else "g0_on_line_false"] += 1
            reason = report.failure
            counts["theorem_passes" if reason is None else "theorem_failures"] += 1

        z_ok = _z_scaling_holds(xs, ys)
        counts["z_scaling_passes" if z_ok else "z_scaling_failures"] += 1
        if not z_ok and reason is None:
            reason = "moment scaling Z(Mv) != (3/8) Z(v) after projection"

        if reason is not None and first_failure is None:
            first_failure = FuzzFailure(trial=trial, vertices=coords, reason=reason)

    return FuzzSummary(
        seed=cfg.seed,
        trials=cfg.trials,
        coordinate_bound=cfg.coordinate_bound,
        steps=cfg.steps,
        first_failure=first_failure,
        **counts,
    )


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Signed positions of the centroids along the line, and distance ratios.

    projections[i] is the parameter of centroid G_{indices[i]} along the
    line direction, measured from the vertex centroid (the orbit limit);
    None marks a nonzero parameter that is not a normal double (it
    overflows, or falls under 2.2e-308 where it turns to rounding noise),
    while an exact zero reads 0.0. sign_changes counts sign flips of that
    position sequence, decided on the exact values; the closed form
    implies at most one. stable_from is the least listed index from which
    consecutive projection differences keep a single sign through the
    horizon ("eventually monotonic").

    distance_ratios[i] is |G_{n+1} - limit| / |G_n - limit| for
    n = indices[i]; None marks a gap (non-consecutive defined iterates),
    a centroid sitting exactly on the limit, or a squared distance that
    is not a normal double. The ratios approach 1/2 whenever the leading
    mode imbalance |xi_1|^2 - |xi_5|^2 is nonzero.
    """

    indices: tuple[int, ...]
    projections: tuple[float | None, ...]
    stable_from: int | None
    sign_changes: int
    distance_ratios: tuple[float | None, ...]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _normal_quotient(num: int, den: int) -> float | None:
    """num / den correctly rounded: 0.0 when num is 0, else None unless a normal double."""
    if num == 0:
        return 0.0
    try:
        q = num / den
    except OverflowError:
        return None
    return q if abs(q) >= sys.float_info.min else None


def convergence_diagnostics(p: Polygon, n: int) -> ConvergenceDiagnostics:
    """Projection and distance-ratio diagnostics for a hexagon orbit.

    Runs the theorem check; see diagnostics_from_report.
    """
    return diagnostics_from_report(verify_hexagon_theorem(p, n))


def diagnostics_from_report(report: ColinearityReport) -> ConvergenceDiagnostics:
    """Projection and distance-ratio diagnostics from a finished theorem check.

    Every value starts as an exact ratio of integers: signs are decided
    on those, and each reported float is the correctly rounded quotient,
    or None where that is not a normal double.
    Requires at least three defined centroids past the first iterate.
    """
    lx, ly, lw = report.limit
    defined = [(k, g) for k, g in enumerate(report.orbit) if k >= 1 and g is not None]
    if len(defined) < 3:
        raise InsufficientDataError("need at least three defined centroids")

    # the report's triples have w > 0. direction = (dx, dy) / c; centroid minus limit = (ox, oy) / ow
    dx, dy, c = (1, 0, 1) if report.direction is None else report.direction
    norm2 = dx * dx + dy * dy
    offsets = [(x * lw - lx * w, y * lw - ly * w, w * lw) for _, (x, y, w) in defined]

    indices = tuple(k for k, _ in defined)
    # parameter along the line, (offset . direction) / |direction|^2, as num / den with den > 0
    params = [((ox * dx + oy * dy) * c, ow * norm2) for ox, oy, ow in offsets]

    signs = [_sign(num) for num, _ in params]
    nonzero = [s for s in signs if s != 0]
    sign_changes = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)

    diff_signs = [_sign(nb * da - na * db) for (na, da), (nb, db) in zip(params, params[1:])]
    stable_from: int | None = None
    run_sign = 0
    for pos in range(len(diff_signs) - 1, -1, -1):
        s = diff_signs[pos]
        if s == 0:
            continue
        if run_sign == 0:
            run_sign = s
        elif s != run_sign:
            stable_from = indices[pos + 1]
            break
    if stable_from is None:
        stable_from = indices[0]

    dist2 = [_normal_quotient(ox * ox + oy * oy, ow * ow) for ox, oy, ow in offsets]
    ratios = [
        None if kb != ka + 1 or not a2 or not b2 else math.sqrt(b2) / math.sqrt(a2)
        for (ka, _), (kb, _), a2, b2 in zip(defined, defined[1:], dist2, dist2[1:])
    ]

    return ConvergenceDiagnostics(
        indices=indices,
        projections=tuple(_normal_quotient(num, den) for num, den in params),
        stable_from=stable_from,
        sign_changes=sign_changes,
        distance_ratios=tuple(ratios),
    )
