"""Command-line surface: polygon documents, verification runs, SVG figures.

Documents and reports are JSON with a schema field, emitted with sorted
keys and fixed indentation so identical inputs produce identical bytes.
Exact values travel as fraction strings ("3", "-5/3") to avoid silent
precision loss; the float path prints decimals with 17 significant
digits. Number formatting never depends on the locale.

Each command, its runner, positionals and options are described once, in
the table _COMMANDS, each argument by the keywords that argparse's
add_argument takes. main reads a command line against that table
directly and declines any token it does not fully understand (help, "--",
an abbreviated or "--opt=value" option, a value that is empty, starts
with "-" or fails its type or choices, a missing required option, a
wrong number of positionals). Only a declined line imports argparse: the
parser built once from the same table reads it, so every usage error and
all help come from argparse, as before.

Exit status contract, stable across releases:
    0  all checks pass
    1  verified violation
    2  usage or parse error
    3  insufficient data (too few defined centroids)
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace

from . import spectral
from .errors import (
    ExactModeError,
    InsufficientDataError,
    PolygonDocumentError,
    WrongSizeError,
)
from .exact_poly import (
    Homogeneous,
    PlanePoint,
    Polygon,
    lattice_centroids,
    lattice_mean,
    lattice_orbit,
    same_point,
    to_lattice,
)
from .record import Record
from .verify import (
    RATIO_REL_TOL,
    FuzzConfig,
    diagnostics_from_report,
    fuzz_hexagons,
    verify_hexagon_theorem,
    verify_proposition,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT = 3

# Cost bounds of the printed orbits. Iterate n has numbers of about 2.6 n
# bits: at 2000 steps `cmd_iterate` builds 14.3 MiB of the README hexagon's
# exact iterates in about 0.2 s and `cmd_figure` converts them all to floats
# and draws them in about 0.15 s (timeit best of 5, Python 3.11.7, 2-vCPU Xeon).
ITERATE_MAX_STEPS = 2000
FIGURE_MAX_STEPS = 2000
# figure scales an extent of at least 1e-12 (a smaller one is widened to 1)
# onto a canvas side less its margins; up to this side that scale is finite.
FIGURE_MAX_SIDE = 10**296

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FRACTION_RE = re.compile(r"[+-]?\d+/(\d+)\Z")
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")


def _classify(token: str) -> str:
    if _INT_RE.match(token):
        return "int"
    fraction = _FRACTION_RE.match(token)
    if fraction:
        if int(fraction.group(1)) == 0:
            raise PolygonDocumentError(f"zero denominator in {token!r}")
        return "fraction"
    if _DECIMAL_RE.match(token):
        return "decimal"
    raise PolygonDocumentError(f"unrecognized coordinate {token!r}")


def parse_polygon_document(text: str) -> list[tuple[str, str]]:
    """Parse a polygon document into coordinate string pairs.

    The document is a JSON object with a "vertices" list of [x, y] string
    pairs; each coordinate is an integer, an exact fraction like "22/7",
    or a decimal (float mode only). Malformed input raises
    PolygonDocumentError.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolygonDocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise PolygonDocumentError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "vertices" not in data:
        raise PolygonDocumentError('document must be an object with a "vertices" list')
    raw = data["vertices"]
    if not isinstance(raw, list) or not raw:
        raise PolygonDocumentError('"vertices" must be a nonempty list')
    pairs = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise PolygonDocumentError(f"vertex must be an [x, y] pair, got {entry!r}")
        coords = []
        for token in entry:
            if not isinstance(token, str):
                raise PolygonDocumentError(f"coordinate must be a string, got {token!r}")
            _classify(token)
            coords.append(token)
        pairs.append((coords[0], coords[1]))
    return pairs


def to_exact_polygon(pairs: list[tuple[str, str]]) -> Polygon:
    """Exact-mode conversion: decimals are rejected, never rounded in."""
    vertices = []
    for sx, sy in pairs:
        for token in (sx, sy):
            if _classify(token) == "decimal":
                raise ExactModeError(f"decimal coordinate {token!r} not allowed in exact mode")
        vertices.append(PlanePoint(Fraction(sx), Fraction(sy)))
    return Polygon(tuple(vertices))


def _float_coordinate(token: str) -> float:
    """As float(Fraction(token)), but a decimal costs the same whatever its exponent."""
    try:
        if _classify(token) != "decimal":
            return float(Fraction(token))
        value = float(token)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise PolygonDocumentError("coordinate out of float range")
    # float("-0.0") is -0.0, a Fraction zero +0.0; an underflow keeps its sign either way
    return value if value or Fraction(_DECIMAL_RE.match(token).group(1)) else 0.0


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# exact type -> C-level formatter; its text then passes through _JSON_NONFINITE,
# which only a float's can match
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(payload) -> str:
    """The text of payload as the json module prints it with indent=2 and
    sorted keys, plus a final newline, written without its pure-Python encoder.

    payload is a dict, list, tuple or _TextPair; below it, items are these
    or str, int, bool, float and None, each of that exact type, and dict
    keys are str. Any other type, a subclass of one of these included,
    raises TypeError.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


class _TextPair(tuple):
    """Two strings that need no JSON escaping, such as "-5/3" or "1e+308": _pair_template(newline) % pair."""


_pair_template = '[{0}  "%s",{0}  "%s"{0}]'.format


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the indented JSON text of value; newline opens its nested lines.

    Dispatches on exact types only. A _TextPair fills a template. A list,
    tuple or dict writes its items of an exact type in _JSON_SCALARS in
    place and recurses for the rest; five or more items of one exact type,
    int, finite float or _TextPair, are one join (fewer cost less in the
    loop). Any other type, such as an IntEnum or a dict subclass, raises
    TypeError.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kind = type(value[0])
        if len(value) > 4 and kind in (int, float, _TextPair) and len(set(map(type, value))) == 1:
            fmt = _pair_template(inner).__mod__ if kind is _TextPair else kind.__repr__
            text = ("," + inner).join(map(fmt, value))
            if kind is not float or "n" not in text:  # nan, inf and -inf: the loop prints NaN, Infinity
                out.append("[" + inner + text + newline + "]")
                return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            fmt = _JSON_SCALARS.get(type(item))
            if fmt is None:
                _write_json(item, inner, out)
            else:
                text = fmt(item)
                out.append(_JSON_NONFINITE.get(text, text))
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep)
            out.append(_json_str(key))
            out.append(": ")
            fmt = _JSON_SCALARS.get(type(item))
            if fmt is None:
                _write_json(item, inner, out)
            else:
                text = fmt(item)
                out.append(_JSON_NONFINITE.get(text, text))
            sep = "," + inner
        out.append(newline + "}")
    elif kind is _TextPair:
        out.append(_pair_template(newline) % value)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _reduced_text(x: int, w_odd: int, tw: int) -> str:
    """str(Fraction(x, w_odd << tw)) for odd w_odd > 0: gcd(x, w) = gcd(x_odd, w_odd) << min(tv, tw), 2^tv in x."""
    if not x:
        return "0"
    tv = (x & -x).bit_length() - 1
    g = math.gcd(x >> tv, w_odd)
    t = min(tv, tw)
    den = w_odd // g << (tw - t)
    return str((x >> t) // g) if den == 1 else f"{(x >> t) // g}/{den}"


def _homogeneous_json(h: Homogeneous | None):
    """The point (x / w, y / w), w > 0, as a _TextPair of fraction strings, w's odd part found once."""
    if h is None:
        return None
    x, y, w = h
    tw = (w & -w).bit_length() - 1
    w_odd = w >> tw
    return _TextPair((_reduced_text(x, w_odd, tw), _reduced_text(y, w_odd, tw)))


# ---------------------------- subcommands ----------------------------


def cmd_iterate(pairs: list[tuple[str, str]], steps: int, mode: str) -> tuple[int, str]:
    """List every midpoint iterate of the input polygon; steps is at most ITERATE_MAX_STEPS."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps > ITERATE_MAX_STEPS:
        raise ValueError(f"at most {ITERATE_MAX_STEPS} iterations, got {steps}")
    if mode == "exact":
        orbit = lattice_orbit(*to_lattice(to_exact_polygon(pairs)), steps)
        polys = [[_homogeneous_json((x, y, w)) for x, y in zip(xs, ys)] for w, xs, ys in orbit]
    else:
        current = spectral.FloatPolygon(tuple(complex(*map(_float_coordinate, pair)) for pair in pairs))
        chain = [current]
        for _ in range(steps):
            current = spectral.midpoint_map(current)
            chain.append(current)
        polys = [[_TextPair((f"{v.real:.17g}", f"{v.imag:.17g}")) for v in q] for q in chain]
    payload = {"schema": "iterates/1", "mode": mode, "steps": steps, "polygons": polys}
    return EXIT_OK, _dumps(payload)


def cmd_verify(pairs: list[tuple[str, str]], steps: int) -> tuple[int, str]:
    """Exact centroid-line check for a hexagon document."""
    poly = to_exact_polygon(pairs)
    if len(poly) != 6:
        raise WrongSizeError(f"verify requires a hexagon, got {len(poly)} vertices")
    try:
        report = verify_hexagon_theorem(poly, steps)
    except InsufficientDataError as exc:
        payload = {
            "schema": "verify/1",
            "error": "insufficient data",
            "detail": str(exc),
            "steps": steps,
        }
        return EXIT_INSUFFICIENT, _dumps(payload)

    try:
        mono = vars(diagnostics_from_report(report))
    except InsufficientDataError:
        mono = None

    payload = {
        "schema": "verify/1",
        "steps": steps,
        "all_colinear": report.all_colinear,
        "first_violation": report.first_violation,
        "line": {
            "anchor": _homogeneous_json(report.anchor),
            "direction": _homogeneous_json(report.direction),
        },
        "g0_on_line": report.g0_on_line,
        "limit_point": _homogeneous_json(report.limit),
        "limit_on_line": report.limit_on_line,
        "centroids": [_homogeneous_json(g) for g in report.orbit],
        "monotonicity": mono,
    }
    code = EXIT_OK if report.passed else EXIT_VIOLATION
    return code, _dumps(payload)


def cmd_fuzz(cfg: FuzzConfig) -> tuple[int, str]:
    """Seeded random campaign over integer hexagons."""
    summary = fuzz_hexagons(cfg)
    payload = {"schema": "fuzz/1", **vars(summary)}
    if summary.first_failure is not None:
        payload["first_failure"] = vars(summary.first_failure)
    code = EXIT_OK if summary.failures == 0 else EXIT_VIOLATION
    return code, _dumps(payload)


def cmd_proposition(m: int, steps: int, tolerance: float) -> tuple[int, str]:
    """Slope check for the counterexample m-gon."""
    report = verify_proposition(m, steps, rel_tol=tolerance)
    payload = {
        "schema": "proposition/1",
        **vars(report),
        "steps": steps,
        "passed": report.passed,
        "centroids": [None if z is None else [z.real, z.imag] for z in report.centroids],
    }
    code = EXIT_OK if report.passed else EXIT_VIOLATION
    return code, _dumps(payload)


# ------------------------------ figures ------------------------------


class FigureSpec(Record):
    """Declarative description of the iterated-hexagon drawing."""

    steps: int = 13
    show_line: bool = True
    show_centroids: bool = True
    fade_start: float = 1.0
    fade_end: float = 0.1
    width: int = 800
    height: int = 600

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.steps > FIGURE_MAX_STEPS:
            raise ValueError(f"at most {FIGURE_MAX_STEPS} iterations, got {self.steps}")
        for value in (self.fade_start, self.fade_end):
            if not 0.0 <= value <= 1.0:
                raise ValueError("opacities must lie in [0, 1]")
        if self.width < 1 or self.height < 1:
            raise ValueError("canvas must be at least 1x1")
        if self.width > FIGURE_MAX_SIDE or self.height > FIGURE_MAX_SIDE:
            raise ValueError(f"canvas sides must be at most {FIGURE_MAX_SIDE:.0e}")


def _clip_infinite_line(ax, ay, dx, dy, width, height):
    """The canvas chord of the line through (ax, ay), a point strictly inside, along (dx, dy), |dx| or |dy| >= 1e-12."""
    t0, t1 = -math.inf, math.inf
    for a, d, hi in ((ax, dx, float(width)), (ay, dy, float(height))):
        if abs(d) >= 1e-12:
            ta, tb = (0.0 - a) / d, (hi - a) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    return (ax + t0 * dx, ay + t0 * dy), (ax + t1 * dx, ay + t1 * dy)


def render_figure(poly: Polygon, spec: FigureSpec) -> str:
    """SVG of the iterated hexagon: fading iterates, centroid dots, one line.

    The iterates, centroids, and line are computed exactly on the integer
    lattice; coordinates are converted to float for rendering only. Output
    bytes depend only on the input polygon and the figure spec.
    """
    if len(poly) != 6:
        raise WrongSizeError(f"figure requires a hexagon, got {len(poly)} vertices")

    scale, xs, ys = to_lattice(poly)
    centroids = lattice_centroids(scale, xs, ys, spec.steps)
    limit = lattice_mean(scale, xs, ys)
    orbit = lattice_orbit(scale, xs, ys, spec.steps)
    world = [spectral.to_float_points(zip(xs, ys, repeat(w))) for w, xs, ys in orbit]
    # the limit, then G_0 .. G_n; an undefined centroid holds the limit's place
    marks = spectral.to_float_points((limit, *(limit if g is None else g for g in centroids)))
    xs = [z.real for q in world for z in q]
    ys = [z.imag for q in world for z in q]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    if math.isinf(max_x - min_x) or math.isinf(max_y - min_y):
        raise PolygonDocumentError("polygon spans more than the float range")
    if max_x - min_x < 1e-12:
        min_x -= 0.5
        max_x += 0.5
    if max_y - min_y < 1e-12:
        min_y -= 0.5
        max_y += 0.5

    margin = 0.05 * min(spec.width, spec.height)
    scale = min(
        (spec.width - 2 * margin) / (max_x - min_x),
        (spec.height - 2 * margin) / (max_y - min_y),
    )
    off_x = (spec.width - scale * (max_x - min_x)) / 2.0
    off_y = (spec.height - scale * (max_y - min_y)) / 2.0

    def to_screen(x: float, y: float) -> tuple[float, float]:
        sx, sy = off_x + (x - min_x) * scale, spec.height - off_y - (y - min_y) * scale
        # an iterate lies in the extent; a centroid far outside it can overflow
        if math.isinf(sx) or math.isinf(sy):
            raise PolygonDocumentError("centroid lies beyond the float range of the drawing")
        return sx, sy

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{spec.width}" height="{spec.height}" '
            f'viewBox="0 0 {spec.width} {spec.height}">'
        ),
    ]

    for step, q in enumerate(world):
        frac = step / spec.steps
        opacity = spec.fade_start + (spec.fade_end - spec.fade_start) * frac
        pts = " ".join("{:.3f},{:.3f}".format(*to_screen(z.real, z.imag)) for z in q)
        parts.append(
            f'  <polygon points="{pts}" fill="none" stroke="#606060" '
            f'stroke-width="1.5" stroke-opacity="{opacity:.4f}"/>'
        )

    if spec.show_line:
        first = next((n for n, g in enumerate(centroids) if n >= 1 and g is not None), None)
        if first is not None and not same_point(centroids[first], limit):
            ax, ay = to_screen(marks[0].real, marks[0].imag)
            bx, by = to_screen(marks[first + 1].real, marks[first + 1].imag)
            dx, dy = bx - ax, by - ay
            if abs(dx) < 1e-12 and abs(dy) < 1e-12:
                # both marks land on one screen point: direct the line along their
                # world difference, y flipped as on screen, or draw none without one
                d = marks[first + 1] - marks[0]
                norm = max(abs(d.real), abs(d.imag))
                dx, dy = (d.real / norm, -d.imag / norm) if 0.0 < norm < math.inf else (0.0, 0.0)
            if dx or dy:
                (x1, y1), (x2, y2) = _clip_infinite_line(ax, ay, dx, dy, spec.width, spec.height)
                parts.append(
                    f'  <line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                    f'stroke="#000000" stroke-width="1.2"/>'
                )

    if spec.show_centroids:
        for g, z in zip(centroids, marks.vertices[1:]):
            if g is None:
                continue
            cx, cy = to_screen(z.real, z.imag)
            parts.append(f'  <circle cx="{cx:.3f}" cy="{cy:.3f}" r="2.5" fill="#000000"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(pairs: list[tuple[str, str]], spec: FigureSpec) -> tuple[int, str]:
    poly = to_exact_polygon(pairs)
    return EXIT_OK, render_figure(poly, spec)


# ------------------------------ dispatch ------------------------------


def _config(cls, args):
    """The record cls built from the parsed options named after its fields."""
    return cls(**{name: getattr(args, name) for name in cls._fields})


# Every command line is read against this table, by _parse_fast or by the
# argparse parser _build_parser makes of it: each command's runner, help
# line, and positionals and options mapped to their add_argument keywords.
# Options named after a FuzzConfig or FigureSpec field take their defaults from that record.
_COMMANDS = {
    "iterate": (
        lambda a: cmd_iterate(_read_document(a.input), a.steps, a.mode),
        "print every midpoint iterate of a polygon",
        {"input": {"help": "polygon document (JSON file)"}},
        {
            "--steps": {"dest": "steps", "type": int, "default": 12},
            "--mode": {"dest": "mode", "default": "exact", "choices": ("exact", "float")},
            "--output": {"dest": "output"},
        },
    ),
    "verify": (
        lambda a: cmd_verify(_read_document(a.input), a.steps),
        "check the hexagon centroid line, exactly",
        {"input": {"help": "hexagon document (JSON file)"}},
        {"--steps": {"dest": "steps", "type": int, "default": 12}, "--output": {"dest": "output"}},
    ),
    "fuzz": (
        lambda a: cmd_fuzz(_config(FuzzConfig, a)),
        "seeded random campaign over integer hexagons",
        {},
        {
            "--seed": {"dest": "seed", "type": int, "default": FuzzConfig.seed},
            "--trials": {"dest": "trials", "type": int, "default": FuzzConfig.trials},
            "--bound": {"dest": "coordinate_bound", "type": int, "default": FuzzConfig.coordinate_bound,
                        "metavar": "BOUND"},
            "--steps": {"dest": "steps", "type": int, "default": FuzzConfig.steps},
            "--output": {"dest": "output"},
        },
    ),
    "proposition": (
        lambda a: cmd_proposition(a.m, a.steps, a.tolerance),
        "slope counterexample check for m-gons",
        {"m": {"type": int, "help": "vertex count (5 or at least 7)"}},
        {
            "--steps": {"dest": "steps", "type": int, "default": 10},
            "--tolerance": {"dest": "tolerance", "type": float, "default": RATIO_REL_TOL},
            "--output": {"dest": "output"},
        },
    ),
    "figure": (
        lambda a: cmd_figure(_read_document(a.input), _config(FigureSpec, a)),
        "render the iterated hexagon as an SVG",
        {"input": {"help": "hexagon document (JSON file)"}},
        {
            "--steps": {"dest": "steps", "type": int, "default": FigureSpec.steps},
            "--output": {"dest": "output", "required": True},
            "--no-line": {"dest": "show_line", "action": "store_false", "default": FigureSpec.show_line},
            "--no-centroids": {"dest": "show_centroids", "action": "store_false",
                               "default": FigureSpec.show_centroids},
            "--fade-start": {"dest": "fade_start", "type": float, "default": FigureSpec.fade_start},
            "--fade-end": {"dest": "fade_end", "type": float, "default": FigureSpec.fade_end},
            "--width": {"dest": "width", "type": int, "default": FigureSpec.width},
            "--height": {"dest": "height", "type": int, "default": FigureSpec.height},
        },
    ),
}

# Each command's option values before its command line is read, and its
# required option strings: built once, since _parse_fast reads them on every run.
_PRESETS = {
    name: ({keywords["dest"]: keywords.get("default") for keywords in options.values()},
           [flag for flag, keywords in options.items() if keywords.get("required")])
    for name, (_, _, _, options) in _COMMANDS.items()
}


def _parse_fast(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse sets for argv, or None where it might read argv otherwise.

    Reads a command name, then the command's positionals and its exact
    option strings, a valued option followed by a value that is neither
    empty nor starts with "-". Values are converted by the same callables
    argparse calls. Any other token, such as "-h", "--", "--st",
    "--steps=3" or "-1", a value that fails its conversion or its
    choices, a missing required option or a wrong number of positionals
    returns None. It reads an option's dest, type, default, choices,
    required and action, always "store_false", and a positional's type.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    run, _, positionals, options = command
    defaults, required = _PRESETS[argv[0]]
    values = dict(defaults)
    given = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token:
                return None
            if token[0] != "-":
                given.append(token)
                continue
            keywords = options.get(token)
            if keywords is None:
                return None
            if "action" in keywords:
                values[keywords["dest"]] = False
                continue
            text = next(tokens, "")
            if not text or text[0] == "-":
                return None
            value = keywords["type"](text) if "type" in keywords else text
            if "choices" in keywords and value not in keywords["choices"]:
                return None
            values[keywords["dest"]] = value
        if len(given) != len(positionals):
            return None
        for (name, keywords), text in zip(positionals.items(), given):
            values[name] = keywords["type"](text) if "type" in keywords else text
    except (TypeError, ValueError):  # what argparse reports as an invalid value
        return None
    # every token that starts with "-" was read as an option above
    if any(flag not in argv for flag in required):
        return None
    return SimpleNamespace(command=argv[0], run=run, **values)


@functools.cache
def _build_parser():
    """The argparse parser of _COMMANDS, for the command lines _parse_fast declines.

    It prints every usage error and all help. Each command's parser
    registers the command's runner as `run`.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="midpoly",
        description="Midpoint iteration on polygons: exact centroid-line verification and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, summary, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key, keywords in {**positionals, **options}.items():
            p.add_argument(key, **keywords)
        p.set_defaults(run=run)
    return parser


def _read_document(path: str) -> list[tuple[str, str]]:
    try:
        with open(path, encoding="utf-8") as document:
            text = document.read()
    except OSError as exc:
        raise PolygonDocumentError(f"cannot read {path}: {exc}") from exc
    return parse_polygon_document(text)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        code, text = args.run(args)
    except ValueError as exc:
        # Python 3.10 words the integer-string limit "(4300)", 3.11 on "(4300 digits)"
        message = re.sub(r"\A(Exceeds the limit \(\d+)\)", r"\1 digits)", str(exc))
        print(f"midpoly: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientDataError as exc:
        print(f"midpoly: insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT

    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                out.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"midpoly: error: cannot write {args.output or 'output'}: {exc}", file=sys.stderr)
        if not args.output:
            _discard_stdout()
        return EXIT_USAGE
    return code


def _discard_stdout() -> None:
    """Point the stdout descriptor at the null device.

    The bytes of a failed write stay in stdout's buffer, and the interpreter
    flushes it again at exit; without this, that second failure prints an
    "Exception ignored" traceback and turns exit status 2 into 120.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
