"""Document parsing, report serialization, exit codes, command-line reading and SVG output."""

import enum
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from golden.record import MANIFEST
from midpoly.cli import (
    EXIT_INSUFFICIENT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    FIGURE_MAX_STEPS,
    ITERATE_MAX_STEPS,
    FigureSpec,
    _dumps,
    _homogeneous_json,
    _COMMANDS,
    _build_parser,
    _parse_fast,
    _TextPair,
    cmd_figure,
    cmd_fuzz,
    cmd_iterate,
    cmd_proposition,
    cmd_verify,
    main,
    parse_polygon_document,
    render_figure,
    to_exact_polygon,
)
from midpoly.errors import (
    ExactModeError,
    PolygonDocumentError,
    WrongSizeError,
)
from midpoly.exact_poly import Polygon
from midpoly.spectral import to_float_polygon
from midpoly.verify import (
    FUZZ_MAX_BOUND,
    FUZZ_MAX_STEPS,
    FUZZ_MAX_TRIALS,
    PROPOSITION_MAX_M,
    PROPOSITION_MAX_STEPS,
    VERIFY_MAX_STEPS,
    FuzzConfig,
    _decide_line,
    fuzz_hexagons,
)

HEX_DOC = {
    "schema": "polygon/1",
    "vertices": [
        ["0", "2/5"],
        ["16/5", "1/2"],
        ["3", "-1/2"],
        ["12/5", "2"],
        ["-2", "5/2"],
        ["-3/10", "6/5"],
    ],
}
SQUARE_DOC = {"vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]}
CONSTANT_HEX_DOC = {"vertices": [["1", "1"]] * 6}
L_HEX_DOC = {
    "vertices": [["0", "0"], ["2", "0"], ["2", "1"], ["1", "1"], ["1", "2"], ["0", "2"]]
}
# G_1 differs from the limit by about 1e-17, so both land on one screen point.
TINY_OFFSET_HEX_DOC = {
    "vertices": [["1", "1/10000000000000000"], ["0", "1"], ["-1", "1"],
                 ["-1", "0"], ["0", "-1"], ["1", "-1"]]
}
# Each coordinate is a double, but max x - min x is not.
WIDE_HEX_DOC = {
    "vertices": [[x, str(k)] for k, x in enumerate(["1" + "0" * 308, "-1" + "0" * 308] * 2 + ["0", "0"])]
}


def far_centroid_hex_doc(exponent: int) -> dict:
    """A hexagon of area 10^-exponent / 4; G_0 and G_1 lie at x = -10^exponent / 1.5 and / 3."""
    tiny = "1/1" + "0" * exponent
    return {"vertices": [["0", "0"], ["1/2", "1/2"], ["1", "1"], ["1", tiny], ["1/2", "1/2"], ["0", "1"]]}


# Reports of the Fraction-based implementation that the integer-lattice
# kernel replaced; the kernel must reproduce them byte for byte.
VERIFY_HEX_200_SHA256 = "c607ac1ffc1aae1e38ba85cd1828cf045cc5078152922d0d5ccf650da697ed60"
# `iterate --steps 30` and the default `figure` of the Fraction-loop
# midpoint map, shoelace sums and centroid, which the lattice kernel replaced.
ITERATE_HEX_30_SHA256 = "7845dfdab0b13fe53ec7f7efc58ab4813accd253c7f48155430432cdcc78a009"
FIGURE_HEX_SHA256 = "0528ad5898ee8f0ef27aecdd21ca0798cfef742c5c4fc0743927b3610d2148e5"
# A rational hexagon with L = 10, the first seed-1 document of the
# benchmark's `deep_orbit` workload. `iterate --steps 200` and
# `figure --steps 200` of it were recorded on the route that built every
# iterate as a Fraction polygon and printed it with str(Fraction) or
# converted it with float(Fraction); printing straight from the lattice
# must reproduce them.
DEEP_HEX_DOC = {
    "vertices": [["-23/10", "-32/5"], ["-5", "17/5"], ["4", "-28/5"],
                 ["-37/5", "3/2"], ["-4", "17/5"], ["-11/10", "-27/5"]]
}
ITERATE_DEEP_HEX_200_SHA256 = "b925bb19dfadf474083f2dc8690d6dff45e5830bd645bd6fb25f2a424e7b882a"
FIGURE_DEEP_HEX_200_SHA256 = "de840a343a3b0e4ebac264e75c7c3339132d5c4fb82902d798092c991a7df05e"
# Reports of the dense mode sums that the support-only sums replaced.
PROPOSITION_SHA256 = {
    "64": "4f20efd663d9d93143611584aedfc4f5891cdaae2d4532d98ccdf05c772bdfb8",
    "7": "0b32af5ec344353dfb3e19a1f186b1b38febccecdff52261c760b57f1e635835",
}
FUZZ_SEED_42_REPORT = """\
{
  "coordinate_bound": 9,
  "first_failure": null,
  "g0_on_line_false": 991,
  "g0_on_line_true": 2,
  "insufficient_data": 0,
  "schema": "fuzz/1",
  "seed": 42,
  "steps": 12,
  "theorem_failures": 0,
  "theorem_passes": 1000,
  "trials": 1000,
  "undefined_centroids": 8,
  "z_scaling_failures": 0,
  "z_scaling_passes": 1000
}
"""

SRC = Path(__file__).resolve().parent.parent / "src"

# Nested far past the recursion limit of the JSON decoder.
DEEP_DOCUMENT = '{"vertices": ' + "[" * 200_000 + "]" * 200_000 + "}"


def doc(payload) -> list[tuple[str, str]]:
    return parse_polygon_document(json.dumps(payload))


class TestDocumentParsing:
    def test_accepts_all_coordinate_forms(self):
        pairs = doc({"vertices": [["3", "-7"], ["22/7", "-5/3"], ["1.25", ".5"]]})
        assert pairs == [("3", "-7"), ("22/7", "-5/3"), ("1.25", ".5")]

    def test_rejects_bad_json(self):
        with pytest.raises(PolygonDocumentError):
            parse_polygon_document("not json {")

    def test_rejects_missing_vertices(self):
        with pytest.raises(PolygonDocumentError):
            parse_polygon_document('{"schema": "polygon/1"}')

    def test_rejects_empty_vertex_list(self):
        with pytest.raises(PolygonDocumentError):
            parse_polygon_document('{"vertices": []}')

    def test_rejects_non_pair(self):
        with pytest.raises(PolygonDocumentError):
            parse_polygon_document('{"vertices": [["1", "2", "3"]]}')

    def test_rejects_numeric_coordinates(self):
        with pytest.raises(PolygonDocumentError):
            parse_polygon_document('{"vertices": [[1, 2]]}')

    def test_rejects_garbage_token(self):
        with pytest.raises(PolygonDocumentError):
            parse_polygon_document('{"vertices": [["one", "2"]]}')

    def test_rejects_zero_denominator(self):
        # \d matches any Unicode decimal digit: "\u0661/\u0660" is Arabic-Indic 1/0
        for token in ("1/0", "-3/000", "\u0661/\u0660"):
            with pytest.raises(PolygonDocumentError, match="^zero denominator in "):
                parse_polygon_document(json.dumps({"vertices": [[token, "2"]]}))


class TestFractionText:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(2**500), 2**500), st.integers(-(2**500), 2**500), st.integers(1, 2**500))
    @example(0, 0, 7)
    @example(0, 5, 1)
    @example(-6, 6, 4)
    @example(2**500, -(2**500), 2**499)
    @example(3**300, 2**300, 2**500 - 1)
    def test_matches_str_fraction(self, x, y, w):
        pair = _homogeneous_json((x, y, w))
        assert type(pair) is _TextPair
        assert pair == (str(Fraction(x, w)), str(Fraction(y, w)))


class TestModeConversion:
    def test_exact_rejects_decimals(self):
        with pytest.raises(ExactModeError):
            to_exact_polygon([("0.5", "1")])

    @pytest.mark.parametrize(
        "vertices, error",
        [
            ([["1" * 5000, "0"], ["0.5", "1"]], ValueError),
            ([["1" * 5000, "0.5"], ["1", "1"]], ExactModeError),
            ([["0.5", "0"], ["1" * 5000, "1"]], ExactModeError),
        ],
        ids=["long-int-then-decimal", "same-pair", "decimal-then-long-int"],
    )
    def test_exact_checks_pair_by_pair(self, vertices, error):
        # each pair is checked for decimals, then converted, before the next pair
        with pytest.raises(error) as info:
            to_exact_polygon(doc({"vertices": vertices}))
        assert (error is ExactModeError) == isinstance(info.value, ExactModeError)

    def test_exact_accepts_fractions(self):
        poly = to_exact_polygon([("22/7", "-5/3"), ("3", "0")])
        assert len(poly) == 2

    def test_float_accepts_all_forms(self):
        fp = to_float_polygon(Polygon.from_coords([("1/2", "0.25"), ("-3", "1e1")]))
        assert fp.vertices == (complex(0.5, 0.25), complex(-3.0, 10.0))

    def test_float_overflow_rejected(self):
        with pytest.raises(PolygonDocumentError):
            to_float_polygon(Polygon.from_coords([("1", "1e400")]))


class TestIterateCommand:
    def test_unit_square_one_step(self):
        code, text = cmd_iterate(doc(SQUARE_DOC), 1, "exact")
        assert code == EXIT_OK
        data = json.loads(text)
        assert data["schema"] == "iterates/1"
        assert data["polygons"][1] == [["1/2", "0"], ["1", "1/2"], ["1/2", "1"], ["0", "1/2"]]

    def test_constant_hexagon_fixed(self):
        code, text = cmd_iterate(doc(CONSTANT_HEX_DOC), 3, "exact")
        data = json.loads(text)
        assert len(data["polygons"]) == 4
        assert all(q == data["polygons"][0] for q in data["polygons"])

    def test_l_hexagon_two_steps(self):
        code, text = cmd_iterate(doc(L_HEX_DOC), 2, "exact")
        data = json.loads(text)
        assert data["polygons"][1] == [
            ["1", "0"],
            ["2", "1/2"],
            ["3/2", "1"],
            ["1", "3/2"],
            ["1/2", "2"],
            ["0", "1"],
        ]
        # second iterate: averages of the first, by hand
        assert data["polygons"][2] == [
            ["3/2", "1/4"],
            ["7/4", "3/4"],
            ["5/4", "5/4"],
            ["3/4", "7/4"],
            ["1/4", "3/2"],
            ["1/2", "1/2"],
        ]

    def test_float_mode_emits_decimals(self):
        code, text = cmd_iterate([("1/2", "0.25")], 0, "float")
        data = json.loads(text)
        assert data["mode"] == "float"
        assert data["polygons"][0][0] == ["0.5", "0.25"]

    def test_float_mode_two_steps(self):
        documents = [
            [("0", "0"), ("1", "0"), ("1/3", "0.7")],
            # -1e-400 reads as -0.0: the first midpoint is (1.5, -0.0)
            [("1", "-1e-400"), ("2", "-1e-400"), ("0", "1")],
            # 1.5e308 + 1.6e308 overflows, but their midpoint does not
            [("1.5e308", "0"), ("1.6e308", "1"), ("0", "1")],
            # the first midpoint is (-0.0, -1.5); the complex product
            # 0.5 * (q[k] + q[k+1]) gives its real part as 0.5 * -0.0 - 0.0 * -3.0 = 0.0
            [("-1e-400", "-1"), ("-1e-400", "-2"), ("1", "0")],
        ]

        def midpoint(a, b):
            # correctly rounded (a + b) / 2; a zero takes the sign of the float sum,
            # which is exact wherever the midpoint rounds to zero
            return float((Fraction(a) + Fraction(b)) / 2) or 0.5 * (a + b)

        for pairs in documents:
            code, text = cmd_iterate(pairs, 2, "float")
            assert code == EXIT_OK
            chain = [[(float(Fraction(x)), float(Fraction(y))) for x, y in pairs]]
            for _ in range(2):
                q = chain[-1]
                chain.append([(midpoint(a[0], b[0]), midpoint(a[1], b[1])) for a, b in zip(q, q[1:] + q[:1])])
            want = [[[f"{x:.17g}", f"{y:.17g}"] for x, y in q] for q in chain]
            assert json.loads(text)["polygons"] == want

    def test_exact_mode_rejects_decimal_document(self):
        with pytest.raises(ExactModeError):
            cmd_iterate([("0.5", "1")], 1, "exact")


class TestVerifyCommand:
    def test_random_hexagon_exit_ok(self):
        code, text = cmd_verify(doc(HEX_DOC), 12)
        assert code == EXIT_OK
        data = json.loads(text)
        assert data["all_colinear"] is True
        assert data["limit_on_line"] is True
        assert data["g0_on_line"] in (True, False)
        assert data["line"]["anchor"] is not None
        assert data["monotonicity"] is not None

    def test_g0_off_line_reported_with_exit_ok(self):
        pairs = [(str(x), str(y)) for x, y in
                 ((-8, -1), (-7, 4), (-1, -6), (-8, 3), (8, 8), (1, 1))]
        code, text = cmd_verify(pairs, 12)
        assert code == EXIT_OK
        data = json.loads(text)
        assert data["all_colinear"] is True
        assert data["g0_on_line"] is False

    def test_constant_hexagon_insufficient(self):
        code, text = cmd_verify(doc(CONSTANT_HEX_DOC), 12)
        assert code == EXIT_INSUFFICIENT
        assert json.loads(text)["error"] == "insufficient data"

    def test_wrong_size_raises(self):
        with pytest.raises(WrongSizeError):
            cmd_verify(doc(SQUARE_DOC), 12)


class TestFuzzCommand:
    def test_byte_determinism(self):
        a = cmd_fuzz(FuzzConfig(42, 25, 9, 8))
        b = cmd_fuzz(FuzzConfig(42, 25, 9, 8))
        assert a == b
        assert a[0] == EXIT_OK
        assert json.loads(a[1])["theorem_passes"] + json.loads(a[1])["insufficient_data"] == 25

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            cmd_fuzz(FuzzConfig(42, 0, 9, 8))

    def test_scaling_failure_recorded(self, monkeypatch):
        import midpoly.verify

        monkeypatch.setattr(midpoly.verify, "_z_scaling_holds", lambda xs, ys: False)
        code, text = cmd_fuzz(FuzzConfig(seed=42, trials=5, coordinate_bound=9, steps=8))
        assert code == EXIT_VIOLATION
        data = json.loads(text)
        assert data["z_scaling_failures"] == 5
        assert data["first_failure"]["trial"] == 0
        assert data["first_failure"]["reason"] == "moment scaling Z(Mv) != (3/8) Z(v) after projection"

    def test_failure_report_matches_json_module(self, monkeypatch):
        import midpoly.verify

        monkeypatch.setattr(midpoly.verify, "_z_scaling_holds", lambda xs, ys: False)
        cfg = FuzzConfig(seed=42, trials=5, coordinate_bound=9, steps=8)
        code, text = cmd_fuzz(cfg)
        summary = fuzz_hexagons(cfg)
        reference = {"schema": "fuzz/1", **vars(summary), "first_failure": vars(summary.first_failure)}
        assert text == json.dumps(reference, indent=2, sort_keys=True) + "\n"


# JSON-like values: every leaf type the report writer takes, the edge
# cases of each among them, nested in lists, tuples and str-keyed dicts.
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "é€\U0001f600", "\ud800"]),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=25,
)


fraction_strings = st.builds(lambda x, w: str(Fraction(x, w)), st.integers(-(2**200), 2**200), st.integers(1, 2**200))
# the two kinds of _TextPair member: exact fractions and float-mode decimals
pair_strings = st.one_of(fraction_strings, st.floats().map("{:.17g}".format))


class _Level(enum.IntEnum):
    LOW = 1


class _Tag(str):
    pass


class _Real(float):
    pass


class TestReportWriter:
    """_dumps prints what json.dumps(indent=2, sort_keys=True) prints, plus a newline."""

    @settings(max_examples=500, deadline=None)
    @given(json_values)
    @example([])
    @example({})
    @example(((), {}, [[]], {"b": {}, "a": ()}))
    @example({"\u00e9": [True, False, None, 0, -0.0, 2**64 + 1]})
    # subclasses of the scalar types are written as their base type
    @example(_Level.LOW)
    @example([_Level.LOW, _Tag("t\u00e9"), _Real(0.1), _Real("inf"), _Real("-inf"), _Real("nan")])
    @example({_Tag("k"): _Level.LOW, "r": (_Real(-0.0),), "t": {"x": _Tag("")}})
    def test_matches_json_module(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.tuples(pair_strings, pair_strings)), max_size=12))
    @example([("0", "-5/3")] * 5)
    @example([("-0", "1.5500000000000001e+308")] * 5)
    @example([("1", "2")] * 5 + [None])
    def test_fraction_pairs_match_plain_lists(self, items):
        pairs = [None if p is None else _TextPair(p) for p in items]
        plain = [None if p is None else list(p) for p in items]
        for value, reference in (
            (pairs, plain),
            ({"centroids": pairs, "limit_point": pairs[0] if pairs else None},
             {"centroids": plain, "limit_point": plain[0] if plain else None}),
            ([[pairs]], [[plain]]),
        ):
            assert _dumps(value) == json.dumps(reference, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.floats(), min_size=5, max_size=40),
                     st.lists(st.integers(), min_size=5, max_size=40)))
    @example([0.5] * 8 + [math.inf])
    @example([-math.inf] + [0.5] * 8)
    @example([1.0, 2.0, math.nan, 3.0, 4.0])
    @example([-0.0] * 6)
    @example([1, True])
    @example([1, 2, 3, 4, True])
    @example([True, 1, 2, 3, 4])
    @example([1, 2, 3, 4, _Level.LOW])
    @example([_Level.LOW] * 6)
    @example([1.0, 2.0, 3.0, 4.0, _Real(0.5)])
    @example([1.0, 2.0, 3.0, 4.0, 5])
    @example([])
    def test_homogeneous_lists_match_json_module(self, value):
        # five items and up, all of one exact type int or float, are written with one join
        for payload in (value, {"k": value}, [value, tuple(value)]):
            assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("leaf", [1 + 2j, Fraction(1, 3), {1, 2}, b"bytes"])
    def test_unsupported_leaf_raises_type_error(self, leaf):
        with pytest.raises(TypeError):
            json.dumps(leaf)
        for value in (leaf, [1, leaf], {"k": (leaf,)}):
            with pytest.raises(TypeError):
                _dumps(value)

    def test_non_string_key_raises_type_error(self):
        with pytest.raises(TypeError):
            _dumps({1: "one"})


class TestPropositionCommand:
    def test_heptagon_passes(self):
        code, text = cmd_proposition(7, 10, 1e-9)
        assert code == EXIT_OK
        data = json.loads(text)
        assert abs(data["expected_ratio"] - 0.2469796) <= 1e-6
        assert data["passed"] is True

    def test_pentagon_passes(self):
        code, text = cmd_proposition(5, 10, 1e-9)
        assert code == EXIT_OK
        assert abs(json.loads(text)["expected_ratio"] - (-0.3819660)) <= 1e-6

    def test_hexagon_unsupported(self):
        from midpoly.errors import UnsupportedSizeError

        with pytest.raises(UnsupportedSizeError):
            cmd_proposition(6, 10, 1e-9)

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_invalid_tolerance_exits_usage(self, tolerance, capsys):
        assert main(["proposition", "7", "--tolerance", tolerance]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("midpoly: error: ")

    def test_moment_underflow_exits_insufficient(self, capsys):
        # the heptagon's slopes shrink by about 0.247 a step; Z underflows at step 363
        assert main(["proposition", "7", "--steps", "364"]) == EXIT_INSUFFICIENT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "midpoly: insufficient data: moment Z underflows to zero at step 363\n"

    @pytest.mark.parametrize("m", sorted(PROPOSITION_SHA256))
    def test_bytes_unchanged(self, m, capsys):
        assert main(["proposition", m, "--steps", "10"]) == EXIT_OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == PROPOSITION_SHA256[m]

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([str(PROPOSITION_MAX_M + 1)], f"m must be at most {PROPOSITION_MAX_M}, got {PROPOSITION_MAX_M + 1}"),
            (["7", "--steps", str(PROPOSITION_MAX_STEPS + 1)],
             f"at most {PROPOSITION_MAX_STEPS} iterations, got {PROPOSITION_MAX_STEPS + 1}"),
        ],
        ids=["m", "steps"],
    )
    def test_cost_limits_exit_usage(self, argv, message, capsys):
        assert main(["proposition", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"midpoly: error: {message}\n"


class TestFigure:
    def test_element_counts(self):
        code, svg = cmd_figure(doc(HEX_DOC), FigureSpec(steps=13))
        assert code == EXIT_OK
        assert svg.count("<polygon") == 14
        assert svg.count("<line") == 1
        assert svg.count("<circle") == 14
        assert svg.startswith('<?xml version="1.0"')

    def test_no_line_flag(self):
        _, svg = cmd_figure(doc(HEX_DOC), FigureSpec(steps=13, show_line=False))
        assert svg.count("<line") == 0

    def test_no_centroids_flag(self):
        _, svg = cmd_figure(doc(HEX_DOC), FigureSpec(steps=13, show_centroids=False))
        assert svg.count("<circle") == 0

    def test_line_through_coincident_screen_points(self):
        for steps in (1, 13):
            _, svg = cmd_figure(doc(TINY_OFFSET_HEX_DOC), FigureSpec(steps=steps))
            assert "nan" not in svg and "inf" not in svg
            assert svg.count("<line") == 1

    def test_constant_hexagon_still_valid(self):
        _, svg = cmd_figure(doc(CONSTANT_HEX_DOC), FigureSpec(steps=5))
        assert svg.count("<polygon") == 6
        assert svg.count("<circle") == 0
        assert svg.count("<line") == 0
        assert svg.rstrip().endswith("</svg>")

    def test_byte_determinism(self):
        a = cmd_figure(doc(HEX_DOC), FigureSpec(steps=13))
        b = cmd_figure(doc(HEX_DOC), FigureSpec(steps=13))
        assert a == b

    def test_opacity_fades(self):
        _, svg = cmd_figure(doc(HEX_DOC), FigureSpec(steps=13, fade_start=1.0, fade_end=0.1))
        opacities = [float(x) for x in re.findall(r'stroke-opacity="([\d.]+)"', svg)]
        assert opacities[0] == 1.0
        assert abs(opacities[-1] - 0.1) < 1e-9
        assert all(a >= b for a, b in zip(opacities, opacities[1:]))

    def test_wrong_size(self):
        with pytest.raises(WrongSizeError):
            render_figure(Polygon.from_coords([(0, 0), (1, 0), (0, 1)]), FigureSpec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FigureSpec(steps=0)
        with pytest.raises(ValueError):
            FigureSpec(fade_start=1.5)


class TestMainEntry:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_verify_exit_codes(self, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["verify", hex_path, "--steps", "8"]) == EXIT_OK
        capsys.readouterr()

        const_path = self.write(tmp_path, "const.json", CONSTANT_HEX_DOC)
        assert main(["verify", const_path]) == EXIT_INSUFFICIENT
        capsys.readouterr()

        square_path = self.write(tmp_path, "sq.json", SQUARE_DOC)
        assert main(["verify", square_path]) == EXIT_USAGE
        capsys.readouterr()

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["iterate", str(bad)]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_file_exit(self, capsys):
        assert main(["verify", "/nonexistent/nope.json"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_file_named_as_typed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "./missing.json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "midpoly: error: cannot read ./missing.json: "
            "[Errno 2] No such file or directory: './missing.json'\n"
        )

    def test_proposition_exits(self, capsys):
        assert main(["proposition", "7"]) == EXIT_OK
        capsys.readouterr()
        assert main(["proposition", "6"]) == EXIT_USAGE
        capsys.readouterr()

    def test_figure_writes_identical_bytes(self, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert main(["figure", hex_path, "--steps", "13", "--output", str(out1)]) == EXIT_OK
        assert main(["figure", hex_path, "--steps", "13", "--output", str(out2)]) == EXIT_OK
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().count(b"<polygon") == 14

    def test_fuzz_stdout(self, capsys):
        assert main(["fuzz", "--trials", "10", "--steps", "6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["trials"] == 10

    def test_float_overflow_exits_usage(self, tmp_path, capsys):
        big = self.write(tmp_path, "big.json", {"vertices": [["1e400", "0"], ["1", "0"], ["0", "1"]]})
        assert main(["iterate", big, "--mode", "float"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("midpoly: error: ")
        assert captured.err.count("\n") == 1

    def test_figure_overflow_exits_usage(self, tmp_path, capsys):
        vertices = [["1" + "0" * 400, "0"], ["1", "0"], ["1", "1"], ["0", "1"], ["-1", "1"], ["0", "2"]]
        big = self.write(tmp_path, "big.json", {"vertices": vertices})
        out = tmp_path / "big.svg"
        assert main(["figure", big, "--output", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("midpoly: error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_figure_span_overflow_exits_usage(self, tmp_path, capsys):
        wide = self.write(tmp_path, "wide.json", WIDE_HEX_DOC)
        out = tmp_path / "wide.svg"
        assert main(["figure", wide, "--output", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "midpoly: error: polygon spans more than the float range\n"
        assert not out.exists()

    @pytest.mark.parametrize("exponent", [306, 307])
    @pytest.mark.parametrize("flags", [[], ["--no-line"], ["--no-centroids"]])
    def test_figure_centroid_overflow_exits_usage(self, tmp_path, capsys, exponent, flags):
        # a drawn centroid's screen x overflows to -inf although every coordinate is a double
        far = self.write(tmp_path, "far.json", far_centroid_hex_doc(exponent))
        out = tmp_path / "far.svg"
        assert main(["figure", far, "--output", str(out), *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "midpoly: error: centroid lies beyond the float range of the drawing\n"
        assert not out.exists()

    @pytest.mark.parametrize(("exponent", "flags"), [(305, []), (306, ["--no-line", "--no-centroids"])])
    def test_figure_far_centroid_drawn_or_left_out(self, tmp_path, exponent, flags):
        far = self.write(tmp_path, "far.json", far_centroid_hex_doc(exponent))
        out = tmp_path / "far.svg"
        assert main(["figure", far, "--output", str(out), *flags]) == EXIT_OK
        svg = out.read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_figure_flags(self, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        out = tmp_path / "bare.svg"
        argv = ["figure", hex_path, "--steps", "4", "--no-line", "--no-centroids",
                "--width", "40", "--height", "30", "--output", str(out)]
        assert main(argv) == EXIT_OK
        svg = out.read_text()
        assert svg.count("<polygon") == 5
        assert svg.count("<line") == svg.count("<circle") == 0
        assert 'width="40" height="30"' in svg

    def test_verify_huge_coordinate_null_ratios(self, tmp_path, capsys):
        vertices = [["1" + "0" * 400, "0"], ["1", "0"], ["1", "1"], ["0", "1"], ["-1", "1"], ["0", "2"]]
        big = self.write(tmp_path, "big.json", {"vertices": vertices})
        assert main(["verify", big, "--steps", "12"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["all_colinear"] is True
        assert data["monotonicity"]["distance_ratios"] == [None] * 11

    def test_verify_subnormal_distances_exit_ok(self, tmp_path, capsys):
        # from iterate 511 on the squared distance to the limit is below the normal doubles
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["verify", hex_path, "--steps", "538"]) == EXIT_OK
        ratios = json.loads(capsys.readouterr().out)["monotonicity"]["distance_ratios"]
        assert ratios[509:] == [None] * 28
        assert all(abs(r - 0.5) <= 1e-9 for r in ratios[100:509])

    def test_verify_subnormal_projections_null(self, tmp_path, capsys):
        # from iterate 1025 on the projection is below the normal doubles, -0.0 at 1099 and 1100
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["verify", hex_path, "--steps", "1100"]) == EXIT_OK
        mono = json.loads(capsys.readouterr().out)["monotonicity"]
        assert mono["indices"] == list(range(1, 1101))
        projections = mono["projections"]
        assert projections[1024:] == [None] * 76
        assert all(p <= -sys.float_info.min for p in projections[:1024])
        assert mono["sign_changes"] == 0

    def test_fuzz_coincident_centroids_pass(self, capsys):
        # trial 161: G_1 == G_2 != limit, so the line runs from G_1 to the limit
        assert main(["fuzz", "--seed", "7", "--trials", "300", "--bound", "1", "--steps", "2"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["first_failure"] is None

    def test_verify_coincident_centroids_line_runs_to_limit(self, tmp_path, capsys):
        coords = [(-1, 1), (-1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)]
        hex_path = self.write(tmp_path, "degen.json", {"vertices": [[str(x), str(y)] for x, y in coords]})
        assert main(["verify", hex_path, "--steps", "2"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["centroids"][1] == data["centroids"][2] == ["-5/12", "-5/36"]
        assert data["limit_point"] == ["-1/2", "1/6"]
        assert data["line"]["direction"] == ["-1/12", "11/36"]
        assert data["limit_on_line"] is True

    def test_verify_bytes_unchanged_at_200_steps(self, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["verify", hex_path, "--steps", "200"]) == EXIT_OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == VERIFY_HEX_200_SHA256

    def test_iterate_bytes_unchanged_at_30_steps(self, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["iterate", hex_path, "--steps", "30"]) == EXIT_OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == ITERATE_HEX_30_SHA256

    def test_figure_bytes_unchanged(self, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        out = tmp_path / "hex.svg"
        assert main(["figure", hex_path, "--output", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_HEX_SHA256

    def test_iterate_bytes_unchanged_at_200_steps(self, tmp_path, capsys):
        path = self.write(tmp_path, "deep.json", DEEP_HEX_DOC)
        assert main(["iterate", path, "--steps", "200"]) == EXIT_OK
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == ITERATE_DEEP_HEX_200_SHA256

    def test_figure_bytes_unchanged_at_200_steps(self, tmp_path, capsys):
        path = self.write(tmp_path, "deep.json", DEEP_HEX_DOC)
        out = tmp_path / "deep.svg"
        assert main(["figure", path, "--steps", "200", "--output", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_DEEP_HEX_200_SHA256

    def test_verify_limit_off_line_exits_violation(self, tmp_path, capsys, monkeypatch):
        # G_1..G_3 share the x-axis, so only the limit (0, 1) is off the line
        import midpoly.cli

        orbit = ((3, 4, 1), (0, 0, 1), (1, 0, 1), (2, 0, 1))
        report = _decide_line(orbit, (0, 1, 1))
        assert report.first_violation is None and not report.limit_on_line
        monkeypatch.setattr(midpoly.cli, "verify_hexagon_theorem", lambda poly, steps: report)
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["verify", hex_path, "--steps", "3"]) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert '"limit_on_line": false' in out
        assert json.loads(out)["all_colinear"] is True

    def test_verify_past_int_digit_limit_exits_usage(self, tmp_path, capsys):
        # a coordinate with 0.7 times the limit's digits parses, but the centroids print about twice as many
        previous = sys.get_int_max_str_digits()
        limit = previous or sys.int_info.default_max_str_digits
        digits = limit * 7 // 10
        vertices = [["1" + "0" * (digits - 1), "3"], ["0", "1"], ["-1", "1"], ["-1", "0"], ["0", "-1"], ["1", "-1"]]
        big = self.write(tmp_path, "big.json", {"vertices": vertices})
        sys.set_int_max_str_digits(limit)
        try:
            assert main(["verify", big]) == EXIT_USAGE
        finally:
            sys.set_int_max_str_digits(previous)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"midpoly: error: Exceeds the limit ({limit} digits)")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_verify_steps_limit_exits_usage(self, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["verify", hex_path, "--steps", str(VERIFY_MAX_STEPS + 1)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"midpoly: error: at most {VERIFY_MAX_STEPS} iterations, got {VERIFY_MAX_STEPS + 1}\n"
        )

    @pytest.mark.parametrize("command", ["verify", "iterate"])
    def test_deeply_nested_document_exits_usage(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOCUMENT, encoding="utf-8")
        assert main([command, str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "midpoly: error: invalid JSON: nested too deeply\n"

    def test_float_huge_exponent_exits_usage_at_once(self, tmp_path, capsys):
        path = self.write(tmp_path, "exp.json", {"vertices": [["1e10000000", "0"], ["1", "0"]]})
        start = time.perf_counter()
        code = main(["iterate", path, "--mode", "float"])
        elapsed = time.perf_counter() - start
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "midpoly: error: coordinate out of float range\n"
        assert elapsed < 1.0

    def test_float_midpoints_near_float_max_stay_finite(self, tmp_path, capsys):
        # 1.5e308 + 1.6e308 overflows; the midpoint (1.55e308, 0.5) does not
        coords = [("1.5e308", "0"), ("1.6e308", "1"), ("0", "1")]
        path = self.write(tmp_path, "big.json", {"vertices": [list(c) for c in coords]})
        assert main(["iterate", path, "--mode", "float"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "inf" not in out and "nan" not in out
        polygons = json.loads(out)["polygons"]
        assert polygons[1][0] == ["1.5500000000000001e+308", "0.5"]
        q = [(float(x), float(y)) for x, y in coords]
        for printed in polygons[1:]:
            q = [(float((Fraction(a[0]) + Fraction(b[0])) / 2), float((Fraction(a[1]) + Fraction(b[1])) / 2))
                 for a, b in zip(q, q[1:] + q[:1])]
            assert printed == [[f"{x:.17g}", f"{y:.17g}"] for x, y in q]

    @pytest.mark.parametrize("token, printed", [("-0.0", "0"), ("-1e-400", "-0")])
    def test_float_sign_of_zero(self, token, printed, tmp_path, capsys):
        # an exact zero is +0.0, a nonzero decimal that underflows keeps its sign
        path = self.write(tmp_path, "zero.json", {"vertices": [[token, "1"], ["2", token]]})
        assert main(["iterate", path, "--mode", "float", "--steps", "0"]) == EXIT_OK
        polygons = json.loads(capsys.readouterr().out)["polygons"]
        assert polygons == [[[printed, "1"], ["2", printed]]]

    def test_fuzz_bytes_unchanged(self, capsys):
        assert main(["fuzz", "--seed", "42", "--trials", "1000"]) == EXIT_OK
        assert capsys.readouterr().out == FUZZ_SEED_42_REPORT

    def test_verify_runs_theorem_check_once(self, tmp_path, capsys, monkeypatch):
        import midpoly.cli
        import midpoly.verify

        calls = []
        original = midpoly.verify.verify_hexagon_theorem

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (midpoly.cli, midpoly.verify):
            monkeypatch.setattr(module, "verify_hexagon_theorem", counting)
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main(["verify", hex_path, "--steps", "12"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["monotonicity"] is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("document", [HEX_DOC, L_HEX_DOC, CONSTANT_HEX_DOC])
    def test_verify_stays_on_integers(self, document, monkeypatch):
        import midpoly
        import midpoly.cli
        import midpoly.exact_poly
        import midpoly.verify

        calls = []
        for name in ("from_homogeneous", "to_homogeneous"):
            original = getattr(midpoly.exact_poly, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            for module in (midpoly, midpoly.cli, midpoly.exact_poly, midpoly.verify):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        code, _ = cmd_verify(doc(document), 12)
        assert code in (EXIT_OK, EXIT_INSUFFICIENT)
        assert calls == []
        # the counting wrappers are live: centroid_sequence converts each centroid
        midpoly.verify.centroid_sequence(to_exact_polygon(doc(L_HEX_DOC)), 0)
        assert calls == ["from_homogeneous"]

    def test_verify_report_escapes_no_centroid_and_orders_steps_by_floats(self, monkeypatch):
        # the fraction strings skip JSON escaping, and every step between
        # the projections of the README hexagon's 200 centroids is ordered by
        # their unequal quotients, without a cross product
        import midpoly.cli
        import midpoly.verify

        escaped, signs = [], []
        original_str, original_sign = midpoly.cli._json_str, midpoly.verify._sign

        def counting_str(s):
            escaped.append(s)
            return original_str(s)

        def counting_sign(x):
            signs.append(x)
            return original_sign(x)

        monkeypatch.setattr(midpoly.cli, "_json_str", counting_str)
        monkeypatch.setitem(midpoly.cli._JSON_SCALARS, str, counting_str)
        monkeypatch.setattr(midpoly.verify, "_sign", counting_sign)
        code, text = cmd_verify(doc(HEX_DOC), 200)
        assert code == EXIT_OK
        assert len(json.loads(text)["centroids"]) == 201
        assert "schema" in escaped and "verify/1" in escaped
        assert [s for s in escaped if re.fullmatch(r"-?\d+(/\d+)?", s)] == []
        assert signs == []

    @pytest.mark.parametrize("document", [HEX_DOC, L_HEX_DOC, CONSTANT_HEX_DOC])
    def test_iterate_and_figure_stay_on_integers(self, document, monkeypatch):
        import midpoly
        import midpoly.cli
        import midpoly.exact_poly
        import midpoly.verify

        calls = []
        for home, name in ((midpoly.exact_poly, "iterate"), (midpoly.exact_poly, "from_homogeneous"),
                           (midpoly.verify, "centroid_sequence")):
            original = getattr(home, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            for module in (midpoly, midpoly.cli, midpoly.exact_poly, midpoly.verify):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        assert cmd_iterate(doc(document), 12, "exact")[0] == EXIT_OK
        assert cmd_figure(doc(document), FigureSpec(steps=12))[0] == EXIT_OK
        assert calls == []
        # the counting wrappers are live
        midpoly.verify.centroid_sequence(to_exact_polygon(doc(L_HEX_DOC)), 1)
        midpoly.exact_poly.iterate(to_exact_polygon(doc(L_HEX_DOC)), 1)
        assert calls == ["centroid_sequence", "from_homogeneous", "from_homogeneous", "iterate"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fuzz", "--trials", str(FUZZ_MAX_TRIALS + 1)],
             f"at most {FUZZ_MAX_TRIALS} trials, got {FUZZ_MAX_TRIALS + 1}"),
            (["fuzz", "--steps", str(FUZZ_MAX_STEPS + 1)],
             f"at most {FUZZ_MAX_STEPS} iterations, got {FUZZ_MAX_STEPS + 1}"),
            (["fuzz", "--bound", str(FUZZ_MAX_BOUND + 1)],
             f"coordinate bound must be at most {FUZZ_MAX_BOUND}, got {FUZZ_MAX_BOUND + 1}"),
            (["fuzz", "--seed", "-1", "--trials", "3"], "seed must be nonnegative, got -1"),
            (["iterate", "HEX", "--steps", str(ITERATE_MAX_STEPS + 1)],
             f"at most {ITERATE_MAX_STEPS} iterations, got {ITERATE_MAX_STEPS + 1}"),
            (["iterate", "HEX", "--steps", str(ITERATE_MAX_STEPS + 1), "--mode", "float"],
             f"at most {ITERATE_MAX_STEPS} iterations, got {ITERATE_MAX_STEPS + 1}"),
            (["figure", "HEX", "--steps", str(FIGURE_MAX_STEPS + 1), "--output", "OUT"],
             f"at most {FIGURE_MAX_STEPS} iterations, got {FIGURE_MAX_STEPS + 1}"),
        ],
        ids=["fuzz-trials", "fuzz-steps", "fuzz-bound", "fuzz-seed", "iterate-steps", "iterate-float-steps", "figure-steps"],
    )
    def test_cost_limits_exit_usage(self, argv, message, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        out = tmp_path / "out.svg"
        argv = [hex_path if a == "HEX" else str(out) if a == "OUT" else a for a in argv]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"midpoly: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--trials", "3", "--steps", str(FUZZ_MAX_STEPS)],
            ["fuzz", "--trials", "3", "--bound", str(FUZZ_MAX_BOUND)],
            ["iterate", "HEX", "--steps", str(ITERATE_MAX_STEPS), "--mode", "float"],
        ],
        ids=["fuzz-steps", "fuzz-bound", "iterate-float-steps"],
    )
    def test_cost_limits_are_inclusive(self, argv, tmp_path, capsys):
        hex_path = self.write(tmp_path, "hex.json", HEX_DOC)
        assert main([hex_path if a == "HEX" else a for a in argv]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_write_exits_usage(self, failing, monkeypatch):
        class FullStdout(StringIO):
            def fail(self, *args):
                raise OSError(28, "No space left on device")

        stdout = FullStdout()
        setattr(stdout, failing, stdout.fail)
        monkeypatch.setattr(sys, "stdout", stdout)
        err = StringIO()
        with redirect_stderr(err):
            assert main(["proposition", "7"]) == EXIT_USAGE
        assert err.getvalue() == "midpoly: error: cannot write output: [Errno 28] No space left on device\n"

    def test_output_flag_writes_file(self, tmp_path, capsys):
        sq = self.write(tmp_path, "sq.json", SQUARE_DOC)
        out = tmp_path / "it.json"
        assert main(["iterate", sq, "--steps", "1", "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert json.loads(out.read_text())["steps"] == 1


DOC, OUT = "<doc>", "<out>"

exact_tokens = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 20)),
)
coordinate_tokens = st.one_of(
    exact_tokens,
    st.builds("{}/0".format, st.integers(-3, 3)),
    st.from_regex(r"[+-]?(\d{1,4}\.\d{0,4}|\.\d{1,4}|\d{1,4})([eE][+-]?\d{1,8})?", fullmatch=True),
    st.text(max_size=6),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | coordinate_tokens,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
polygon_documents = st.builds(
    lambda vertices: {"schema": "polygon/1", "vertices": vertices},
    st.one_of(
        st.lists(st.tuples(exact_tokens, exact_tokens).map(list), min_size=6, max_size=6),
        st.lists(st.tuples(coordinate_tokens, coordinate_tokens).map(list), min_size=1, max_size=8),
        st.lists(json_values, max_size=4),
    ),
)
documents = st.one_of(
    polygon_documents.map(json.dumps),
    json_values.map(json.dumps),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40),
)

small_ints = st.integers(-3, 12).map(str)
# every option a command takes, with values small enough to keep each run short;
# the bounded options also get the first value past their limit
options = {
    "iterate": {
        "--steps": small_ints | st.just(str(ITERATE_MAX_STEPS + 1)),
        "--mode": st.sampled_from(["exact", "float", "x"]),
    },
    "verify": {"--steps": small_ints | st.just(str(VERIFY_MAX_STEPS + 1))},
    "fuzz": {
        "--seed": small_ints,
        "--bound": small_ints | st.just(str(FUZZ_MAX_BOUND + 1)),
        "--steps": small_ints | st.just(str(FUZZ_MAX_STEPS + 1)),
    },
    "proposition": {
        "--steps": small_ints | st.just(str(PROPOSITION_MAX_STEPS + 1)),
        "--tolerance": st.sampled_from(["1e-9", "0", "-1", "nan", "inf", "x"]),
    },
    "figure": {
        "--steps": small_ints | st.just(str(FIGURE_MAX_STEPS + 1)), "--width": small_ints, "--height": small_ints,
        "--fade-start": st.sampled_from(["0", "0.5", "1", "2", "nan"]),
        "--fade-end": st.sampled_from(["0", "0.5", "1", "-1"]),
        "--no-line": st.none(), "--no-centroids": st.none(),
    },
}
positionals = {
    "iterate": [DOC], "verify": [DOC], "figure": [DOC], "fuzz": [],
    "proposition": [st.sampled_from(["-1", "0", "3", "5", "6", "7", "12", "64", str(PROPOSITION_MAX_M + 1), "x"])],
}


@st.composite
def argument_lists(draw):
    command = draw(st.sampled_from([*options, "bogus"]))
    if command == "bogus":
        return draw(st.lists(st.sampled_from([DOC, "--steps", "3", "-h", "x"]), max_size=4))
    argv = [command] + [a if isinstance(a, str) else draw(a) for a in positionals[command]]
    for flag, value in draw(st.fixed_dictionaries({}, optional=options[command])).items():
        argv += [flag] if value is None else [flag, value]
    if command == "fuzz":
        # the default 1000 trials would make each run slow
        argv += ["--trials", draw(st.integers(-1, 4).map(str) | st.just(str(FUZZ_MAX_TRIALS + 1)))]
    if draw(st.booleans()) or command == "figure":
        argv += ["--output", OUT]
    return argv


class TestNoInputEscapesMain:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(documents, argument_lists())
    @example(DEEP_DOCUMENT, ["verify", DOC])
    @example(json.dumps({"vertices": [["1e10000000", "0"], ["1", "0"]]}), ["iterate", DOC, "--mode", "float"])
    def test_exit_code_in_contract(self, document, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(document, encoding="utf-8")
            argv = [str(path) if a == DOC else str(Path(tmp) / "out") if a == OUT else a for a in argv]
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: exit 2 on a usage error, 0 for -h
                    code = exc.code
        assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_INSUFFICIENT)


# The option strings of each command, and the two that take no value.
COMMAND_OPTIONS = {
    "iterate": ["--steps", "--mode", "--output"],
    "verify": ["--steps", "--output"],
    "fuzz": ["--seed", "--trials", "--bound", "--steps", "--output"],
    "proposition": ["--steps", "--tolerance", "--output"],
    "figure": ["--steps", "--output", "--no-line", "--no-centroids", "--fade-start", "--fade-end",
               "--width", "--height"],
}
NO_VALUE = {"--no-line", "--no-centroids"}
EVERY_OPTION = sorted({flag for flags in COMMAND_OPTIONS.values() for flag in flags})
# forms that argparse reads its own way: help, "--", abbreviations, "=" values,
# negative numbers, unknown and empty tokens
ODD_TOKENS = st.sampled_from([
    "-h", "--help", "--", "-", "", "--st", "--ste", "--no", "--no-l", "--out", "--b", "--fade", "--tol", "-s",
    "--steps=3", "--mode=float", "--output=o.svg", "--no-line=1", "--bogus", "-1", "-0.5", "-inf", "--seed=-1",
])
NUMBERS = st.sampled_from(["0", "1", "3", "7", "12", "64", "0.5", "1e-3", "nan", "inf", " 7", "+3", "1_0", "\u0663"])
ANY_VALUES = st.sampled_from(["", "x", "exact", "float", "-1", "-x", "--steps", "verify", "1" * 5000])


def values_of(flag):
    plain = {"--mode": st.sampled_from(["exact", "float"]), "--output": st.just("o.svg"),
             "input": st.just("d.json")}.get(flag, NUMBERS)
    return st.one_of(plain, plain, plain, plain, ANY_VALUES)


@st.composite
def command_lines(draw):
    """Command lines of every command, most of them well formed, some with
    a wrong number of positionals, another command's option, a missing or
    bad value or a form argparse reads its own way."""
    command = draw(st.sampled_from([*COMMAND_OPTIONS, *COMMAND_OPTIONS, "bogus", "", "-h"]))
    own = COMMAND_OPTIONS.get(command, EVERY_OPTION)
    pieces = [[flag] if flag in NO_VALUE else [flag, draw(values_of(flag))]
              for flag in draw(st.lists(st.sampled_from(own), max_size=4))]
    expected = 0 if command == "fuzz" else 1
    for _ in range(draw(st.sampled_from([expected, expected, expected, 0, 2]))):
        positional = "m" if command == "proposition" else "input"
        pieces.insert(draw(st.integers(0, len(pieces))), [draw(values_of(positional))])
    if command == "figure" and draw(st.integers(0, 3)):
        pieces.append(["--output", draw(values_of("--output"))])
    if not draw(st.integers(0, 2)):
        for token in draw(st.lists(ODD_TOKENS | st.sampled_from(EVERY_OPTION) | ANY_VALUES, min_size=1, max_size=2)):
            pieces.insert(draw(st.integers(0, len(pieces))), [token])
    return [command, *(token for piece in pieces for token in piece)]


def assert_argparse_agrees(argv):
    """argparse reads argv without an error, to the attributes and the runner that _parse_fast gives."""
    fast = _parse_fast(argv)
    assert fast is not None
    err = StringIO()
    with redirect_stderr(err):
        try:
            slow = _build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}: {err.getvalue()}")
    assert vars(fast).keys() == vars(slow).keys()
    for name, value in vars(fast).items():
        other = getattr(slow, name)
        assert type(value) is type(other), name
        assert value == other or value != value and other != other, name  # nan reads as nan
    assert fast.run is slow.run


# the golden corpus lines that go to argparse, in corpus order: the negative values and its usage errors
GOLDEN_DECLINED = [
    ["iterate", "readme_hex.json", "--steps", "-1"], ["fuzz", "--seed", "-1", "--trials", "3"],
    ["fuzz", "--seed", "-2", "--trials", "3"], ["fuzz", "--seed", "-42", "--trials", "3"], ["proposition", "-1"],
    ["proposition", "7", "--tolerance", "-1"],
    [], ["verify"], ["proposition"], ["verify", "readme_hex.json", "--steps", "x"], ["fuzz", "--seed", "x"],
    ["fuzz", "--bogus"], ["figure", "readme_hex.json"],
]


class TestCommandLineReading:
    @settings(max_examples=1000, deadline=None)
    @given(command_lines())
    @example(["figure", "d.json", "--no-line", "--output", "o.svg"])
    @example(["figure", "d.json"])
    @example(["iterate", "d.json", "--mode", "x"])
    @example(["verify"])
    def test_argparse_agrees_wherever_the_fast_path_reads(self, argv):
        if _parse_fast(argv) is not None:
            assert_argparse_agrees(argv)

    def test_golden_command_lines_declined_or_agreed(self):
        declined = []
        for entry in json.loads(MANIFEST.read_text(encoding="utf-8"))["entries"]:
            if _parse_fast(entry["argv"]) is None:
                declined.append(entry["argv"])
            else:
                assert_argparse_agrees(entry["argv"])
        assert declined == GOLDEN_DECLINED

    @pytest.mark.parametrize("argv", [
        ["proposition", "64", "--steps", "10"],
        ["fuzz", "--seed", "1234567", "--trials", "20", "--bound", "9", "--steps", "12"],
        ["verify", "deep.json", "--steps", "200"],
        ["iterate", "d.json", "--mode", "float", "--steps", "3", "--steps", "4"],
        ["figure", "--no-centroids", "--output", "o.svg", "d.json", "--no-line", "--fade-end", "0.25"],
    ])
    def test_fast_path_reads_plain_command_lines(self, argv):
        assert_argparse_agrees(argv)

    def test_flags_store_false(self):
        args = _parse_fast(["figure", "d.json", "--no-line", "--output", "o.svg"])
        assert args.show_line is False and args.show_centroids is True

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["-h"], ["verify", "-h"], ["verify", "d.json", "--help"], ["verify", "--", "d.json"],
        ["verify", "d.json", "--st", "3"], ["verify", "d.json", "--steps=3"], ["fuzz", "--seed", "-1"],
        ["fuzz", "--seed"], ["fuzz", "--seed", ""], ["fuzz", "--seed", "x"], ["verify", ""],
        ["verify", "d.json", "--output", "-o"], ["iterate", "d.json", "--mode", "x"], ["figure", "d.json"],
        ["verify"], ["verify", "a.json", "b.json"], ["fuzz", "extra"], ["proposition", "x"],
        ["proposition", "7", "--seed", "1"], ["figure", "d.json", "--output", "o.svg", "--no-line=1"],
    ])
    def test_fast_path_declines(self, argv):
        assert _parse_fast(argv) is None


class TestCommandTable:
    def test_table_uses_only_keywords_the_fast_path_reads(self):
        # argparse reads every keyword of the table; _parse_fast reads these
        # (help and metavar only print), so a keyword such as nargs or
        # action="store_true" would let the two readers drift apart
        for name, (_, _, positionals, options) in _COMMANDS.items():
            for key, keywords in positionals.items():
                assert not key.startswith("-"), (name, key)
                assert set(keywords) <= {"type", "help"}, (name, key)
            for flag, keywords in options.items():
                assert flag.startswith("--"), (name, flag)
                assert "dest" in keywords, (name, flag)
                assert set(keywords) <= {"dest", "type", "default", "choices", "required", "metavar", "action",
                                         "help"}, (name, flag)
                assert keywords.get("action", "store_false") == "store_false", (name, flag)


class TestStartup:
    def run_python(self, code, cwd, **env):
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC), **env}, timeout=120)

    def test_valid_command_lines_import_no_argparse(self, tmp_path):
        (tmp_path / "hex.json").write_text(json.dumps(HEX_DOC), encoding="utf-8")
        argvs = [["iterate", "hex.json", "--steps", "2"], ["verify", "hex.json", "--steps", "3"],
                 ["fuzz", "--trials", "3"], ["proposition", "7"],
                 ["figure", "hex.json", "--steps", "2", "--output", "hex.svg"]]
        code = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from midpoly.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))\n"
        )
        result = self.run_python(code, tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
        assert (tmp_path / "hex.svg").exists()

    def test_usage_error_still_from_argparse(self, tmp_path):
        code = "import sys; from midpoly.cli import main; sys.exit(main(['fuzz', '--seed', 'x']))"
        result = self.run_python(code, tmp_path, COLUMNS="200")
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert result.stderr == (
            "usage: midpoly fuzz [-h] [--seed SEED] [--trials TRIALS] [--bound BOUND] [--steps STEPS] "
            "[--output OUTPUT]\n"
            "midpoly fuzz: error: argument --seed: invalid int value: 'x'\n"
        )

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses every write")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["proposition", "7"], ["proposition", "4096", "--steps", "2000"]],
                             ids=["short", "long"])
    def test_full_stdout_device_exits_usage(self, tmp_path, argv, unbuffered):
        # buffered, the failed bytes stay behind for the interpreter's flush at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        code = f"import sys; from midpoly.cli import main; sys.exit(main({argv!r}))"
        with open("/dev/full", "w", encoding="utf-8") as full:
            result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, stdout=full, stderr=subprocess.PIPE,
                                    text=True, env=env, timeout=120)
        assert result.returncode == EXIT_USAGE
        assert result.stderr == "midpoly: error: cannot write output: [Errno 28] No space left on device\n"
