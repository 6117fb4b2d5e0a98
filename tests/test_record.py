"""The Record base: what `@dataclass(frozen=True)` gave every value type, kept."""

import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from midpoly.cli import FigureSpec
from midpoly.errors import WrongSizeError
from midpoly.exact_poly import PlanePoint, Polygon
from midpoly.record import Record
from midpoly.spectral import FloatPolygon, ModeVector
from midpoly.verify import (
    ColinearityReport,
    ConvergenceDiagnostics,
    CounterexampleReport,
    FuzzConfig,
    FuzzFailure,
    FuzzSummary,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# The field names of each value type, in the order dataclasses.fields()
# gave them before the types became records (ModeVector's support aside,
# which was never an init, compare or repr field).
FIELD_NAMES = {
    PlanePoint: ("x", "y"),
    Polygon: ("vertices",),
    FloatPolygon: ("vertices",),
    ModeVector: ("coefficients",),
    ColinearityReport: ("orbit", "anchor", "direction", "first_violation", "g0_on_line", "limit", "limit_on_line"),
    CounterexampleReport: ("m", "slopes", "ratios", "measured_ratio", "expected_ratio", "ratio_ok",
                           "lines_pairwise_distinct", "centroids"),
    FuzzConfig: ("seed", "trials", "coordinate_bound", "steps"),
    FuzzFailure: ("trial", "vertices", "reason"),
    FuzzSummary: ("seed", "trials", "coordinate_bound", "steps", "theorem_passes", "theorem_failures",
                  "z_scaling_passes", "z_scaling_failures", "insufficient_data", "undefined_centroids",
                  "g0_on_line_true", "g0_on_line_false", "first_failure"),
    ConvergenceDiagnostics: ("indices", "projections", "stable_from", "sign_changes", "distance_ratios"),
    FigureSpec: ("steps", "show_line", "show_centroids", "fade_start", "fade_end", "width", "height"),
}


class Pair(Record):
    a: int
    b: int = 7


class OtherPair(Record):
    a: int
    b: int = 7


def one_of_each() -> list[Record]:
    failure = FuzzFailure(trial=3, vertices=((1, 2), (3, 4)), reason="why")
    return [
        PlanePoint(Fraction(1, 2), Fraction(3)),
        Polygon.from_coords([(0, 0), (1, 0), ("1/3", "2/7")]),
        FloatPolygon((1 + 2j, -0.5j)),
        ModeVector((0j, 1j, 0j, 2 + 0j)),
        ColinearityReport(orbit=((1, 2, 3), None), anchor=(1, 2, 3), direction=None, first_violation=None,
                          g0_on_line=None, limit=(4, 5, 6), limit_on_line=True),
        CounterexampleReport(m=7, slopes=(0.5, -0.25), ratios=(-0.5,), measured_ratio=-0.5, expected_ratio=-0.5,
                             ratio_ok=True, lines_pairwise_distinct=True, centroids=(1j, None)),
        FuzzConfig(seed=5, trials=3),
        failure,
        FuzzSummary(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, failure),
        ConvergenceDiagnostics(indices=(1, 2), projections=(0.5, None), stable_from=1, sign_changes=0,
                               distance_ratios=(None,)),
        FigureSpec(steps=4, show_line=False),
    ]


def test_field_names_in_declaration_order():
    assert {cls: cls._fields for cls in FIELD_NAMES} == FIELD_NAMES
    assert {cls: cls.__match_args__ for cls in FIELD_NAMES} == FIELD_NAMES
    assert {type(r) for r in one_of_each()} == set(FIELD_NAMES)


def test_vars_holds_the_fields():
    for record in one_of_each():
        fields = {name: getattr(record, name) for name in record._fields}
        extra = {"support": record.support} if isinstance(record, ModeVector) else {}
        assert vars(record) == {**fields, **extra}


class TestConstruction:
    def test_by_position_keyword_or_both(self):
        assert Pair(1, 2) == Pair(a=1, b=2) == Pair(1, b=2) == Pair(b=2, a=1)
        assert (Pair(1, 2).a, Pair(1, 2).b) == (1, 2)

    def test_class_attribute_is_the_default(self):
        assert Pair(1).b == 7
        assert Pair(a=1) == Pair(1, 7)
        assert FuzzConfig() == FuzzConfig(42, 1000, 9, 12)
        assert FuzzConfig(steps=20) == FuzzConfig(42, 1000, 9, 20)
        assert FigureSpec(width=10).height == 600

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "missing required argument 'a'"),
        ((), {"b": 2}, "missing required argument 'a'"),
        ((1,), {"c": 2}, "unexpected keyword argument 'c'"),
        ((), {"a": 1, "b": 2, "c": 3}, "unexpected keyword argument 'c'"),
        ((1,), {"a": 2}, "multiple values for argument 'a'"),
        ((1, 2), {"b": 2}, "multiple values for argument 'b'"),
        ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
    ])
    def test_type_error_for_a_bad_argument_list(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Pair(*args, **kwargs)

    def test_required_fields_of_the_value_types(self):
        with pytest.raises(TypeError):
            PlanePoint(1)
        with pytest.raises(TypeError):
            FuzzSummary(1, 2, 3)
        with pytest.raises(TypeError):
            FigureSpec(8, True, True, 1.0, 0.1, 800, 600, "extra")

    def test_post_init_validates(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            FuzzConfig(seed=-1)
        with pytest.raises(WrongSizeError):
            Polygon(())
        with pytest.raises(WrongSizeError):
            FloatPolygon(())
        with pytest.raises(WrongSizeError):
            ModeVector(())
        with pytest.raises(ValueError, match="opacities"):
            FigureSpec(fade_end=2.0)


class TestImmutability:
    @pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
    def test_no_assignment_or_deletion(self, record):
        name = record._fields[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, "not_a_field", None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
        assert not hasattr(record, "not_a_field")


class TestValueSemantics:
    def test_equal_only_to_the_same_type_with_equal_fields(self):
        assert Pair(1, 2) == Pair(1, 2)
        assert Pair(1, 2) != Pair(1, 3)
        assert Pair(1, 2) != Pair(2, 2)
        assert Pair(1, 2) != OtherPair(1, 2)
        assert OtherPair(1, 2) != Pair(1, 2)
        assert Pair(1, 2) != (1, 2)
        assert Polygon((PlanePoint(1, 2),)) != FloatPolygon((PlanePoint(1, 2),))

    def test_hash_is_the_hash_of_the_field_values(self):
        for record in one_of_each():
            values = tuple(getattr(record, name) for name in record._fields)
            assert hash(record) == hash(values)
        assert hash(Pair(1, 2)) != hash(Pair(1, 3))
        assert len({PlanePoint(1, 2), PlanePoint(Fraction(2, 2), 2), PlanePoint(2, 1)}) == 2

    def test_repr(self):
        assert repr(PlanePoint(Fraction(1, 2), Fraction(3))) == "PlanePoint(x=Fraction(1, 2), y=Fraction(3, 1))"
        assert repr(FuzzConfig()) == "FuzzConfig(seed=42, trials=1000, coordinate_bound=9, steps=12)"
        assert repr(ModeVector((1j, 0j, 2 + 0j))) == "ModeVector(coefficients=(1j, 0j, (2+0j)))"

    def test_match_by_position(self):
        match PlanePoint(1, 2):
            case PlanePoint(x, y):
                assert (x, y) == (1, 2)
            case _:
                pytest.fail("PlanePoint did not match its own fields")

    def test_mode_vector_support_is_derived_not_a_field(self):
        mv = ModeVector((0j, 1j, 0j, 2 + 0j))
        assert mv.support == (1, 3)
        assert "support" not in repr(mv)
        assert hash(mv) == hash((mv.coefficients,))

    @pytest.mark.parametrize("record", one_of_each(), ids=lambda r: type(r).__name__)
    def test_pickle_and_deepcopy_give_an_equal_record(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record
            assert vars(clone) == vars(record)
            assert repr(clone) == repr(record)


class TestColdStart:
    def test_importing_the_cli_loads_no_dataclasses(self):
        # -S: no site hooks, so only what midpoly itself imports is loaded;
        # typing, pathlib and argparse are not needed either
        unwanted = "{'dataclasses', 'typing', 'pathlib', 'argparse'}"
        code = f"import midpoly.cli, sys; print(sorted({unwanted} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"

    def test_no_code_is_compiled_at_run_time(self):
        builtin_call = re.compile(r"(?<![\w.])(exec|eval|compile)\(")
        sources = sorted((SRC / "midpoly").glob("*.py"))
        assert sources
        for path in sources:
            assert not builtin_call.search(path.read_text(encoding="utf-8")), path.name
