"""Every name the package exports and the benchmark tracer wraps resolves.

`benchmarks/tracing.py` looks up each traced name with getattr when it
installs, so deleting a traced function breaks every traced benchmark
run; these checks catch that in the test suite.
"""

import ast
import importlib
from pathlib import Path

import midpoly

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _traced_names() -> dict[str, list[tuple[str, str]]]:
    """tracing.TIMED and tracing.COUNTED, (module, function) pairs read from the source."""
    lists = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED"):
            lists[node.targets[0].id] = ast.literal_eval(node.value)
    return lists


def test_traced_names_resolve():
    lists = _traced_names()
    assert sorted(lists) == ["COUNTED", "TIMED"] and all(lists.values())
    missing = [f"{module}.{name}" for module, name in lists["TIMED"] + lists["COUNTED"]
               if not hasattr(importlib.import_module(f"midpoly.{module}"), name)]
    assert missing == []


def test_exported_names_resolve():
    assert [name for name in midpoly.__all__ if not hasattr(midpoly, name)] == []
