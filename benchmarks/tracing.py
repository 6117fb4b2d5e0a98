"""Per-layer tracing by wrapping midpoly's public functions from outside.

A module that imported a function by name (`from .exact_poly import
centroid`) holds its own reference, so each function is replaced in every
midpoly module that holds it. Spans nest: a span's self time is its
duration minus the durations of the spans it encloses. Exact values that
exact_poly functions return are kept per op and sized after the op, so
measuring bit lengths adds nothing to the timed spans.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

# (module, function): spans with calls and self time.
TIMED = [
    ("exact_poly", "midpoint_map"),
    ("exact_poly", "signed_area"),
    ("exact_poly", "z_moment"),
    ("exact_poly", "centroid"),
    ("verify", "centroid_sequence"),
    ("verify", "verify_hexagon_theorem"),
    ("verify", "convergence_diagnostics"),
    ("verify", "verify_z_scaling"),
    ("verify", "verify_proposition"),
    ("verify", "fuzz_hexagons"),
    ("spectral", "z_from_modes"),
    ("spectral", "advance_modes"),
    ("spectral", "area_from_modes"),
    ("cli", "main"),
    ("cli", "parse_polygon_document"),
    ("cli", "to_exact_polygon"),
]
# Called too often for a span to be cheap; only counted.
COUNTED = [("spectral", "root_of_unity")]
# Spans whose call counts are reported.
CALLS = ["exact_poly.midpoint_map", "verify.verify_hexagon_theorem",
         "spectral.z_from_modes", "spectral.root_of_unity"]
# Spans whose inclusive time (self plus enclosed spans) is reported.
TOTALS = ["verify.verify_hexagon_theorem"]
# Results sized for exact_poly.den_bits_max / num_bits_max.
SIZED = {"midpoint_map", "signed_area", "z_moment", "centroid"}

MODULES = ("exact_poly", "verify", "spectral", "cli")


def _fractions(value):
    """The Fractions inside a Polygon, PlanePoint or Fraction result."""
    if hasattr(value, "vertices"):
        for v in value.vertices:
            yield v.x
            yield v.y
    elif hasattr(value, "x"):
        yield value.x
        yield value.y
    else:
        yield value


class Tracer:
    """Installs the wrappers; collects per-op counts and self times."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in MODULES]
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.sized = []
        self.theorem_args = []
        self._stack = []
        self._saved = []

    def _timed(self, name, fn):
        calls, self_ns, total_ns, stack = self.calls, self.self_ns, self.total_ns, self._stack
        sink = self.sized if fn.__name__ in SIZED else None
        args_sink = self.theorem_args if fn.__name__ == "verify_hexagon_theorem" else None

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[name] += dt - stack.pop()
                total_ns[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if sink is not None:
                sink.append(result)
            if args_sink is not None:
                args_sink.append(args)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for kind, specs in ((self._timed, TIMED), (self._counted, COUNTED)):
            for module_name, fn_name in specs:
                original = getattr(getattr(self.package, module_name), fn_name)
                wrapper = kind(f"{module_name}.{fn_name}", original)
                for module in [self.package, *self.modules]:
                    if getattr(module, fn_name, None) is original:
                        self._saved.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def take_op(self) -> dict:
        """Counts, self and total times (ns) and sizes of the op just finished; resets them."""
        den_bits = num_bits = 0
        for value in self.sized:
            for f in _fractions(value):
                den_bits = max(den_bits, f.denominator.bit_length())
                num_bits = max(num_bits, f.numerator.bit_length())
        runs = len(self.theorem_args)
        distinct = len({(args[0].vertices, args[1:]) for args in self.theorem_args})
        out = {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "den_bits": den_bits,
            "num_bits": num_bits,
            "theorem_runs": runs,
            "theorem_distinct": distinct,
        }
        self.calls.clear()
        self.self_ns.clear()
        self.total_ns.clear()
        self.sized.clear()
        self.theorem_args.clear()
        return out
