"""Mutation check of the exact kernel, the fuzz draws, the spectral mode
sums, the float midpoint, the value records, the report writer, the
hexagon verdict and the command-line reader.

Each mutant replaces one exact fragment of one source file under
src/midpoly/ and names the tests that must kill it. For each, the
script copies src/, tests/ and pyproject.toml to a temporary directory,
applies the mutant there and runs, for a mutant of spectral.py,
exact_poly.py, verify.py or record.py,

    python -m pytest -x -q tests/test_record.py tests/test_spectral.py \
        tests/test_exact_poly.py tests/test_verify.py tests/test_acceptance.py \
        tests/test_golden.py

and for a mutant of cli.py

    python -m pytest -x -q tests/test_cli.py

The mutant is killed when that run fails. The unmutated copy runs each
of those test lists first and must pass them, or no kill would mean
anything. From the repository root:

    python tests/mutants.py

prints one line per mutant and exits 1 when a mutant survives, when a
fragment does not occur exactly once in its file, or when the
unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECTRAL = Path("src/midpoly/spectral.py")
EXACT_POLY = Path("src/midpoly/exact_poly.py")
VERIFY = Path("src/midpoly/verify.py")
CLI = Path("src/midpoly/cli.py")
RECORD = Path("src/midpoly/record.py")
# the fast test_record.py first, so that a record.py mutant dies in about a second
KERNEL_TESTS = (
    "tests/test_record.py",
    "tests/test_spectral.py",
    "tests/test_exact_poly.py",
    "tests/test_verify.py",
    "tests/test_acceptance.py",
    "tests/test_golden.py",
)
CLI_TESTS = ("tests/test_cli.py",)

# (name, file, fragment, replacement); a mutant of cli.py must fall to
# CLI_TESTS, any other to KERNEL_TESTS
MUTANTS = [
    ("triple index p - q", SPECTRAL, "position.get((q - p) % m)", "position.get((p - q) % m)"),
    ("conjugate on the first mode", SPECTRAL, "live[a] * live[b].conjugate()", "live[a].conjugate() * live[b]"),
    ("orbit one step ahead", SPECTRAL, "live = [lam**s * c", "live = [lam**(s + 1) * c"),
    ("orbit area without its 0.5", SPECTRAL, "yield m * z, 0.5 * m * area", "yield m * z, m * area"),
    ("factor a difference", SPECTRAL, "factor = im_omega[a] + im_omega[b]", "factor = im_omega[a] - im_omega[b]"),
    ("advance_modes one step ahead", SPECTRAL, "eigenvalue(mv.m, j) ** n", "eigenvalue(mv.m, j) ** (n + 1)"),
    ("area_from_modes sign flipped", SPECTRAL, "return 0.5 * mv.m * total", "return -0.5 * mv.m * total"),
    ("absolute projection guard", SPECTRAL, "tol = 1e-12 * max(map(abs, mv.coefficients))", "tol = 1e-12"),
    ("hexagon closing cross product reversed", EXACT_POLY, "c5 = x5 * y0 - x0 * y5", "c5 = x0 * y5 - x5 * y0"),
    ("hexagon edge sum with the wrong index", EXACT_POLY, "x5 + x0", "x5 + x4"),
    ("draw kept at r == width", VERIFY, "while r >= width", "while r > width"),
    ("draw shifted down by one", VERIFY, "draws.append(r - bound)", "draws.append(r - bound - 1)"),
    ("hoisted line constant transposed", VERIFY, "k = ax * dy - ay * dx", "k = ax * dx - ay * dy"),
    ("g0 tallies swapped", VERIFY, "g0_on_line_true=g0_on_line_true, g0_on_line_false=g0_on_line_false",
     "g0_on_line_true=g0_on_line_false, g0_on_line_false=g0_on_line_true"),
    # Equal to the original for every odd width above 1, so for every
    # bound `fuzz` accepts; at bound 0 (width 1) it draws getrandbits(0),
    # which consumes nothing, where randint consumes one bit per draw.
    ("draw bit length of width - 1", VERIFY, "k = width.bit_length()", "k = (width - 1).bit_length()"),
    ("equal-quotient fallback dropped", VERIFY, "qb is not None and qa != qb", "qb is not None"),
    ("gcd two-power from x alone", CLI, "t = min(tv, tw)", "t = tv"),
    ("fraction pair template loses a quote", CLI, """'[{0}  "%s",""", """'[{0}  %s","""),
    ("joined floats skip the non-finite check", CLI, 'if kind is not float or "n" not in text:', "if True:"),
    ("joined lists accept bool among int", CLI, "len(set(map(type, value))) == 1", "True"),
    ("general pass cross product with a plus", EXACT_POLY, "c = x * sy - sx * y", "c = x * sy + sx * y"),
    ("lattice_step rotated the other way", EXACT_POLY, "[*values[1:], *values[:1]]", "[*values[-1:], *values[:-1]]"),
    ("centroid sign flipped on positive area", EXACT_POLY, "if a2 < 0:", "if a2 > 0:"),
    ("projection alternating sign swapped", EXACT_POLY, "(alternating if k % 2 == 0 else -alternating)",
     "(-alternating if k % 2 == 0 else alternating)"),
    ("same_point ignores y", EXACT_POLY, " and p[1] * q[2] == q[1] * p[2]", ""),
    ("subnormal quotients kept", VERIFY, "abs(q) >= sys.float_info.min", "abs(q) >= 0"),
    ("float midpoint without its overflow fallback", SPECTRAL,
     "return 0.5 * a + 0.5 * b if math.isinf(half) else half", "return half"),
    ("iterate vertices transposed", CLI, "_homogeneous_json((x, y, w))", "_homogeneous_json((y, x, w))"),
    ("fast-path flag stores True", CLI, 'values[keywords["dest"]] = False', 'values[keywords["dest"]] = True'),
    ("fast-path required option not checked", CLI, "if any(flag not in argv for flag in required):", "if False:"),
    ("fast-path choices not checked", CLI, 'if "choices" in keywords and value not in keywords["choices"]:',
     "if False:"),
    ("fast-path positional count not checked", CLI, "if len(given) != len(positionals):", "if False:"),
    ("parser without the positionals", CLI, "{**positionals, **options}.items()", "options.items()"),
    ("verify exit code from all_colinear", CLI, '"monotonicity": mono,\n    }\n    code = EXIT_OK if report.passed',
     '"monotonicity": mono,\n    }\n    code = EXIT_OK if report.all_colinear'),
    ("violation at the limit reported", VERIFY, "violation in (None, len(defined))", "violation is None"),
    ("record equality across types", RECORD, "if other.__class__ is not self.__class__:",
     "if not isinstance(other, Record):"),
    ("record hash without its last field", RECORD, "return hash(self._values())", "return hash(self._values()[:-1])"),
    ("record __post_init__ not called", RECORD, "        self.__post_init__()\n", ""),
    ("record defaults ignored", RECORD, "if key not in self._defaults:", "if True:"),
    ("record assignment allowed", RECORD, 'raise AttributeError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)"),
    ("record unknown keyword dropped", RECORD, "if key not in self._field_set:", "if False:"),
    ("record surplus positional dropped", RECORD, "if len(args) > len(self._fields):", "if False:"),
]


def tests_for(path: Path) -> tuple[str, ...]:
    return CLI_TESTS if path == CLI else KERNEL_TESTS


def run_tests(tree: Path, tests: tuple[str, ...]) -> bool:
    """Whether the tests pass on the copy at tree."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # no bytecode: a mutant of the same size written within the second of
    # the last compile would otherwise run from the stale .pyc
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main() -> int:
    sources = {path: (ROOT / path).read_text(encoding="utf-8") for _, path, _, _ in MUTANTS}
    stale = [name for name, path, fragment, _ in MUTANTS if sources[path].count(fragment) != 1]
    if stale:
        print(f"fragments not found exactly once in their files: {', '.join(stale)}")
        return 1
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        for tests in sorted({tests_for(path) for _, path, _, _ in MUTANTS}):
            if not run_tests(tree, tests):
                print(f"the unmutated tree fails {' '.join(tests)}")
                return 1
        for name, path, fragment, replacement in MUTANTS:
            (tree / path).write_text(sources[path].replace(fragment, replacement), encoding="utf-8")
            start = time.perf_counter()
            killed = not run_tests(tree, tests_for(path))
            (tree / path).write_text(sources[path], encoding="utf-8")
            print(f"{'killed  ' if killed else 'SURVIVED'} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
