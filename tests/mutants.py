"""Mutation check of the exact kernel, the fuzz draws and the spectral mode sums.

Each mutant replaces one exact fragment of one source file under
src/midpoly/. For each, the script copies src/, tests/ and
pyproject.toml to a temporary directory, applies the mutant there and
runs

    python -m pytest -x -q tests/test_spectral.py tests/test_exact_poly.py \
        tests/test_verify.py tests/test_acceptance.py tests/test_golden.py

The mutant is killed when that run fails. The unmutated copy runs first
and must pass, or no kill would mean anything. From the repository root:

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
TESTS = [
    "tests/test_spectral.py",
    "tests/test_exact_poly.py",
    "tests/test_verify.py",
    "tests/test_acceptance.py",
    "tests/test_golden.py",
]

# (name, file, fragment, replacement)
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
]


def run_tests(tree: Path) -> bool:
    """Whether the tests pass on the copy at tree."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
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
        if not run_tests(tree):
            print("the unmutated tree fails its tests")
            return 1
        for name, path, fragment, replacement in MUTANTS:
            (tree / path).write_text(sources[path].replace(fragment, replacement), encoding="utf-8")
            start = time.perf_counter()
            killed = not run_tests(tree)
            (tree / path).write_text(sources[path], encoding="utf-8")
            print(f"{'killed  ' if killed else 'SURVIVED'} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
