"""Mutation check of the spectral mode sums: every listed mutant must fail a test.

Each mutant replaces one exact fragment of one line of
src/midpoly/spectral.py. For each, the script copies src/, tests/ and
pyproject.toml to a temporary directory, applies the mutant there and
runs

    python -m pytest -x -q tests/test_spectral.py tests/test_acceptance.py tests/test_golden.py

The mutant is killed when that run fails. The unmutated copy runs first
and must pass, or no kill would mean anything. From the repository root:

    python tests/mutants.py

prints one line per mutant and exits 1 when a mutant survives, when a
fragment does not occur exactly once in spectral.py, or when the
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
TARGET = Path("src/midpoly/spectral.py")
TESTS = ["tests/test_spectral.py", "tests/test_acceptance.py", "tests/test_golden.py"]

# (name, fragment, replacement)
MUTANTS = [
    ("triple index p - q", "position.get((q - p) % m)", "position.get((p - q) % m)"),
    ("conjugate on the first mode", "live[a] * live[b].conjugate()", "live[a].conjugate() * live[b]"),
    ("orbit one step ahead", "live = [lam**s * c", "live = [lam**(s + 1) * c"),
    ("orbit area without its 0.5", "yield m * z, 0.5 * m * area", "yield m * z, m * area"),
    ("factor a difference", "factor = im_omega[a] + im_omega[b]", "factor = im_omega[a] - im_omega[b]"),
    ("advance_modes one step ahead", "eigenvalue(mv.m, j) ** n", "eigenvalue(mv.m, j) ** (n + 1)"),
    ("area_from_modes sign flipped", "return 0.5 * mv.m * total", "return -0.5 * mv.m * total"),
    ("absolute projection guard", "tol = 1e-12 * max(map(abs, mv.coefficients))", "tol = 1e-12"),
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
    source = (ROOT / TARGET).read_text(encoding="utf-8")
    stale = [name for name, fragment, _ in MUTANTS if source.count(fragment) != 1]
    if stale:
        print(f"fragments not found exactly once in {TARGET}: {', '.join(stale)}")
        return 1
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if not run_tests(tree):
            print("the unmutated tree fails its tests")
            return 1
        for name, fragment, replacement in MUTANTS:
            (tree / TARGET).write_text(source.replace(fragment, replacement), encoding="utf-8")
            start = time.perf_counter()
            killed = not run_tests(tree)
            print(f"{'killed  ' if killed else 'SURVIVED'} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
