"""The golden corpus: midpoly command lines pinned by what they print.

Each entry of manifest.json is one argv with the sha256 of its stdout,
the sha256 of its stderr, its exit code and the sha256 of the file its
`--output` option names (null when that file is not written). The
documents the command lines read are stored in the manifest too.
`tests/test_golden.py` runs every entry in process through `cli.main`
and compares all four values.

A change that alters an output on purpose re-records the manifest and
lists the entries that changed. From the repository root:

    PYTHONPATH=src python tests/golden/record.py

rewrites manifest.json and prints each entry whose values differ from
the manifest it replaces.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from midpoly.cli import main

MANIFEST = Path(__file__).with_name("manifest.json")


def _doc(vertices) -> str:
    return json.dumps({"schema": "polygon/1", "vertices": vertices}, indent=2) + "\n"


def _deep_orbit_docs(seed: int, count: int) -> dict[str, str]:
    """The benchmark's `deep_orbit` documents: 12 coordinates randint(-40, 40) / choice(2, 5, 10)."""
    rng = random.Random(seed)
    docs = {}
    for i in range(count):
        coords = [
            tuple(Fraction(rng.randint(-40, 40), rng.choice((2, 5, 10))) for _ in range(2))
            for _ in range(6)
        ]
        docs[f"deep_orbit-{seed}-{i}.json"] = _doc([[str(x), str(y)] for x, y in coords])
    return docs


def _digits_doc(digits: int, seed: int, denominator: int = 1) -> str:
    """A hexagon with integer coordinates of the given number of digits, over one denominator."""
    rng = random.Random(seed)
    tail = "" if denominator == 1 else f"/{denominator}"
    return _doc([[f"{rng.choice(('-', ''))}{rng.randrange(10 ** (digits - 1), 10**digits)}{tail}"
                  for _ in range(2)] for _ in range(6)])


def documents() -> dict[str, str]:
    """Every document a command line of the corpus reads, by file name."""
    readme = [["0", "2/5"], ["16/5", "1/2"], ["3", "-1/2"], ["12/5", "2"], ["-2", "5/2"], ["-3/10", "6/5"]]
    one_over = "1/1" + "0" * 306
    tiny = "1/1" + "0" * 11
    return {
        "readme_hex.json": _doc(readme),
        "l_hex.json": _doc([["0", "0"], ["2", "0"], ["2", "1"], ["1", "1"], ["1", "2"], ["0", "2"]]),
        "constant_hex.json": _doc([["1", "1"]] * 6),
        **_deep_orbit_docs(1, 4),
        "digits300.json": _digits_doc(300, 300),
        "digits300_over.json": _digits_doc(300, 301, 10**300 - 1),
        # 10^399 is past the float range, so `float(Fraction(...))` raises OverflowError
        "digits400.json": _doc([["1" + "0" * 399, "3"], ["0", "1"], ["-1", "1"], ["-1", "0"], ["0", "-1"], ["1", "-1"]]),
        "digits2000.json": _doc([["1" + "0" * 1999, "3"], ["0", "1"], ["-1", "1"], ["-1", "0"], ["0", "-1"], ["1", "-1"]]),
        "digits3000.json": _doc([["1" + "0" * 2999, "3"], ["0", "1"], ["-1", "1"], ["-1", "0"], ["0", "-1"], ["1", "-1"]]),
        # area 10^-306 / 4: G_0 and G_1 lie at x = -10^306 / 1.5 and / 3
        "far306.json": _doc([["0", "0"], ["1/2", "1/2"], ["1", "1"], ["1", one_over], ["1/2", "1/2"], ["0", "1"]]),
        "tiny_offset.json": _doc([["1", "1/10000000000000000"], ["0", "1"], ["-1", "1"],
                                  ["-1", "0"], ["0", "-1"], ["1", "-1"]]),
        # sides of 10^-11: on a canvas side of 10^300 the drawing scale would overflow
        "tiny_hex.json": _doc([["0", "0"], [tiny, "0"], [tiny, tiny], ["0", tiny], ["-" + tiny, "0"], ["0", "-" + tiny]]),
        "wide.json": _doc([[x, str(k)] for k, x in enumerate(["1" + "0" * 308, "-1" + "0" * 308] * 2 + ["0", "0"])]),
        # centrally symmetric: every centroid is the limit, so the line has no direction
        "symmetric_hex.json": _doc([["2", "0"], ["1", "2"], ["-1", "2"], ["-2", "0"], ["-1", "-2"], ["1", "-2"]]),
        # zero area, so G_0 is undefined
        "g0_undefined_hex.json": _doc([["0", "0"], ["-1", "-3"], ["0", "2"], ["1", "-2"], ["3", "1"], ["-3", "-2"]]),
        # the second iterate has zero area, so G_2 is undefined
        "g2_undefined_hex.json": _doc([["1", "-3"], ["0", "3"], ["-2", "-2"], ["3", "-1"], ["1", "-2"], ["0", "-1"]]),
        "triangle.json": _doc([["0", "0"], ["4", "0"], ["1", "3"]]),
        "square.json": _doc([["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]),
        "pentagon.json": _doc([["0", "0"], ["3", "0"], ["4", "2"], ["1", "4"], ["-1", "2"]]),
        "octagon.json": _doc([["3", "0"], ["2", "2"], ["0", "3"], ["-2", "2"],
                              ["-3", "0"], ["-2", "-2"], ["0", "-3"], ["2", "-2"]]),
        "decimal_hex.json": _doc([["0.5", "1e-3"], ["3.25", ".5"], ["3", "-0.5"],
                                  ["2.4", "2"], ["-2", "2.5e0"], ["-0.3", "1.2"]]),
        "float_overflow.json": _doc([["1e400", "0"], ["1", "0"], ["0", "1"]]),
        "float_huge_exponent.json": _doc([["1e10000000", "0"], ["1", "0"]]),
        "signed_zero.json": _doc([["-0.0", "1"], ["2", "-1e-400"]]),
        "not_json.json": "not json\n",
        "top_level_list.json": "[]\n",
        "no_vertices.json": '{"schema": "polygon/1"}\n',
        "empty_vertices.json": '{"vertices": []}\n',
        "non_pair.json": '{"vertices": [["1", "2", "3"]]}\n',
        "numeric_coordinate.json": '{"vertices": [[1, "2"]]}\n',
        "garbage_token.json": '{"vertices": [["1", "two"]]}\n',
        "zero_denominator.json": '{"vertices": [["1/0", "2"]]}\n',
    }


def command_lines() -> list[list[str]]:
    """The corpus: every subcommand, every exit code, and the usage errors."""
    out = "out.json"
    svg = "out.svg"
    lines: list[list[str]] = []
    hexagons = ["readme_hex.json", "l_hex.json", "constant_hex.json",
                *(f"deep_orbit-1-{i}.json" for i in range(4)),
                "digits300.json", "digits300_over.json", "far306.json", "tiny_offset.json"]
    for doc in hexagons:
        lines += [
            ["verify", doc],
            ["verify", doc, "--steps", "3"],
            ["iterate", doc, "--steps", "3"],
            ["iterate", doc, "--steps", "3", "--mode", "float"],
            ["figure", doc, "--output", svg],
        ]
    for doc in ["readme_hex.json", *(f"deep_orbit-1-{i}.json" for i in range(4)), "digits300.json"]:
        lines.append(["verify", doc, "--steps", "200"])
    # reports that print null among the centroids or as the line's direction
    for doc in ["symmetric_hex.json", "g0_undefined_hex.json", "g2_undefined_hex.json"]:
        lines += [["verify", doc, "--steps", "6"], ["figure", doc, "--output", svg]]
    lines += [
        ["verify", "readme_hex.json", "--steps", "1"],
        ["verify", "readme_hex.json", "--steps", "2"],
        ["verify", "readme_hex.json", "--steps", "30"],
        # from iterate 511 on, a distance ratio is not a normal double
        ["verify", "readme_hex.json", "--steps", "520"],
        ["verify", "readme_hex.json", "--steps", "0"],
        ["verify", "readme_hex.json", "--steps", "2001"],
        ["verify", "readme_hex.json", "--output", out],
        ["verify", "readme_hex.json", "--output", "no_such_dir/out.json"],
        ["verify", "digits2000.json"],
        ["verify", "digits3000.json"],
        ["verify", "wide.json"],
        ["verify", "square.json"],
        ["verify", "pentagon.json"],
        ["verify", "decimal_hex.json"],
        ["verify", "missing.json"],
        ["iterate", "readme_hex.json", "--steps", "0"],
        ["iterate", "readme_hex.json", "--steps", "1"],
        ["iterate", "readme_hex.json", "--steps", "30"],
        ["iterate", "readme_hex.json", "--steps", "200"],
        ["iterate", "readme_hex.json", "--steps", "-1"],
        ["iterate", "readme_hex.json", "--steps", "2001"],
        ["iterate", "readme_hex.json", "--steps", "2001", "--mode", "float"],
        ["iterate", "readme_hex.json", "--steps", "0", "--mode", "float"],
        ["iterate", "readme_hex.json", "--steps", "30", "--mode", "float"],
        ["iterate", "readme_hex.json", "--steps", "200", "--mode", "float"],
        ["iterate", "readme_hex.json", "--steps", "2", "--output", out],
        ["iterate", "deep_orbit-1-0.json", "--steps", "200"],
        ["iterate", "digits2000.json", "--steps", "2"],
        ["iterate", "triangle.json", "--steps", "2"],
        ["iterate", "square.json", "--steps", "1"],
        ["iterate", "square.json", "--steps", "1", "--mode", "float"],
        ["iterate", "pentagon.json", "--steps", "3"],
        ["iterate", "octagon.json", "--steps", "3", "--mode", "float"],
        ["iterate", "decimal_hex.json", "--steps", "3"],
        ["iterate", "decimal_hex.json", "--steps", "3", "--mode", "float"],
        ["iterate", "wide.json", "--steps", "1", "--mode", "float"],
        ["iterate", "float_overflow.json", "--mode", "float"],
        ["iterate", "digits400.json", "--mode", "float"],
        ["iterate", "float_huge_exponent.json", "--mode", "float"],
        ["iterate", "signed_zero.json", "--steps", "0", "--mode", "float"],
        ["iterate", "signed_zero.json", "--steps", "2", "--mode", "float"],
    ]
    for doc in ["not_json.json", "top_level_list.json", "no_vertices.json", "empty_vertices.json",
                "non_pair.json", "numeric_coordinate.json", "garbage_token.json", "zero_denominator.json"]:
        lines += [["verify", doc], ["iterate", doc]]
    lines += [
        ["figure", "readme_hex.json", "--steps", "1", "--output", svg],
        ["figure", "readme_hex.json", "--steps", "30", "--output", svg],
        ["figure", "readme_hex.json", "--steps", "200", "--output", svg],
        ["figure", "readme_hex.json", "--no-line", "--output", svg],
        ["figure", "readme_hex.json", "--no-centroids", "--output", svg],
        ["figure", "readme_hex.json", "--no-line", "--no-centroids", "--output", svg],
        ["figure", "readme_hex.json", "--width", "400", "--height", "300", "--output", svg],
        ["figure", "readme_hex.json", "--width", "1", "--height", "1", "--output", svg],
        ["figure", "readme_hex.json", "--fade-start", "0.5", "--fade-end", "0", "--output", svg],
        ["figure", "readme_hex.json", "--fade-start", "2", "--output", svg],
        ["figure", "readme_hex.json", "--width", "0", "--output", svg],
        # canvas sides up to FIGURE_MAX_SIDE = 10^296 are drawn, larger ones rejected
        ["figure", "readme_hex.json", "--width", str(10**400), "--output", svg],
        ["figure", "readme_hex.json", "--height", str(10**400), "--output", svg],
        ["figure", "tiny_hex.json", "--width", str(10**300), "--height", str(10**300), "--output", svg],
        ["figure", "tiny_hex.json", "--width", str(10**296), "--height", str(10**296), "--output", svg],
        ["figure", "readme_hex.json", "--steps", "0", "--output", svg],
        ["figure", "readme_hex.json", "--steps", "2001", "--output", svg],
        ["figure", "readme_hex.json", "--output", "no_such_dir/out.svg"],
        ["figure", "deep_orbit-1-0.json", "--steps", "200", "--output", svg],
        ["figure", "far306.json", "--no-centroids", "--no-line", "--output", svg],
        ["figure", "wide.json", "--output", svg],
        ["figure", "square.json", "--output", svg],
        ["figure", "decimal_hex.json", "--output", svg],
        ["figure", "not_json.json", "--output", svg],
    ]
    lines += [
        ["fuzz", "--trials", "20"],
        ["fuzz", "--seed", "42", "--trials", "100"],
        ["fuzz", "--seed", "0", "--trials", "6"],
        ["fuzz", "--seed", "1", "--trials", "6"],
        ["fuzz", "--seed", "2", "--trials", "6"],
        ["fuzz", "--seed", "7", "--trials", "1"],
        ["fuzz", "--seed", str(2**40), "--trials", "3"],
        # random.Random takes the absolute value of an int seed, so these
        # would replay trial 0 of the positive seeds
        ["fuzz", "--seed", "-1", "--trials", "3"],
        ["fuzz", "--seed", "-2", "--trials", "3"],
        ["fuzz", "--seed", "-42", "--trials", "3"],
        ["fuzz", "--seed", "3", "--trials", "3", "--steps", "2"],
        ["fuzz", "--seed", "3", "--trials", "3", "--steps", "200"],
        ["fuzz", "--seed", "4", "--trials", "20", "--bound", "1"],
        ["fuzz", "--seed", "4", "--trials", "6", "--bound", "1000000000"],
        ["fuzz", "--seed", "5", "--trials", "2", "--bound", "1000000000", "--steps", "200"],
        ["fuzz", "--trials", "2", "--output", out],
        ["fuzz", "--trials", "0"],
        ["fuzz", "--trials", "10001"],
        ["fuzz", "--bound", "0"],
        ["fuzz", "--bound", "1000000001"],
        ["fuzz", "--steps", "1"],
        ["fuzz", "--steps", "201"],
    ]
    witness_steps = {
        "5": ["3", "10", "14", "15", "100"],
        "7": ["3", "10", "12", "13", "300", "362", "363", "400"],
        "8": ["10", "18", "19", "200"],
        "12": ["10", "45", "46", "100"],
        "64": ["3", "10", "100", "1656", "1657", "2000"],
        "4096": ["3", "10", "2000"],
    }
    for m, steps in witness_steps.items():
        lines.append(["proposition", m])
        lines += [["proposition", m, "--steps", n] for n in steps]
    lines += [
        ["proposition", m] for m in ["9", "16", "32", "100", "256", "1000"]
    ] + [
        ["proposition", m] for m in ["-1", "0", "3", "4", "6", "4097"]
    ] + [
        ["proposition", "7", "--steps", "2"],
        ["proposition", "7", "--steps", "2001"],
        ["proposition", "7", "--tolerance", "0"],
        ["proposition", "7", "--tolerance", "1e-3", "--steps", "20"],
        ["proposition", "7", "--tolerance", "-1"],
        ["proposition", "7", "--tolerance", "nan"],
        ["proposition", "7", "--tolerance", "inf"],
        ["proposition", "7", "--output", out],
    ]
    # argparse's own usage errors; the corpus runs them at a fixed terminal width
    lines += [
        [],
        ["verify"],
        ["proposition"],
        ["verify", "readme_hex.json", "--steps", "x"],
        ["fuzz", "--seed", "x"],
        ["fuzz", "--bogus"],
        ["figure", "readme_hex.json"],
    ]
    return lines


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> dict:
    """One command line in process, in a directory holding the corpus documents."""
    target = Path(argv[argv.index("--output") + 1]) if "--output" in argv else None
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits 2 on a usage error
            code = exc.code
    written = None
    if target is not None and target.exists():
        written = hashlib.sha256(target.read_bytes()).hexdigest()
        target.unlink()
    return {"argv": argv, "stdout": _sha256(stdout.getvalue()), "stderr": _sha256(stderr.getvalue()),
            "exit": code, "output": written}


def run_corpus(docs: dict[str, str], argvs: list[list[str]]) -> list[dict]:
    """Every command line's entry, run in a fresh directory holding docs.

    argparse wraps its usage line to the terminal width and Python caps
    the digits of an integer string by an environment variable, so both
    are pinned to fixed values for the run.
    """
    cwd = os.getcwd()
    columns = os.environ.get("COLUMNS")
    digits = sys.get_int_max_str_digits()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in docs.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        os.environ["COLUMNS"] = "200"
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            return [_run(argv) for argv in argvs]
        finally:
            sys.set_int_max_str_digits(digits)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
            os.chdir(cwd)


def record() -> None:
    """Rewrite the manifest and print every entry whose values changed."""
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {"entries": []}
    previous = {tuple(e["argv"]): e for e in old["entries"]}
    docs = documents()
    entries = run_corpus(docs, command_lines())
    for entry in entries:
        before = previous.get(tuple(entry["argv"]))
        if before != entry:
            changed = "new" if before is None else ", ".join(
                f"{key} {before[key]} -> {entry[key]}" for key in ("exit", "stdout", "stderr", "output")
                if before[key] != entry[key])
            print(f"{' '.join(entry['argv']) or '(no arguments)'}: {changed}")
    for argv in previous.keys() - {tuple(e["argv"]) for e in entries}:
        print(f"{' '.join(argv) or '(no arguments)'}: removed")
    MANIFEST.write_text(json.dumps({"documents": docs, "entries": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {MANIFEST.name}")


if __name__ == "__main__":
    record()
