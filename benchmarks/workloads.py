"""The benchmark's workloads: seeded inputs, oracle expectations, output checks.

Each workload is a round of operations, each one `midpoly` command line.
A run repeats whole rounds, so every run attempts the same mix. Inputs
depend only on the workload seed; expectations come from `oracle`, never
from midpoly.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

FUZZ_SEEDS_PER_ROUND = 16
FUZZ_TRIALS = 6  # hexagons per fuzz op
FUZZ_BOUND = 9
FUZZ_STEPS = 12

DEEP_DOCS_PER_ROUND = 4
DEEP_STEPS = 200
DEEP_NUMERATOR_BOUND = 40
DEEP_DENOMINATORS = (2, 5, 10)

SPECTRAL_M = 64
SPECTRAL_STEPS = 10
SLOPE_REL_TOL = 1e-9


@dataclass
class Op:
    argv: list[str]
    params: dict = field(default_factory=dict)


def build_round(workload: str, seed: int, workdir: Path) -> list[Op]:
    """One round of the workload's operations, made from the seed alone."""
    rng = random.Random(seed)
    if workload == "fuzz":
        ops = []
        for _ in range(FUZZ_SEEDS_PER_ROUND):
            s = rng.randrange(1, 2**31)
            argv = ["fuzz", "--seed", str(s), "--trials", str(FUZZ_TRIALS),
                    "--bound", str(FUZZ_BOUND), "--steps", str(FUZZ_STEPS)]
            ops.append(Op(argv, {"seed": s}))
        return ops
    if workload == "deep_orbit":
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for i in range(DEEP_DOCS_PER_ROUND):
            coords = [
                tuple(Fraction(rng.randint(-DEEP_NUMERATOR_BOUND, DEEP_NUMERATOR_BOUND),
                               rng.choice(DEEP_DENOMINATORS)) for _ in range(2))
                for _ in range(6)
            ]
            doc = {"schema": "polygon/1", "vertices": [[str(x), str(y)] for x, y in coords]}
            path = workdir / f"deep_orbit-{seed}-{i}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            ops.append(Op(["verify", str(path), "--steps", str(DEEP_STEPS)], {"coords": coords}))
        return ops
    if workload == "spectral":
        return [Op(["proposition", str(SPECTRAL_M), "--steps", str(SPECTRAL_STEPS)])]
    raise ValueError(f"unknown workload {workload!r}")


def expected(workload: str, op: Op):
    """The oracle's view of what the op must report."""
    if workload == "fuzz":
        return oracle.fuzz_counts(op.params["seed"], FUZZ_TRIALS, FUZZ_BOUND, FUZZ_STEPS)
    if workload == "deep_orbit":
        coords = op.params["coords"]
        orbit = oracle.centroid_orbit(coords, DEEP_STEPS)
        limit = oracle.vertex_mean(coords)
        line = oracle.OrbitLine(orbit)
        return {"orbit": orbit, "limit": limit,
                "colinear": line.sufficient and line.all_colinear() and line.contains(limit)}
    ratio = 2.0 * math.cos(2.0 * math.pi / SPECTRAL_M) - 1.0
    return {"slopes": oracle.witness_slopes(SPECTRAL_M, SPECTRAL_STEPS), "ratio": ratio}


def check(workload: str, op: Op, want, text: str) -> str | None:
    """None when an op that exited 0 printed a report the oracle agrees with, else why not."""
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"unparseable report: {exc}"
    if workload == "fuzz":
        if got["theorem_failures"] != 0 or got["z_scaling_failures"] != 0:
            return "fuzz reported failures"
        if got["theorem_passes"] + got["insufficient_data"] != FUZZ_TRIALS:
            return "passes + insufficient != trials"
        for key, value in want.items():
            if got[key] != value:
                return f"{key}: reported {got[key]}, oracle {value}"
        return None
    if workload == "deep_orbit":
        if not want["colinear"]:
            return "oracle: centroids G_1..G_n and the vertex centroid are not colinear"
        if not (got["all_colinear"] is True and got["limit_on_line"] is True):
            return "report does not say all_colinear and limit_on_line"
        if len(got["centroids"]) != DEEP_STEPS + 1:
            return f"{len(got['centroids'])} centroids reported"
        for n, (pair, h) in enumerate(zip(got["centroids"], want["orbit"])):
            if (pair is None) != (h is None) or (h is not None and not oracle.equals_fraction_pair(h, pair)):
                return f"centroid {n} differs from the oracle"
        if not oracle.equals_fraction_pair(want["limit"], got["limit_point"]):
            return "limit point differs from the oracle"
        return None
    if got["passed"] is not True or got["m"] != SPECTRAL_M:
        return "proposition not passed"
    if len(got["slopes"]) != SPECTRAL_STEPS + 1:
        return f"{len(got['slopes'])} slopes reported"
    for n, (s, t) in enumerate(zip(got["slopes"], want["slopes"])):
        if not oracle.rel_close(s, t, SLOPE_REL_TOL):
            return f"slope {n}: reported {s!r}, oracle {t!r}"
    for n, r in enumerate(got["ratios"]):
        if not oracle.rel_close(r, want["ratio"], SLOPE_REL_TOL):
            return f"ratio {n}: reported {r!r}, expected {want['ratio']!r}"
    return None
