"""The three workloads: CLI calls drawn from a seed, and the check of each call.

BENCHMARK.json names the workloads and says why each exists. The seed is
the benchmark's argument; the program sees only the generated argument
vectors. The same seed always gives the same calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any

# Each sample does about 1-4 s of work, so that a run's median over many
# fresh-process samples rejects the host's bursts of contention, which last a
# few seconds (see README.md, "Workloads").
TRAJECTORY_NBAR = 3
TRAJECTORY_STEPS = 6_666
TRAJECTORY_DIM = 36
ROBUSTNESS_NBAR = 3
# the smallest, a middle and the largest level of the paper's 1..8 sweep
PHASE_SCAN_NBARS = (1, 4, 8)
# theta2 = x / sqrt(nbar) with x drawn near the optimum 3pi/4; the band stays
# narrow because the fixed-point step count depends on theta2
THETA2_CENTER = 0.75 * math.pi
THETA2_HALF_WIDTH = 0.005 * math.pi
CAVITY = ["--kappa", "10", "--nth", "0.05", "--pat", "0.3"]


@dataclass(frozen=True)
class Call:
    """One ``fockstab.cli.main`` call; ``--out`` is appended per sample."""

    argv: list[str]
    out: str
    check: str          # name of the function in checks.py
    check_args: dict[str, Any]


def plan(name: str, seed: int) -> tuple[dict[str, Any], list[Call]]:
    """The drawn inputs and the calls of one workload at one seed."""
    rng = random.Random(seed)
    if name == "trajectory":
        phi = rng.uniform(0.0, 2.0 * math.pi)
        level = rng.randrange(4)
        argv = ["trajectory", "--nbar", str(TRAJECTORY_NBAR), "--phi", repr(phi),
                "--init", f"fock:{level}", "--steps", str(TRAJECTORY_STEPS),
                "--dim", str(TRAJECTORY_DIM)]
        return {"phi": phi, "init_level": level}, [Call(argv, "trajectory.csv", "check_trajectory", {})]
    x = THETA2_CENTER + rng.uniform(-THETA2_HALF_WIDTH, THETA2_HALF_WIDTH)
    if name == "robustness":
        theta2 = x / math.sqrt(ROBUSTNESS_NBAR)
        argv = ["robustness", "--nbar", str(ROBUSTNESS_NBAR), "--theta2", repr(theta2), "--format", "json"]
        return {"x": x, "theta2": theta2}, [Call(argv, "robustness.json", "check_robustness", {})]
    if name == "phase_scan":
        oracle_level = rng.choice(list(PHASE_SCAN_NBARS))
        calls = [
            Call(["tune-phase", "--nbar", str(n), "--theta2", repr(x / math.sqrt(n)), *CAVITY, "--format", "json"],
                 f"tune_phase_n{n}.json", "check_tune_phase", {"cross_oracle": n == oracle_level})
            for n in PHASE_SCAN_NBARS
        ]
        return {"x": x, "oracle_level": oracle_level}, calls
    raise ValueError(f"unknown workload {name!r}")
