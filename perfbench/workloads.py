"""Seeded workload plans.

A plan is an endless sequence of rounds; a round is a list of ops, and an op
is one ``swapkd`` command line (without its output flags).  The program sees
only these arguments.  Rounds are the unit a run stops on, so a run never
ends inside a curve and every run holds the same mix of cheap and expensive
ops.  The same (workload, seed, round) always yields the same arguments.
"""

from __future__ import annotations

import math
import random
from typing import List

WORKLOADS = ("chi-scan", "alpha-scan", "compare-decoy")

# Ops over which the deterministic counters are reported; every run
# completes at least this many, so the counters repeat exactly per seed.
MIN_OPS = {"chi-scan": 10, "alpha-scan": 10, "compare-decoy": 4}

# chi-scan: one brightness curve per round.  The top of 0.25 escalates to
# n_max 6 across the whole (eta0, alpha_d) box; the preset top of 0.3 lands
# on n_max 6 or 7 in an irregular band of that box, which would make the
# cost of a run depend on the seed by a factor of two.
CHI_LO = 1e-4
CHI_TOP = 0.25
CHI_POINTS = 10

# alpha-scan: one stratum of the 0-50 dB span per op, five per round.
ALPHA_SPAN = 50.0
ALPHA_STRATA = 5

# compare-decoy: two strata of 0-55 dB per round, one row per fig7 level.
DECOY_SPAN = 55.0
DECOY_STRATA = 2
DECOY_ETA0 = 0.2
DECOY_PDC_LEVELS = (1.8e-5, 1e-6)


def _num(x: float) -> str:
    return "%.6g" % x


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _run_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:run")


def _sweep(chi: float, eta0: float, alpha: float) -> List[str]:
    return [
        "sweep",
        "--chi-grid", _num(chi),
        "--eta0-grid", _num(eta0),
        "--alpha-d-grid", _num(alpha),
        "--constraint",
        "--workers", "1",
    ]


def chi_grid(rng: random.Random) -> List[float]:
    """Log-spaced chi from CHI_LO to CHI_TOP; interior points jittered."""
    step = (math.log(CHI_TOP) - math.log(CHI_LO)) / (CHI_POINTS - 1)
    grid = []
    for i in range(CHI_POINTS):
        jitter = 0.0 if i in (0, CHI_POINTS - 1) else rng.uniform(-0.4, 0.4)
        grid.append(math.exp(math.log(CHI_LO) + (i + jitter) * step))
    return grid


def round_ops(workload: str, seed: int, round_index: int) -> List[List[str]]:
    """The command lines of one round."""
    rng = _rng(workload, seed, round_index)
    if workload == "chi-scan":
        eta0 = rng.uniform(0.1, 0.3)
        alpha = rng.uniform(0.0, 50.0)
        return [_sweep(chi, eta0, alpha) for chi in chi_grid(rng)]
    if workload == "alpha-scan":
        run = _run_rng(workload, seed)
        chi = run.uniform(0.05, 0.2)
        eta0 = run.uniform(0.1, 0.3)
        width = ALPHA_SPAN / ALPHA_STRATA
        return [
            _sweep(chi, eta0, width * (k + rng.random()))
            for k in range(ALPHA_STRATA)
        ]
    if workload == "compare-decoy":
        width = DECOY_SPAN / DECOY_STRATA
        levels = [DECOY_PDC_LEVELS[k % 2] for k in range(DECOY_STRATA)]
        rng.shuffle(levels)
        return [
            [
                "compare-decoy",
                "--alpha-d-grid", _num(width * (k + rng.random())),
                "--eta0", _num(DECOY_ETA0),
                "--pdc", _num(levels[k]),
            ]
            for k in range(DECOY_STRATA)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def first_ops(workload: str, seed: int, count: int) -> List[List[str]]:
    """The first ``count`` command lines of a plan, across rounds."""
    ops: List[List[str]] = []
    r = 0
    while len(ops) < count:
        ops.extend(round_ops(workload, seed, r))
        r += 1
    return ops[:count]
