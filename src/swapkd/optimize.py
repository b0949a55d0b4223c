"""Scenario evaluation, sweeps, and key-rate maximization over (chi, eta0).

A Scenario bundles one operating point of the swapping link.  evaluate() runs
the full sources -> swap -> metrics -> rates pipeline at increasing Fock
cutoffs until two consecutive cutoffs agree, so every reported number carries
a convergence verdict.  The optimizers are nested 1-D golden-section searches
seeded by coarse grids, with an explicit unimodality guard.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .detectors import DEFAULT_CONSTRAINT, DetectorConstraint
from .errors import (
    ConstraintViolationError,
    NoCoincidenceError,
    TruncationError,
    UndefinedStateError,
    UndefinedVisibilityError,
)
from .fock import TruncationPolicy
from .metrics import QberReport, qber
from .rates import (
    KAPPA_DEFAULT,
    KeyRateReport,
    NU_DEFAULT,
    golden_max,
    optimal_mu,
    secret_rate,
    sifted_rate,
)
from .sources import CHI_CAP
from .swap import SwapResult, bsm_detector, swap_conditional_state

__all__ = [
    "Scenario",
    "OptimumPoint",
    "SweepRow",
    "evaluate",
    "sweep",
    "ordered_map",
    "optimize_chi",
    "optimize_joint",
    "es_optimal_rate",
    "decoy_optimal_rate",
    "find_crossover",
    "max_positive_alpha",
]

# Hard ceiling of the chi search; below the engine's validity cap on purpose
# so the optimum never rides the edge of the truncation budget.
CHI_SEARCH_MAX = 0.3
CHI_SEARCH_MIN = 1e-3
ETA0_SEARCH_RANGE = (0.05, 0.6)
# Joint search: eta0 seed grid and golden-section tolerance, and the coarse
# chi grid and tolerance of each inner search.
ETA0_SEED_POINTS = 12
ETA0_TOL = 1e-3
INNER_CHI_GRID_POINTS = 15
INNER_CHI_TOL = 1e-3
_ESCALATION_STEPS = 3


@dataclass(frozen=True)
class Scenario:
    """One operating point; dark counts either explicit or tied to eta0.

    Exactly one of p_dc and constraint must be set.  In constraint mode the
    dark-count probability is recomputed from eta0 on every access, so a
    Scenario can never carry a stale pairing.
    """

    alpha_d_db: float
    chi: float
    eta0: float
    p_dc: Optional[float] = None
    constraint: Optional[DetectorConstraint] = None
    kappa: float = KAPPA_DEFAULT
    policy: TruncationPolicy = TruncationPolicy()

    def __post_init__(self):
        if (self.p_dc is None) == (self.constraint is None):
            raise ValueError("exactly one of p_dc and constraint must be set")
        if self.alpha_d_db < 0.0:
            raise ValueError(f"alpha_d_db {self.alpha_d_db!r} negative")
        if not 0.0 <= self.chi <= CHI_CAP:
            raise ValueError(f"chi {self.chi!r} outside [0, {CHI_CAP}]")
        if not 0.0 <= self.eta0 <= 1.0:
            raise ValueError(f"eta0 {self.eta0!r} outside [0, 1]")
        if self.p_dc is not None and not 0.0 <= self.p_dc < 1.0:
            raise ValueError(f"p_dc {self.p_dc!r} outside [0, 1)")

    @property
    def resolved_p_dc(self) -> float:
        if self.constraint is not None:
            return self.constraint.p_dc(self.eta0)
        return self.p_dc


def _pipeline_once(
    s: Scenario, n_max: int, with_visibility: bool
) -> Tuple[SwapResult, QberReport]:
    policy = TruncationPolicy(n_max=n_max, convergence_tol=s.policy.convergence_tol)
    p_dc = s.resolved_p_dc
    result = swap_conditional_state(
        chi=s.chi, eta0=s.eta0, alpha_d_db=s.alpha_d_db, p_dc=p_dc, policy=policy
    )
    # Alice's and Bob's detectors sit at the far ends of the two outer arms,
    # so they see the same quarter-link loss as each BSM detector.
    arm_detector = bsm_detector(s.eta0, s.alpha_d_db, p_dc)
    report = qber(result, arm_detector, compute_visibility=with_visibility)
    return result, report


def _observables(result: SwapResult, report: QberReport) -> Tuple[float, ...]:
    return (
        report.qber,
        report.sifted_coincidence_probability,
        result.herald_probability,
    )


def _close(a: float, b: float, rel: float, floor: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _assemble(
    s: Scenario, result: SwapResult, report: QberReport, n_max_used: int, converged: bool
) -> KeyRateReport:
    r_sift = sifted_rate(s.chi, s.eta0, s.alpha_d_db)
    qber_for_rate = min(report.qber, 0.5)
    r_raw, r_sec = secret_rate(r_sift, qber_for_rate, s.kappa)
    return KeyRateReport(
        chi=s.chi,
        eta0=s.eta0,
        alpha_d_db=s.alpha_d_db,
        p_dc=s.resolved_p_dc,
        kappa=s.kappa,
        visibility=report.visibility,
        qber=report.qber,
        qber_z=report.qber_z,
        qber_x=report.qber_x,
        qber_from_v=report.qber_from_v,
        r_sift=r_sift,
        r_sec_raw=r_raw,
        r_sec=r_sec,
        herald_probability=result.herald_probability,
        coincidence_probability=report.sifted_coincidence_probability,
        n_max_used=n_max_used,
        converged=converged,
        diagnostics={
            "p_total_z": report.p_total_z,
            "p_total_x": report.p_total_x,
            "p_double_alice_z": report.table_z.p_double_alice,
            "p_double_bob_z": report.table_z.p_double_bob,
        },
    )


def evaluate(s: Scenario, with_visibility: bool = True, escalate: bool = True) -> KeyRateReport:
    """Run the full pipeline for one scenario.

    With escalate=True (the default) the pipeline runs at the scenario's
    n_max and again at n_max+1; if the error rate, coincidence probability,
    and herald probability all agree to the policy's convergence tolerance,
    the higher-cutoff values are reported with converged=True.  Otherwise the
    cutoff keeps climbing (up to three extra steps) and a truncation error
    carrying the two disagreeing value sets is raised if agreement never
    happens.  escalate=False runs a single cutoff and reports converged=False;
    it exists for optimizer inner loops that only need relative comparisons.
    """
    if not escalate:
        result, report = _pipeline_once(s, s.policy.n_max, with_visibility)
        return _assemble(s, result, report, s.policy.n_max, converged=False)

    tol = s.policy.convergence_tol
    n = s.policy.n_max
    prev_obs = _observables(*_pipeline_once(s, n, with_visibility))
    disagreement = None
    for step in range(1, _ESCALATION_STEPS + 1):
        n_hi = n + step
        cur = _pipeline_once(s, n_hi, with_visibility)
        cur_obs = _observables(*cur)
        if all(_close(a, b, tol) for a, b in zip(prev_obs, cur_obs)):
            return _assemble(s, cur[0], cur[1], n_hi, converged=True)
        disagreement = (prev_obs, cur_obs)
        prev_obs = cur_obs
    raise TruncationError(
        f"pipeline did not converge between n_max={n + _ESCALATION_STEPS - 1} "
        f"and n_max={n + _ESCALATION_STEPS}",
        values=disagreement,
    )


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: either a report or a recorded failure."""

    scenario: Scenario
    report: Optional[KeyRateReport]
    error: Optional[str] = None


# Failures that belong to one grid point: the physics at that point is
# undefined or unconverged, or its parameters are out of range.  Anything
# else is a programming error and aborts the sweep.
_ROW_ERRORS = (
    TruncationError,
    NoCoincidenceError,
    UndefinedVisibilityError,
    UndefinedStateError,
    ConstraintViolationError,
    ValueError,
)


def _evaluate_row(s: Scenario) -> SweepRow:
    try:
        return SweepRow(scenario=s, report=evaluate(s))
    except _ROW_ERRORS as exc:  # per-point failures must not abort the sweep
        return SweepRow(scenario=s, report=None, error=f"{type(exc).__name__}: {exc}")


def ordered_map(fn: Callable, items: Sequence, workers: Optional[int]) -> List:
    """[fn(x) for x in items], fanned out to a process pool when workers > 1.

    Results come back in input order, so they do not depend on the worker
    count; fn and the items must be picklable.
    """
    if workers is not None and workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def sweep(scenarios: Sequence[Scenario], workers: Optional[int] = None) -> List[SweepRow]:
    """Evaluate every scenario, in input order, tolerating per-point failures."""
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("empty scenario list")
    return ordered_map(_evaluate_row, scenarios, workers)


@dataclass(frozen=True)
class OptimumPoint:
    """Result of a rate maximization at one distance."""

    alpha_d_db: float
    chi_opt: float
    eta0_opt: float
    p_dc_at_opt: float
    r_sec_at_opt: float
    qber_at_opt: float
    converged: bool = True
    positive: bool = True
    guard_flag: bool = False
    report: Optional[KeyRateReport] = None


def _chi_rate_fn(
    alpha_d_db: float,
    eta0: float,
    p_dc: Optional[float],
    constraint: Optional[DetectorConstraint],
    kappa: float,
    policy: TruncationPolicy,
) -> Callable[[float], float]:
    def rate(chi: float) -> float:
        s = Scenario(
            alpha_d_db=alpha_d_db,
            chi=chi,
            eta0=eta0,
            p_dc=p_dc,
            constraint=constraint,
            kappa=kappa,
            policy=policy,
        )
        return evaluate(s, with_visibility=False, escalate=False).r_sec

    return rate


def optimize_chi(
    alpha_d_db: float,
    eta0: float,
    p_dc: Optional[float] = None,
    constraint: Optional[DetectorConstraint] = None,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
    grid_points: int = 25,
    refine_tol: float = 1e-4,
    full_final: bool = True,
) -> OptimumPoint:
    """Maximize the secret rate over chi at fixed distance and detectors.

    Coarse search on a log-spaced grid, golden-section refinement inside the
    bracketing grid cell, and (when full_final is set) a convergence-checked
    re-evaluation at the winner.  If refinement lands below the best grid
    value the function falls back to a fine linear scan of the bracket and
    flags the point, so a non-unimodal rate curve cannot silently win.
    """
    rate = _chi_rate_fn(alpha_d_db, eta0, p_dc, constraint, kappa, policy)
    grid = np.logspace(math.log10(CHI_SEARCH_MIN), math.log10(CHI_SEARCH_MAX), grid_points)
    values = [rate(c) for c in grid]
    i_best = int(np.argmax(values))
    if values[i_best] <= 0.0:
        s_probe = Scenario(
            alpha_d_db=alpha_d_db, chi=grid[i_best], eta0=eta0,
            p_dc=p_dc, constraint=constraint, kappa=kappa, policy=policy,
        )
        return OptimumPoint(
            alpha_d_db=alpha_d_db,
            chi_opt=float("nan"),
            eta0_opt=eta0,
            p_dc_at_opt=s_probe.resolved_p_dc,
            r_sec_at_opt=0.0,
            qber_at_opt=float("nan"),
            converged=False,
            positive=False,
        )

    lo = grid[max(0, i_best - 1)]
    hi = grid[min(grid_points - 1, i_best + 1)]
    chi_opt, r_opt = golden_max(rate, lo, hi, refine_tol)
    guard_flag = False
    if r_opt < values[i_best]:
        guard_flag = True
        fine = np.linspace(lo, hi, 201)
        fine_vals = [rate(c) for c in fine]
        j = int(np.argmax(fine_vals))
        chi_opt, r_opt = float(fine[j]), fine_vals[j]
        if r_opt < values[i_best]:
            chi_opt, r_opt = float(grid[i_best]), values[i_best]

    s_opt = Scenario(
        alpha_d_db=alpha_d_db, chi=float(chi_opt), eta0=eta0,
        p_dc=p_dc, constraint=constraint, kappa=kappa, policy=policy,
    )
    if full_final:
        report = evaluate(s_opt)
        return OptimumPoint(
            alpha_d_db=alpha_d_db,
            chi_opt=float(chi_opt),
            eta0_opt=eta0,
            p_dc_at_opt=s_opt.resolved_p_dc,
            r_sec_at_opt=report.r_sec,
            qber_at_opt=report.qber,
            converged=report.converged,
            guard_flag=guard_flag,
            report=report,
        )
    fast = evaluate(s_opt, with_visibility=False, escalate=False)
    return OptimumPoint(
        alpha_d_db=alpha_d_db,
        chi_opt=float(chi_opt),
        eta0_opt=eta0,
        p_dc_at_opt=s_opt.resolved_p_dc,
        r_sec_at_opt=fast.r_sec,
        qber_at_opt=fast.qber,
        converged=False,
        guard_flag=guard_flag,
        report=fast,
    )


def optimize_joint(
    alpha_d_db: float,
    constraint: DetectorConstraint = DEFAULT_CONSTRAINT,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
) -> OptimumPoint:
    """Maximize the rate over (chi, eta0) with dark counts tied to eta0.

    Outer golden-section over eta0 around a coarse seed; each outer value
    runs a cheap inner chi optimization.  The returned point re-runs the
    inner search at full resolution and re-evaluates the winner with the
    truncation escalation enabled.
    """

    def inner_rate(eta0: float) -> float:
        point = optimize_chi(
            alpha_d_db, eta0, constraint=constraint, kappa=kappa, policy=policy,
            grid_points=INNER_CHI_GRID_POINTS, refine_tol=INNER_CHI_TOL, full_final=False,
        )
        return point.r_sec_at_opt

    seeds = np.linspace(*ETA0_SEARCH_RANGE, ETA0_SEED_POINTS)
    seed_vals = [inner_rate(e) for e in seeds]
    i_best = int(np.argmax(seed_vals))
    if seed_vals[i_best] <= 0.0:
        return OptimumPoint(
            alpha_d_db=alpha_d_db,
            chi_opt=float("nan"),
            eta0_opt=float("nan"),
            p_dc_at_opt=float("nan"),
            r_sec_at_opt=0.0,
            qber_at_opt=float("nan"),
            converged=False,
            positive=False,
        )
    lo = seeds[max(0, i_best - 1)]
    hi = seeds[min(ETA0_SEED_POINTS - 1, i_best + 1)]
    eta_opt, r_outer = golden_max(inner_rate, float(lo), float(hi), ETA0_TOL)
    guard_flag = False
    if r_outer < seed_vals[i_best]:
        guard_flag = True
        eta_opt = float(seeds[i_best])

    final = optimize_chi(
        alpha_d_db, float(eta_opt), constraint=constraint, kappa=kappa, policy=policy,
    )
    return OptimumPoint(
        alpha_d_db=alpha_d_db,
        chi_opt=final.chi_opt,
        eta0_opt=float(eta_opt),
        p_dc_at_opt=final.p_dc_at_opt,
        r_sec_at_opt=final.r_sec_at_opt,
        qber_at_opt=final.qber_at_opt,
        converged=final.converged,
        positive=final.positive,
        guard_flag=guard_flag or final.guard_flag,
        report=final.report,
    )


def es_optimal_rate(
    alpha_d_db: float,
    eta0: float,
    p_dc: float,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
) -> Tuple[float, float]:
    """Best chi and its rate for the swapping scheme at one distance."""
    point = optimize_chi(
        alpha_d_db, eta0, p_dc=p_dc, kappa=kappa, policy=policy, full_final=False
    )
    return point.chi_opt, point.r_sec_at_opt


def decoy_optimal_rate(
    alpha_d_db: float,
    eta0: float,
    p_dc: float,
    nu: float = NU_DEFAULT,
    kappa: float = KAPPA_DEFAULT,
) -> Tuple[float, float]:
    """Best signal intensity and its rate for the decoy baseline."""
    return optimal_mu(eta0, alpha_d_db, p_dc, nu=nu, kappa=kappa)


def find_crossover(
    eta0: float,
    p_dc: float,
    alpha_lo: float = 0.0,
    alpha_hi: float = 60.0,
    step: float = 2.5,
    tol: float = 0.1,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
    nu: float = NU_DEFAULT,
) -> Optional[float]:
    """Distance where the decoy and swapping rate curves cross, or None.

    Both schemes are re-optimized over their source brightness at every
    sampled distance.  The crossover is located as the sign change of
    R_decoy - R_es, which stays defined through the decoy curve's steep
    drop to zero (where the published curves cross); in the region where
    both rates are positive this is the same point as the sign change of
    the log-rate difference.  Bisection narrows it to tol dB.  Returns None
    when one scheme's rate stays on the same side of the other's over the
    whole positive-rate region (p_dc = 0 behaves this way).
    """

    def difference(alpha: float) -> Optional[float]:
        r_es = es_optimal_rate(alpha, eta0, p_dc, kappa=kappa, policy=policy)[1]
        r_dk = decoy_optimal_rate(alpha, eta0, p_dc, nu=nu, kappa=kappa)[1]
        if r_es <= 0.0 and r_dk <= 0.0:
            return None
        return r_dk - r_es

    alphas = np.arange(alpha_lo, alpha_hi + 0.5 * step, step)
    diffs = [difference(float(a)) for a in alphas]
    bracket = None
    for (a0, g0), (a1, g1) in zip(zip(alphas, diffs), zip(alphas[1:], diffs[1:])):
        if g0 is None or g1 is None:
            continue
        if g0 == 0.0:
            return float(a0)
        if g0 * g1 < 0.0:
            bracket = (float(a0), float(a1), g0)
            break
    if bracket is None:
        return None

    lo, hi, g_lo = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = difference(mid)
        if g_mid is None or g_mid == 0.0:
            break
        if g_lo * g_mid < 0.0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


def max_positive_alpha(
    rate_fn: Callable[[float], float],
    alpha_lo: float = 0.0,
    alpha_hi: float = 80.0,
    step: float = 2.5,
    tol: float = 0.1,
) -> Optional[float]:
    """Largest distance with positive rate, to tol dB; None if never positive.

    Scans from alpha_lo for the last positive sample, then bisects the
    positive-to-zero boundary.  Returns alpha_hi itself if the rate is still
    positive at the end of the scan window.
    """
    alphas = np.arange(alpha_lo, alpha_hi + 0.5 * step, step)
    rates = [rate_fn(float(a)) for a in alphas]
    positive = [i for i, r in enumerate(rates) if r > 0.0]
    if not positive:
        return None
    i_last = positive[-1]
    if i_last == len(alphas) - 1:
        return float(alphas[-1])
    lo, hi = float(alphas[i_last]), float(alphas[i_last + 1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rate_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
