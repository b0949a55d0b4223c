"""Scenario evaluation, sweeps, and key-rate maximization over (chi, eta0).

A Scenario bundles one operating point of the swapping link.  evaluate() runs
the full sources -> swap -> metrics -> rates pipeline at increasing Fock
cutoffs until two consecutive cutoffs agree, so every reported number carries
a convergence verdict.  It builds each cutoff it reaches once: the swap with
its key-basis stacks (swap.link_povms), which metrics.qber reads directly.
The base cutoff is never built: it is the next one's swap result compressed
(SwapResult.compressed).  The visibility fringes are scanned once, at the
accepted cutoff, from the same swap result.
Brightness searches run on the rate curve of one chi-free build (the QBER
polynomial), not on the pipeline, with rates.grid_max: a coarse grid,
golden-section refinement and an explicit unimodality guard.  Searches that
only need the best rate report the curve's value; optimize_chi evaluates its
winner.  Distance boundaries are bisected with rates.bisect.
One routine (_compare_schemes) sets the swap link against decoy BB84 at a
distance, each at a fixed or its best source intensity; it gives every
compare-decoy row and every distance the crossover search samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .detectors import DEFAULT_CONSTRAINT, DetectorConstraint
from .errors import (
    NUMERICAL_ERRORS,
    ConstraintViolationError,
    InvalidInputError,
    NoCoincidenceError,
    TruncationError,
)
from .fock import TruncationPolicy
from .metrics import QberReport, qber, qber_polynomial, visibility
from .rates import (
    KAPPA_DEFAULT,
    KeyRateReport,
    NU_DEFAULT,
    _check_kappa,
    bisect,
    decoy_inputs,
    decoy_rate_report,
    grid_max,
    optimal_mu,
    secret_rate,
    sifted_rate,
)
from .sources import CHI_CAP
from .swap import SwapResult, graded_swap_state, swap_conditional_state

__all__ = [
    "Scenario",
    "OptimumPoint",
    "SweepRow",
    "evaluate",
    "sweep",
    "optimize_chi",
    "optimize_joint",
    "es_optimal_rate",
    "find_crossover",
    "max_positive_alpha",
]

# Hard ceiling of the chi search; below the engine's validity cap on purpose
# so the optimum never rides the edge of the truncation budget.
CHI_SEARCH_MAX = 0.3
CHI_SEARCH_MIN = 1e-3
ETA0_SEARCH_RANGE = (0.05, 0.6)
# Coarse chi grid and golden-section tolerance of a brightness search.
CHI_GRID_POINTS = 25
CHI_TOL = 1e-4
# Joint search: eta0 seed grid and golden-section tolerance, and the coarse
# chi grid and tolerance of each inner search.
ETA0_SEED_POINTS = 12
ETA0_TOL = 1e-3
INNER_CHI_GRID_POINTS = 15
INNER_CHI_TOL = 1e-3
_ESCALATION_STEPS = 3
# Width (dB) to which the crossover search bisects its bracket.
CROSSOVER_TOL_DB = 0.1


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
            raise InvalidInputError("exactly one of p_dc and constraint must be set")
        if not (math.isfinite(self.alpha_d_db) and self.alpha_d_db >= 0.0):
            raise InvalidInputError(f"alpha_d_db {self.alpha_d_db!r} not finite and non-negative")
        if not 0.0 <= self.chi <= CHI_CAP:
            raise InvalidInputError(f"chi {self.chi!r} outside [0, {CHI_CAP}]")
        if not 0.0 <= self.eta0 <= 1.0:
            raise InvalidInputError(f"eta0 {self.eta0!r} outside [0, 1]")
        if self.p_dc is not None and not 0.0 <= self.p_dc < 1.0:
            raise InvalidInputError(f"p_dc {self.p_dc!r} outside [0, 1)")
        _check_kappa(self.kappa)

    @property
    def resolved_p_dc(self) -> float:
        if self.constraint is not None:
            return self.constraint.p_dc(self.eta0)
        return self.p_dc


def _pipeline_once(s: Scenario, n_max: int) -> SwapResult:
    """The swap at cutoff n_max with its own key-basis stacks: one build."""
    policy = TruncationPolicy(n_max=n_max, convergence_tol=s.policy.convergence_tol)
    return swap_conditional_state(
        chi=s.chi, eta0=s.eta0, alpha_d_db=s.alpha_d_db, p_dc=s.resolved_p_dc, policy=policy
    )


def _observables(stage: SwapResult) -> Tuple[QberReport, Tuple[float, ...]]:
    """The stage's QBER report and the values whose agreement means convergence."""
    report = qber(stage)
    return report, (
        report.qber,
        report.sifted_coincidence_probability,
        stage.herald_probability,
    )


def _close(a: float, b: float, rel: float, floor: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _assemble(s: Scenario, stage: SwapResult, report: QberReport) -> KeyRateReport:
    r_sift = sifted_rate(s.chi, s.eta0, s.alpha_d_db)
    qber_for_rate = min(report.qber, 0.5)
    r_raw, r_sec = secret_rate(r_sift, qber_for_rate, s.kappa)
    vis = visibility(stage)
    return KeyRateReport(
        chi=s.chi,
        eta0=s.eta0,
        alpha_d_db=s.alpha_d_db,
        p_dc=s.resolved_p_dc,
        kappa=s.kappa,
        visibility=vis,
        qber=report.qber,
        qber_z=report.qber_z,
        qber_x=report.qber_x,
        qber_from_v=0.5 * (1.0 - vis),
        r_sift=r_sift,
        r_sec_raw=r_raw,
        r_sec=r_sec,
        herald_probability=stage.herald_probability,
        coincidence_probability=report.sifted_coincidence_probability,
        n_max_used=stage.n_max,
        converged=True,
        diagnostics={
            "p_total_z": report.p_total_z,
            "p_total_x": report.p_total_x,
            "p_double_alice_z": report.table_z.p_double_alice,
            "p_double_bob_z": report.table_z.p_double_bob,
        },
    )


def evaluate(s: Scenario) -> KeyRateReport:
    """Run the full pipeline for one scenario.

    The error rate, coincidence probability, and herald probability at the
    scenario's n_max are compared with those at n_max+1; if they all agree
    to the policy's convergence tolerance, the higher-cutoff values are
    reported with converged=True.  Otherwise the cutoff keeps climbing (up
    to three extra steps) and a truncation error carrying the two
    disagreeing value sets is raised if agreement never happens.  Each
    cutoff reached is built once (_pipeline_once); the n_max values are
    those of the n_max+1 swap result compressed to n_max
    (SwapResult.compressed), so the base cutoff is never built.  The
    visibility fringes are scanned once, in the Z and X bases at the
    accepted cutoff, for the report's visibility and its (1 - V)/2
    consistency value qber_from_v.
    """
    tol = s.policy.convergence_tol
    n = s.policy.n_max
    stage = _pipeline_once(s, n + 1)
    prev_obs = _observables(stage.compressed(n))[1]
    while True:
        report, cur_obs = _observables(stage)
        if all(_close(a, b, tol) for a, b in zip(prev_obs, cur_obs)):
            return _assemble(s, stage, report)
        n_hi = stage.n_max
        if n_hi == n + _ESCALATION_STEPS:
            raise TruncationError(
                f"pipeline did not converge between n_max={n_hi - 1} and n_max={n_hi}",
                values=(prev_obs, cur_obs),
            )
        prev_obs = cur_obs
        del stage  # free this cutoff's arrays before the next one is built
        stage = _pipeline_once(s, n_hi + 1)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: either a report or a recorded failure."""

    scenario: Scenario
    report: Optional[KeyRateReport]
    error: Optional[str] = None


# Failures that belong to one grid point: the physics at that point is
# undefined or unconverged, or its dark-count fit is non-physical there.
# Anything else is a programming error and aborts the sweep.
_ROW_ERRORS = NUMERICAL_ERRORS + (ConstraintViolationError,)


def _evaluate_row(s: Scenario) -> SweepRow:
    try:
        return SweepRow(scenario=s, report=evaluate(s))
    except _ROW_ERRORS as exc:  # per-point failures must not abort the sweep
        return SweepRow(scenario=s, report=None, error=f"{type(exc).__name__}: {exc}")


def sweep(scenarios: Sequence[Scenario]) -> List[SweepRow]:
    """Evaluate every scenario, in input order, tolerating per-point failures."""
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("empty scenario list")
    return [_evaluate_row(s) for s in scenarios]


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


def _not_positive(alpha_d_db: float, eta0: float, p_dc: float) -> OptimumPoint:
    """The point reported when no searched brightness gives a positive rate."""
    nan = float("nan")
    return OptimumPoint(alpha_d_db, nan, eta0, p_dc, 0.0, nan, converged=False, positive=False)


def _rate_curve(s: Scenario) -> Callable[[float], float]:
    """Secret rate as a function of chi at the distance and detectors of s.

    One chi-free build gives Q(t) = sum W_N t^N / sum T_N t^N at
    t = tanh^2 chi (the (1-t)^4 of both sums cancels), from the graded
    state's own key-basis stacks; s.chi is not used.  It equals the
    single-cutoff pipeline at s.policy.n_max.
    """
    graded = graded_swap_state(s.eta0, s.alpha_d_db, s.resolved_p_dc, s.policy)
    coeffs = list(zip(*(c[::-1].tolist() for c in qber_polynomial(graded))))

    def rate(chi: float) -> float:
        t = math.tanh(chi) ** 2
        num = den = 0.0
        for w, c in coeffs:  # Horner, highest power first: np.polyval's operations
            num, den = num * t + w, den * t + c
        if den <= 0.0:
            raise NoCoincidenceError("no coincidences in either basis; QBER undefined")
        qber_t = max(num, 0.0) / den  # rounding can leave W(t) just below 0
        return secret_rate(sifted_rate(chi, s.eta0, s.alpha_d_db), min(qber_t, 0.5), s.kappa)[1]

    return rate


def _search_chi(
    rate: Callable[[float], float], grid_points: int, tol: float
) -> Tuple[float, float, bool]:
    """(chi_opt, r_opt, guard_flag) maximizing rate on [CHI_SEARCH_MIN, CHI_SEARCH_MAX].

    rates.grid_max on a log-spaced grid of grid_points, refined to tol; its
    guard scans 201 points of the bracket.  chi_opt is nan and r_opt 0 when
    no grid point has a positive rate.
    """
    grid = np.logspace(math.log10(CHI_SEARCH_MIN), math.log10(CHI_SEARCH_MAX), grid_points)
    chi_opt, r_opt, guard_flag = grid_max(rate, grid, tol, fine_points=201)
    if r_opt <= 0.0:
        return float("nan"), 0.0, False
    return chi_opt, r_opt, guard_flag


def _optimum_on_curve(base: Scenario, rate: Callable[[float], float]) -> OptimumPoint:
    """Search rate (the curve of base) over chi and evaluate the winner."""
    chi_opt, _, guard_flag = _search_chi(rate, CHI_GRID_POINTS, CHI_TOL)
    if math.isnan(chi_opt):
        return _not_positive(base.alpha_d_db, base.eta0, base.resolved_p_dc)
    report = evaluate(replace(base, chi=chi_opt))
    return OptimumPoint(
        alpha_d_db=base.alpha_d_db,
        chi_opt=chi_opt,
        eta0_opt=base.eta0,
        p_dc_at_opt=base.resolved_p_dc,
        r_sec_at_opt=report.r_sec,
        qber_at_opt=report.qber,
        converged=report.converged,
        guard_flag=guard_flag,
        report=report,
    )


def optimize_chi(
    alpha_d_db: float,
    eta0: float,
    p_dc: Optional[float] = None,
    constraint: Optional[DetectorConstraint] = None,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
) -> OptimumPoint:
    """Maximize the secret rate over chi at fixed distance and detectors.

    The search runs on the rate curve of one graded build (_rate_curve):
    a CHI_GRID_POINTS log-spaced grid, golden-section refinement to CHI_TOL
    and the unimodality guard of _search_chi.  The winner is then evaluated
    once, with escalation and visibility, for the reported point.
    """
    base = Scenario(
        alpha_d_db=alpha_d_db, chi=CHI_SEARCH_MIN, eta0=eta0,
        p_dc=p_dc, constraint=constraint, kappa=kappa, policy=policy,
    )
    return _optimum_on_curve(base, _rate_curve(base))


def optimize_joint(
    alpha_d_db: float,
    constraint: DetectorConstraint = DEFAULT_CONSTRAINT,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
) -> OptimumPoint:
    """Maximize the rate over (chi, eta0) with dark counts tied to eta0.

    rates.grid_max over eta0 from ETA0_SEED_POINTS seeds, whose guard falls
    back to the best seed; each eta0 runs a coarse chi search on its rate
    curve.  The returned point searches the winning eta0's curve at full
    resolution and evaluates the winner.  Each distinct eta0 builds its
    curve once.
    """
    curves = {}

    def curve(eta0: float) -> Tuple[Scenario, Callable[[float], float]]:
        if eta0 not in curves:
            base = Scenario(
                alpha_d_db=alpha_d_db, chi=CHI_SEARCH_MIN, eta0=eta0,
                constraint=constraint, kappa=kappa, policy=policy,
            )
            curves[eta0] = base, _rate_curve(base)
        return curves[eta0]

    def inner_rate(eta0: float) -> float:
        return _search_chi(curve(eta0)[1], INNER_CHI_GRID_POINTS, INNER_CHI_TOL)[1]

    seeds = np.linspace(*ETA0_SEARCH_RANGE, ETA0_SEED_POINTS)
    eta_opt, r_outer, guard_flag = grid_max(inner_rate, seeds, ETA0_TOL)
    if r_outer <= 0.0:
        return _not_positive(alpha_d_db, float("nan"), float("nan"))
    final = _optimum_on_curve(*curve(eta_opt))
    return replace(final, guard_flag=guard_flag or final.guard_flag)


def es_optimal_rate(
    alpha_d_db: float,
    eta0: float,
    p_dc: float,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
) -> Tuple[float, float]:
    """Best chi and its rate for the swapping scheme at one distance.

    Both come from the rate curve at the policy's n_max; no pipeline runs.
    """
    base = Scenario(
        alpha_d_db=alpha_d_db, chi=CHI_SEARCH_MIN, eta0=eta0, p_dc=p_dc, kappa=kappa, policy=policy
    )
    return _search_chi(_rate_curve(base), CHI_GRID_POINTS, CHI_TOL)[:2]


def _step_grid(start: float, stop: float, step: float) -> List[float]:
    """start, start + step, ... up to stop, included when it lands on the lattice.

    Nothing past stop is sampled; the 1e-9 step of slack absorbs the rounding
    of (stop - start) / step.
    """
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * i for i in range(count)]


class Comparison(NamedTuple):
    """Both schemes at one distance: the swap link at brightness chi_used and
    decoy BB84 at signal intensity mu_used, with their secret rates."""

    alpha_d_db: float
    chi_used: float
    r_es: float
    mu_used: float
    r_decoy: float


def _compare_schemes(
    alpha_d_db: float,
    eta0: float,
    p_dc: float,
    chi: Optional[float] = None,
    mu: Optional[float] = None,
    nu: float = NU_DEFAULT,
    kappa: float = KAPPA_DEFAULT,
    policy: TruncationPolicy = TruncationPolicy(),
) -> Comparison:
    """The swap link against decoy BB84 at one distance, each at a fixed or
    at its best source intensity.

    chi None searches the brightness (es_optimal_rate); a fixed chi is
    checked by Scenario and its rate read off the rate curve at
    policy.n_max.  mu None searches the signal intensity (optimal_mu); a
    fixed mu runs the decoy chain once.  No pipeline runs.
    """
    if chi is None:
        chi_used, r_es = es_optimal_rate(alpha_d_db, eta0, p_dc, kappa=kappa, policy=policy)
    else:
        s = Scenario(
            alpha_d_db=alpha_d_db, chi=chi, eta0=eta0, p_dc=p_dc, kappa=kappa, policy=policy
        )
        chi_used, r_es = chi, _rate_curve(s)(chi)
    if mu is None:
        mu_used, r_decoy = optimal_mu(eta0, alpha_d_db, p_dc, nu=nu, kappa=kappa)
    else:
        d = decoy_inputs(mu, eta0, alpha_d_db, p_dc, nu=nu, kappa=kappa)
        mu_used, r_decoy = mu, decoy_rate_report(d).r_sec
    return Comparison(alpha_d_db, chi_used, r_es, mu_used, r_decoy)


def _crossover_scan(
    eta0: float,
    p_dc: float,
    alphas: Sequence[float],
    tol: float,
    kappa: float,
    policy: TruncationPolicy,
    nu: float,
) -> Tuple[Optional[float], List[Comparison]]:
    """Crossover distance (see find_crossover) and the comparisons of the
    grid scan that brackets it; each grid distance runs once."""

    def rates(alpha: float) -> Comparison:
        return _compare_schemes(alpha, eta0, p_dc, nu=nu, kappa=kappa, policy=policy)

    def difference(row: Comparison) -> Optional[float]:
        if row.r_es <= 0.0 and row.r_decoy <= 0.0:
            return None
        return row.r_decoy - row.r_es

    def same_side(alpha: float, g_lo: float) -> Optional[bool]:
        g = difference(rates(alpha))
        return None if g is None or g == 0.0 else (g > 0.0) == (g_lo > 0.0)

    rows = [rates(float(a)) for a in alphas]
    diffs = [difference(row) for row in rows]
    for (a0, g0), (a1, g1) in zip(zip(alphas, diffs), zip(alphas[1:], diffs[1:])):
        if g0 is None or g1 is None:
            continue
        if g0 == 0.0:
            return float(a0), rows
        if g0 * g1 < 0.0:
            return bisect(lambda a: same_side(a, g0), float(a0), float(a1), tol), rows
    return None, rows


def find_crossover(
    eta0: float,
    p_dc: float,
    alpha_lo: float = 0.0,
    alpha_hi: float = 60.0,
    step: float = 2.5,
    tol: float = CROSSOVER_TOL_DB,
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
    whole positive-rate region (p_dc = 0 behaves this way).  The distances
    sampled are alpha_lo + k*step up to alpha_hi (_step_grid).
    """
    alphas = _step_grid(alpha_lo, alpha_hi, step)
    return _crossover_scan(eta0, p_dc, alphas, tol, kappa, policy, nu)[0]


def max_positive_alpha(
    rate_fn: Callable[[float], float],
    alpha_lo: float = 0.0,
    alpha_hi: float = 80.0,
    step: float = 2.5,
    tol: float = 0.1,
) -> Optional[float]:
    """Largest distance with positive rate, to tol dB; None if never positive.

    Scans alpha_lo + k*step up to alpha_hi (_step_grid) for the last positive
    sample, then bisects the positive-to-zero boundary.  Returns the last
    sampled distance, the largest alpha_lo + k*step <= alpha_hi, if the rate
    is still positive there.
    """
    alphas = _step_grid(alpha_lo, alpha_hi, step)
    rates = [rate_fn(float(a)) for a in alphas]
    positive = [i for i, r in enumerate(rates) if r > 0.0]
    if not positive:
        return None
    i_last = positive[-1]
    if i_last == len(alphas) - 1:
        return float(alphas[-1])
    lo, hi = float(alphas[i_last]), float(alphas[i_last + 1])
    return bisect(lambda a: rate_fn(a) > 0.0, lo, hi, tol)
