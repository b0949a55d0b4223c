"""Key-rate formulas: the swapping-based scheme and the decoy-state baseline.

The swapping scheme's sifted rate uses the leading-order analytic expression
(1/4) chi^4 eta0^4 10^(-alpha*d/10); the simulated coincidence probability is
carried alongside it as a diagnostic, never substituted into the key-rate
formula.  The decoy baseline implements the vacuum + weak-decoy bound chain
with every intermediate quantity exposed for auditing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "KAPPA_DEFAULT",
    "NU_DEFAULT",
    "E0_BACKGROUND",
    "golden_max",
    "grid_max",
    "bisect",
    "h2",
    "sifted_rate",
    "secret_rate",
    "qber_threshold",
    "DecoyInputs",
    "decoy_inputs",
    "DecoyRateReport",
    "decoy_rate_report",
    "optimal_mu",
    "KeyRateReport",
]

KAPPA_DEFAULT = 1.22
NU_DEFAULT = 0.1
E0_BACKGROUND = 0.5
# Dark-count opportunities per pulse at the decoy receiver: one threshold
# detector per basis outcome.
DETECTORS_AT_BOB = 2
# Golden-section tolerance of the signal-intensity search.
MU_REFINE_TOL = 1e-5
# Bisection width of the QBER threshold.
QBER_THRESHOLD_TOL = 1e-10


def golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> Tuple[float, float]:
    """Golden-section maximization of a unimodal scalar function on [lo, hi].

    Returns the midpoint of the final bracket and f evaluated there.
    """
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - g * (hi - lo)
    x2 = lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
    x = 0.5 * (lo + hi)
    return x, f(x)


def grid_max(
    f: Callable[[float], float],
    grid: Sequence[float],
    tol: float,
    values: Optional[Sequence[float]] = None,
    fine_points: int = 0,
) -> Tuple[float, float, bool]:
    """(x, f(x), guard_flag) maximizing f on a coarse grid refined by golden_max.

    f is evaluated on the grid unless its values there are given.  The first
    best grid point is returned unrefined if its value is <= 0, else refined
    to tol between its grid neighbours.  Refinement landing below the grid's
    best raises the guard flag, so a non-unimodal curve cannot silently win:
    the best of fine_points evenly spaced bracket points is taken if it
    reaches the grid's best, else the grid point.
    """
    grid = [float(x) for x in grid]
    values = [f(x) for x in grid] if values is None else values
    i = int(np.argmax(values))
    best = float(values[i])
    if best <= 0.0:
        return grid[i], best, False
    lo, hi = grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]
    x, fx = golden_max(f, lo, hi, tol)
    if fx >= best:
        return x, fx, False
    if fine_points > 0:
        fine = [float(c) for c in np.linspace(lo, hi, fine_points)]
        fine_vals = [f(c) for c in fine]
        j = int(np.argmax(fine_vals))
        if fine_vals[j] >= best:
            return fine[j], fine_vals[j], True
    return grid[i], best, True


def bisect(side: Callable[[float], Optional[bool]], lo: float, hi: float, tol: float) -> float:
    """Midpoint of [lo, hi] bisected to width tol around a boundary.

    side(x) is True left of the boundary and False right of it; None stops
    the bisection at the current bracket.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        left = side(mid)
        if left is None:
            break
        if left:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def h2(x: float) -> float:
    """Binary Shannon entropy in bits, with h2(0) = h2(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"h2 argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _check_kappa(kappa: float) -> None:
    """Reject an error-correction inefficiency that is not a finite number >= 1."""
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise InvalidInputError(f"kappa {kappa!r} must be finite and >= 1")


def sifted_rate(chi: float, eta0: float, alpha_d_db: float) -> float:
    """Leading-order sifted key rate per pump pulse: (1/4) chi^4 eta0^4 10^(-ad/10)."""
    if chi < 0.0 or not 0.0 <= eta0 <= 1.0 or alpha_d_db < 0.0:
        raise ValueError("chi >= 0, eta0 in [0, 1], alpha_d_db >= 0 required")
    return 0.25 * chi**4 * eta0**4 * 10.0 ** (-alpha_d_db / 10.0)


def secret_rate(r_sift: float, qber: float, kappa: float = KAPPA_DEFAULT) -> Tuple[float, float]:
    """Secret key rate (raw, clamped): r_sift * [1 - kappa*h2(Q) - h2(Q)]."""
    if r_sift < 0.0:
        raise ValueError(f"r_sift {r_sift!r} negative")
    _check_kappa(kappa)
    if not 0.0 <= qber <= 0.5:
        raise ValueError(f"qber {qber!r} outside [0, 0.5]")
    raw = r_sift * (1.0 - (1.0 + kappa) * h2(qber))
    return raw, max(0.0, raw)


def qber_threshold(kappa: float = KAPPA_DEFAULT) -> float:
    """Largest tolerable QBER: the root of 1 - (1 + kappa) h2(Q) on (0, 1/2).

    The left side is strictly decreasing in Q on this interval, so plain
    bisection suffices.
    """
    _check_kappa(kappa)
    return bisect(lambda q: 1.0 - (1.0 + kappa) * h2(q) > 0.0, 0.0, 0.5, QBER_THRESHOLD_TOL)


@dataclass(frozen=True)
class DecoyInputs:
    """Parameters of the vacuum + weak-decoy BB84 bound chain.

    eta_bob is the end-to-end single-photon transmission from Alice's source
    to a click at Bob (detector efficiency times channel transmission); y0 is
    the background yield per pulse, whose errors have rate E0_BACKGROUND.
    """

    mu: float
    eta_bob: float
    y0: float
    nu: float = NU_DEFAULT
    kappa: float = KAPPA_DEFAULT

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.nu < self.mu):
            raise InvalidInputError(
                f"need finite mu and 0 < nu < mu, got nu={self.nu!r}, mu={self.mu!r}"
            )
        if not 0.0 <= self.eta_bob <= 1.0:
            raise InvalidInputError(f"eta_bob {self.eta_bob!r} outside [0, 1]")
        if not 0.0 <= self.y0 <= 1.0:
            raise InvalidInputError(f"y0 {self.y0!r} outside [0, 1]")
        _check_kappa(self.kappa)


def decoy_inputs(
    mu: float,
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    nu: float = NU_DEFAULT,
    kappa: float = KAPPA_DEFAULT,
) -> DecoyInputs:
    """Build DecoyInputs for a sender-to-receiver link of alpha*d dB.

    The background yield counts one dark-count opportunity per detector at
    Bob, DETECTORS_AT_BOB of them.
    """
    eta_bob = eta0 * 10.0 ** (-alpha_d_db / 10.0)
    y0 = min(1.0, DETECTORS_AT_BOB * p_dc)
    return DecoyInputs(mu=mu, eta_bob=eta_bob, y0=y0, nu=nu, kappa=kappa)


@dataclass(frozen=True)
class DecoyRateReport:
    """Every intermediate of the vacuum + weak-decoy chain, plus the rate."""

    inputs: DecoyInputs
    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y1_lower: float
    q1_lower: float
    e1_upper: float
    r_raw: float
    r_sec: float
    y1_clamped: bool = False
    e1_clamped: bool = False


class _DecoyBounds(NamedTuple):
    """DecoyRateReport's numbers, each a float or an array over mu."""

    q_mu: np.ndarray
    e_mu: np.ndarray
    q_nu: np.ndarray
    e_nu: np.ndarray
    y1_lower: np.ndarray
    q1_lower: np.ndarray
    e1_upper: np.ndarray
    r_raw: np.ndarray
    r_sec: np.ndarray
    y1_clamped: np.ndarray
    e1_clamped: np.ndarray


def _decoy_bounds(d: DecoyInputs, mu) -> _DecoyBounds:
    """The vacuum + weak-decoy bound chain of d, elementwise over mu.

    mu is a float or an array of signal intensities that replaces d.mu;
    every returned field has its shape.  Gains: Q_k = Y0 + S_k for
    intensity k, with S_k = 1 - exp(-eta*k) computed as -expm1(-eta*k) so
    that a small eta*k keeps its precision; background errors dominate, so
    E_k Q_k = e0 Y0.  Single-photon bounds:
      Y1 >= (mu/(mu nu - nu^2)) [Q_nu e^nu - Q_mu e^mu (nu/mu)^2
                                 - ((mu^2 - nu^2)/mu^2) Y0]
      e1 <= (E_nu Q_nu e^nu - e0 Y0) / (Y1 nu) = e0 Y0 (e^nu - 1) / (Y1 nu)
    and Q1 = Y1 mu e^(-mu).  The Y1 bracket is summed as
      nu [Y0 (expm1(nu)/nu - (nu/mu) expm1(mu)/mu) + S_nu e^nu/nu - (nu/mu) S_mu e^mu/mu],
    so no Y0 cancels against Y0 e^k: a weak decoy keeps its digits, and
    the only rounding left grows as mu/(mu - nu), as in any difference
    quotient.  Y1 < 0 and e1 outside [0, 1/2] are clamped and flagged per
    element rather than propagated.
    """

    def entropy(x):  # h2 elementwise on [0, 1/2]; h2 itself stays on math for the swap rate
        return np.where(x > 0.0, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x), 0.0)

    eta, nu, y0, e0 = d.eta_bob, d.nu, d.y0, E0_BACKGROUND
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_mu, s_nu = -np.expm1(-eta * mu), -np.expm1(-eta * nu)  # gains above the background
        q_mu, q_nu = y0 + s_mu, y0 + s_nu
        e_mu = np.where(q_mu > 0.0, e0 * y0 / q_mu, 0.0)
        e_nu = np.where(q_nu > 0.0, e0 * y0 / q_nu, 0.0)

        r, x_nu = nu / mu, np.expm1(nu) / nu
        y1 = mu / (mu - nu) * (
            y0 * (x_nu - r * np.expm1(mu) / mu)
            + s_nu / nu * np.exp(nu)
            - r * s_mu / mu * np.exp(mu)
        )
        y1_clamped = y1 < 0.0
        y1 = np.maximum(0.0, y1)
        q1 = y1 * mu * np.exp(-mu)

        e1 = np.where(y1 > 0.0, e0 * y0 * x_nu / y1, 0.5)
        e1_clamped = ~((0.0 <= e1) & (e1 <= 0.5))
        e1 = np.minimum(0.5, np.maximum(0.0, e1))

        r_raw = 0.5 * (-q_mu * d.kappa * entropy(np.minimum(0.5, e_mu)) + q1 * (1.0 - entropy(e1)))
    return _DecoyBounds(
        q_mu, e_mu, q_nu, e_nu, y1, q1, e1, r_raw, np.maximum(0.0, r_raw), y1_clamped, e1_clamped
    )


def decoy_rate_report(d: DecoyInputs) -> DecoyRateReport:
    """Evaluate the vacuum + weak-decoy secret-rate bound with diagnostics.

    The chain and its clamps are those of _decoy_bounds at d.mu.
    """
    bounds = _decoy_bounds(d, d.mu)._asdict()
    return DecoyRateReport(inputs=d, **{name: value.item() for name, value in bounds.items()})


def _mu_grid(nu: float) -> np.ndarray:
    """optimal_mu's coarse grid: 0.05 + 0.005 i up to 1.0, above nu."""
    n_steps = int(round((1.0 - 0.05) / 0.005))
    grid = 0.05 + 0.005 * np.arange(n_steps + 1)
    usable = grid[grid > nu + 1e-12]
    if usable.size == 0:
        raise InvalidInputError(f"nu {nu!r} leaves no signal intensity in (nu, 1.0] to search")
    return usable


def optimal_mu(
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    nu: float = NU_DEFAULT,
    kappa: float = KAPPA_DEFAULT,
) -> Tuple[float, float]:
    """Best signal intensity on mu in [0.05, 1.0] and the rate it achieves.

    grid_max on a grid in steps of 0.005, evaluated in one _decoy_bounds
    call, refined to MU_REFINE_TOL.  Grid values at or below nu are skipped
    (the bound chain needs nu < mu); a nu that leaves none raises InvalidInputError.
    """
    usable = _mu_grid(nu)
    # Validated at the top grid intensity; _decoy_bounds replaces its mu.
    d = decoy_inputs(float(usable[-1]), eta0, alpha_d_db, p_dc, nu=nu, kappa=kappa)

    def rate(mu: float) -> float:
        return float(_decoy_bounds(d, mu).r_sec)

    return grid_max(rate, usable, MU_REFINE_TOL, values=_decoy_bounds(d, usable).r_sec)[:2]


@dataclass(frozen=True)
class KeyRateReport:
    """One fully evaluated operating point of the swapping scheme."""

    chi: float
    eta0: float
    alpha_d_db: float
    p_dc: float
    kappa: float
    visibility: float
    qber: float
    qber_z: float
    qber_x: float
    qber_from_v: float
    r_sift: float
    r_sec_raw: float
    r_sec: float
    herald_probability: float
    coincidence_probability: float
    n_max_used: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)
