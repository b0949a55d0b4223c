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
from typing import Callable, Tuple

__all__ = [
    "KAPPA_DEFAULT",
    "NU_DEFAULT",
    "E0_BACKGROUND",
    "golden_max",
    "h2",
    "sifted_rate",
    "secret_rate",
    "qber_threshold",
    "DecoyInputs",
    "decoy_inputs",
    "DecoyRateReport",
    "decoy_rate_report",
    "decoy_secret_rate",
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


def h2(x: float) -> float:
    """Binary Shannon entropy in bits, with h2(0) = h2(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"h2 argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def sifted_rate(chi: float, eta0: float, alpha_d_db: float) -> float:
    """Leading-order sifted key rate per pump pulse: (1/4) chi^4 eta0^4 10^(-ad/10)."""
    if chi < 0.0 or not 0.0 <= eta0 <= 1.0 or alpha_d_db < 0.0:
        raise ValueError("chi >= 0, eta0 in [0, 1], alpha_d_db >= 0 required")
    return 0.25 * chi**4 * eta0**4 * 10.0 ** (-alpha_d_db / 10.0)


def secret_rate(r_sift: float, qber: float, kappa: float = KAPPA_DEFAULT) -> Tuple[float, float]:
    """Secret key rate (raw, clamped): r_sift * [1 - kappa*h2(Q) - h2(Q)]."""
    if r_sift < 0.0:
        raise ValueError(f"r_sift {r_sift!r} negative")
    if kappa < 1.0:
        raise ValueError(f"kappa {kappa!r} below 1")
    if not 0.0 <= qber <= 0.5:
        raise ValueError(f"qber {qber!r} outside [0, 0.5]")
    raw = r_sift * (1.0 - (1.0 + kappa) * h2(qber))
    return raw, max(0.0, raw)


def qber_threshold(kappa: float = KAPPA_DEFAULT, tol: float = 1e-10) -> float:
    """Largest tolerable QBER: the root of 1 - (1 + kappa) h2(Q) on (0, 1/2).

    The left side is strictly decreasing in Q on this interval, so plain
    bisection suffices.
    """
    if kappa < 1.0:
        raise ValueError(f"kappa {kappa!r} below 1")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 1.0 - (1.0 + kappa) * h2(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DecoyInputs:
    """Parameters of the vacuum + weak-decoy BB84 bound chain.

    eta_bob is the end-to-end single-photon transmission from Alice's source
    to a click at Bob (detector efficiency times channel transmission); y0 is
    the background yield per pulse, e0 the background error rate.
    """

    mu: float
    eta_bob: float
    y0: float
    nu: float = NU_DEFAULT
    e0: float = E0_BACKGROUND
    kappa: float = KAPPA_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.nu < self.mu:
            raise ValueError(f"need 0 < nu < mu, got nu={self.nu!r}, mu={self.mu!r}")
        if not 0.0 <= self.eta_bob <= 1.0:
            raise ValueError(f"eta_bob {self.eta_bob!r} outside [0, 1]")
        if not 0.0 <= self.y0 <= 1.0:
            raise ValueError(f"y0 {self.y0!r} outside [0, 1]")
        if not 0.0 <= self.e0 <= 0.5:
            raise ValueError(f"e0 {self.e0!r} outside [0, 0.5]")
        if self.kappa < 1.0:
            raise ValueError(f"kappa {self.kappa!r} below 1")


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


def decoy_rate_report(d: DecoyInputs) -> DecoyRateReport:
    """Evaluate the vacuum + weak-decoy secret-rate bound with diagnostics.

    Gains: Q_k = Y0 + 1 - exp(-eta*k) for intensity k; background errors
    dominate, so E_k Q_k = e0 Y0.  Single-photon bounds:
      Y1 >= (mu/(mu nu - nu^2)) [Q_nu e^nu - Q_mu e^mu (nu/mu)^2
                                 - ((mu^2 - nu^2)/mu^2) Y0]
      e1 <= (E_nu Q_nu e^nu - e0 Y0) / (Y1 nu)
    and Q1 = Y1 mu e^(-mu).  Nonphysical intermediates are clamped and
    flagged rather than propagated.
    """
    eta, mu, nu, y0, e0 = d.eta_bob, d.mu, d.nu, d.y0, d.e0
    q_mu = y0 + 1.0 - math.exp(-eta * mu)
    q_nu = y0 + 1.0 - math.exp(-eta * nu)
    e_mu = e0 * y0 / q_mu if q_mu > 0.0 else 0.0
    e_nu = e0 * y0 / q_nu if q_nu > 0.0 else 0.0

    y1 = (mu / (mu * nu - nu**2)) * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * (nu**2 / mu**2)
        - ((mu**2 - nu**2) / mu**2) * y0
    )
    y1_clamped = y1 < 0.0
    y1 = max(0.0, y1)
    q1 = y1 * mu * math.exp(-mu)

    if y1 > 0.0:
        e1 = (e_nu * q_nu * math.exp(nu) - e0 * y0) / (y1 * nu)
    else:
        e1 = 0.5
    e1_clamped = not 0.0 <= e1 <= 0.5
    e1 = min(0.5, max(0.0, e1))

    e_mu_clipped = min(0.5, e_mu)
    r_raw = 0.5 * (-q_mu * d.kappa * h2(e_mu_clipped) + q1 * (1.0 - h2(e1)))
    return DecoyRateReport(
        inputs=d,
        q_mu=q_mu,
        e_mu=e_mu,
        q_nu=q_nu,
        e_nu=e_nu,
        y1_lower=y1,
        q1_lower=q1,
        e1_upper=e1,
        r_raw=r_raw,
        r_sec=max(0.0, r_raw),
        y1_clamped=y1_clamped,
        e1_clamped=e1_clamped,
    )


def decoy_secret_rate(d: DecoyInputs) -> float:
    return decoy_rate_report(d).r_sec


def optimal_mu(
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    nu: float = NU_DEFAULT,
    kappa: float = KAPPA_DEFAULT,
) -> Tuple[float, float]:
    """Best signal intensity on mu in [0.05, 1.0] and the rate it achieves.

    Coarse grid in steps of 0.005, then golden-section refinement around the
    best point.  Grid values at or below nu are skipped (the bound chain
    needs nu < mu).
    """

    def rate(mu: float) -> float:
        return decoy_secret_rate(decoy_inputs(mu, eta0, alpha_d_db, p_dc, nu=nu, kappa=kappa))

    best_mu, best_r = float("nan"), -1.0
    n_steps = int(round((1.0 - 0.05) / 0.005))
    grid = [0.05 + 0.005 * i for i in range(n_steps + 1)]
    usable = [m for m in grid if m > nu + 1e-12]
    for m in usable:
        r = rate(m)
        if r > best_r:
            best_mu, best_r = m, r
    if best_r <= 0.0:
        return best_mu, 0.0

    lo = max(usable[0], best_mu - 0.005)
    hi = min(usable[-1], best_mu + 0.005)
    mu_opt, r_opt = golden_max(rate, lo, hi, MU_REFINE_TOL)
    if r_opt < best_r:
        mu_opt, r_opt = best_mu, best_r
    return mu_opt, r_opt


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
