"""Linear-optics Bell-state measurement and the heralded swap state.

Modes b and c interfere on a balanced beamsplitter acting separately on the H
and V pairs; the four outputs (b'H, b'V, c'H, c'V) hit threshold detectors.
Exactly-two-click patterns with one H and one V detector are accepted:
(b'H, c'V) and (b'V, c'H) herald psi-, (b'H, b'V) and (c'H, c'V) herald psi+.
Accepted psi+ outcomes are rotated into the psi- frame by a V -> -V phase on
mode d, so the aggregate conditional state targets the singlet.

The two-source state factorizes over the pairs (aH,bH), (aV,bV), (cH,dH),
(cV,dV), and the BSM mixes H with H and V with V, so each herald's state on
(aH, aV, dH, dV) is a product of an H-pair and a V-pair tensor.  The swap
result holds those tensors; the (n_max+1)^4-square density matrix is never
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .detectors import ThresholdDetector
from .fock import DEFAULT_POLICY, TruncationPolicy, pair_mixer_unitary
from .sources import pair_amplitudes

PSI_MINUS = "psi_minus"
PSI_PLUS = "psi_plus"

SURVIVING_MODES = ("aH", "aV", "dH", "dV")


@dataclass(frozen=True)
class HeraldPattern:
    """Click/no-click tuple over (b'H, b'V, c'H, c'V) and the Bell state it heralds."""

    clicks: Tuple[bool, bool, bool, bool]
    target: str

    def __post_init__(self):
        if len(self.clicks) != 4:
            raise ValueError("clicks must have four entries")
        if self.target not in (PSI_MINUS, PSI_PLUS):
            raise ValueError(f"unknown target {self.target!r}")


def accepted_patterns() -> Tuple[HeraldPattern, ...]:
    """The four accepted two-click heralds."""
    return (
        HeraldPattern((True, False, False, True), PSI_MINUS),
        HeraldPattern((False, True, True, False), PSI_MINUS),
        HeraldPattern((True, True, False, False), PSI_PLUS),
        HeraldPattern((False, False, True, True), PSI_PLUS),
    )


@dataclass(frozen=True)
class SwapResult:
    """Aggregate heralded state on (aH, aV, dH, dV), in the psi- frame.

    One pair of factors (th_p, tv_p) per accepted herald p, with
    rho[(ijkl),(IJKL)] = sum_p th_p[i,k,I,K] * tv_p[j,l,J,L]; the metrics
    contract them directly.  herald_probability is tr(rho).
    """

    factors: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    n_max: int
    herald_probability: float


def bsm_detector(eta0: float, alpha_d_db: float, p_dc: float) -> ThresholdDetector:
    """BSM-station detector with the source-to-midpoint quarter-span loss folded in."""
    return ThresholdDetector(eta0 * 10.0 ** (-(alpha_d_db / 4.0) / 10.0), p_dc)


@lru_cache(maxsize=512)
def _balanced_pair_povm(
    n_max: int,
    eta: float,
    p_dc: float,
    click_out1: bool,
    click_out2: bool,
) -> np.ndarray:
    """POVM element on an input mode pair: balanced mixer, then one threshold
    detector per output with the demanded click outcomes.

    Composed in the Heisenberg picture on an occupancy embedding with per-mode
    cutoff 2*n_max, where every block reachable from inputs <= n_max is
    complete, then restricted back; exact for any state within truncation.
    """
    d = n_max + 1
    dbig = 2 * n_max + 1
    u = pair_mixer_unitary(dbig, math.pi / 4.0)
    det = ThresholdDetector(eta, p_dc)
    w = np.kron(det.weight_vector(click_out1, dbig - 1), det.weight_vector(click_out2, dbig - 1))
    e_big = u.conj().T @ (w[:, None] * u)
    idx = np.array([n1 * dbig + n2 for n1 in range(d) for n2 in range(d)])
    e = e_big[np.ix_(idx, idx)]
    return 0.5 * (e + e.conj().T)


def _pattern_factors(
    chi: float,
    det_bsm: ThresholdDetector,
    pattern: HeraldPattern,
    n_max: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pair factors (th, tv) of one herald's conditional state on (aH, aV, dH, dV).

    The two-source state factorizes over the pairs (aH,bH), (aV,bV), (cH,dH),
    (cV,dV), so tracing the BSM POVM gives
    rho[(ijkl),(IJKL)] = th[i,k,I,K] * tv[j,l,J,L] with
    th[i,k,I,K] = c_i c_k conj(c_I c_K) * E_H[(I,K),(i,k)] and tv the same
    with E_V, where i=n_aH(=n_bH), j=n_aV, k=n_dH(=n_cH), l=n_dV. psi+
    heralds carry the V -> -V phase on mode d in tv as (-1)^(l+L).
    """
    d = n_max + 1
    c = pair_amplitudes(chi, n_max)
    eh = _balanced_pair_povm(n_max, det_bsm.eta, det_bsm.p_dc, pattern.clicks[0], pattern.clicks[2])
    ev = _balanced_pair_povm(n_max, det_bsm.eta, det_bsm.p_dc, pattern.clicks[1], pattern.clicks[3])

    s = np.outer(c, c)  # s[i, k] = c_i c_k
    weight = s[:, :, None, None] * s.conj()[None, None, :, :]
    th = weight * eh.reshape(d, d, d, d).transpose(2, 3, 0, 1)  # -> [i, k, I, K]
    tv = weight * ev.reshape(d, d, d, d).transpose(2, 3, 0, 1)
    if pattern.target == PSI_PLUS:
        parity = (-1.0) ** np.arange(d)
        tv = tv * parity[None, :, None, None] * parity[None, None, None, :]
    return th, tv


def swap_conditional_state(
    chi: float,
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SwapResult:
    """Aggregate heralded state over all accepted heralds, in the psi- frame.

    Returns the per-herald pair factors, built from the source pair amplitudes
    with exactly composed mixer+detector POVMs, so no mixer overflow enters;
    the herald probability is sum_p tr(th_p) tr(tv_p).
    """
    det = bsm_detector(eta0, alpha_d_db, p_dc)
    factors = tuple(
        _pattern_factors(chi, det, pattern, policy.n_max) for pattern in accepted_patterns()
    )
    herald = sum(
        float((np.einsum("ikik->", th) * np.einsum("jljl->", tv)).real) for th, tv in factors
    )
    return SwapResult(factors, policy.n_max, herald)
