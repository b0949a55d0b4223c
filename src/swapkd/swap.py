"""Linear-optics Bell-state measurement and the heralded swap state.

Modes b and c interfere on a balanced beamsplitter acting separately on the H
and V pairs; the four outputs (b'H, b'V, c'H, c'V) hit threshold detectors.
Exactly-two-click patterns with one H and one V detector are accepted:
(b'H, c'V) and (b'V, c'H) herald psi-, (b'H, b'V) and (c'H, c'V) herald psi+.
Accepted psi+ outcomes are rotated into the psi- frame by a V -> -V phase on
mode d, so the aggregate conditional state targets the singlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .detectors import ThresholdDetector, pattern_weight_table
from .fock import (
    DEFAULT_POLICY,
    ConditionalState,
    ModeRegister,
    TruncationPolicy,
    apply_two_mode_mixer,
    condition_on_diagonal_povm,
    pair_mixer_unitary,
)
from .sources import pair_amplitudes, two_source_state

PSI_MINUS = "psi_minus"
PSI_PLUS = "psi_plus"

# Detector order used for click tuples everywhere in this module.
BSM_DETECTOR_ORDER = ("b'H", "b'V", "c'H", "c'V")

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


class SwapResult:
    """Conditional state on (aH, aV, dH, dV) for one herald or the aggregate.

    Holds either a dense ConditionalState or, on the factored path, one pair
    of factors (th_p, tv_p) per accepted herald p, with
    rho[(ijkl),(IJKL)] = sum_p th_p[i,k,I,K] * tv_p[j,l,J,L].
    The metrics contract the factors directly; the dense state is built from
    them only when .cond is first read.
    """

    def __init__(
        self,
        cond: Optional[ConditionalState],
        pattern: Optional[HeraldPattern],
        herald_probability: float,
        factors: Sequence[Tuple[np.ndarray, np.ndarray]] = (),
        n_max: Optional[int] = None,
    ):
        self._cond = cond
        self.pattern = pattern
        self.herald_probability = herald_probability
        self.factors = tuple(factors)
        self.n_max = cond.n_max if cond is not None else n_max

    @property
    def cond(self) -> ConditionalState:
        if self._cond is None:
            self._cond = _dense_from_factors(self.factors, self.n_max, self.herald_probability)
        return self._cond


def bsm_detector(eta0: float, alpha_d_db: float, p_dc: float) -> ThresholdDetector:
    """BSM-station detector with the source-to-midpoint quarter-span loss folded in."""
    return ThresholdDetector(eta0 * 10.0 ** (-(alpha_d_db / 4.0) / 10.0), p_dc)


def perform_bsm(
    state: ModeRegister,
    det_bsm: ThresholdDetector,
    pattern: HeraldPattern,
) -> SwapResult:
    """Run the BSM on an arbitrary eight-mode register (dense-engine path).

    Applies balanced mixers to (bH, cH) and (bV, cV), then conditions on the
    four-detector click pattern. No psi+ frame correction is applied here.
    """
    s = apply_two_mode_mixer(state, "bH", "cH", math.pi / 4.0)
    s = apply_two_mode_mixer(s, "bV", "cV", math.pi / 4.0)
    # Measured in order (bH, bV, cH, cV) = detectors (b'H, b'V, c'H, c'V).
    w = pattern_weight_table([det_bsm] * 4, pattern.clicks, s.n_max)
    cond = condition_on_diagonal_povm(s, ["bH", "bV", "cH", "cV"], w)
    return SwapResult(cond, pattern, cond.herald_probability)


def apply_psi_plus_correction(cond: ConditionalState) -> ConditionalState:
    """Conjugate by the V -> -V phase plate on mode d (diagonal, exact)."""
    d = cond.n_max + 1
    parity = np.ones(d)
    parity[1::2] = -1.0
    # dV is the last of (aH, aV, dH, dV); phases factorize over the flattened index.
    phases = np.kron(np.ones(d * d * d), parity)
    rho = cond.rho * np.outer(phases, phases)
    return ConditionalState(cond.labels, cond.n_max, rho, cond.herald_probability)


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
    correction: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pair factors (th, tv) of one herald's conditional state on (aH, aV, dH, dV).

    The two-source state factorizes over the pairs (aH,bH), (aV,bV), (cH,dH),
    (cV,dV), so tracing the BSM POVM gives
    rho[(ijkl),(IJKL)] = th[i,k,I,K] * tv[j,l,J,L] with
    th[i,k,I,K] = c_i c_k conj(c_I c_K) * E_H[(I,K),(i,k)] and tv the same
    with E_V, where i=n_aH(=n_bH), j=n_aV, k=n_dH(=n_cH), l=n_dV. With
    correction, psi+ heralds carry the V -> -V phase on mode d in tv as
    (-1)^(l+L).
    """
    d = n_max + 1
    c = pair_amplitudes(chi, n_max)
    eh = _balanced_pair_povm(n_max, det_bsm.eta, det_bsm.p_dc, pattern.clicks[0], pattern.clicks[2])
    ev = _balanced_pair_povm(n_max, det_bsm.eta, det_bsm.p_dc, pattern.clicks[1], pattern.clicks[3])

    s = np.outer(c, c)  # s[i, k] = c_i c_k
    weight = s[:, :, None, None] * s.conj()[None, None, :, :]
    th = weight * eh.reshape(d, d, d, d).transpose(2, 3, 0, 1)  # -> [i, k, I, K]
    tv = weight * ev.reshape(d, d, d, d).transpose(2, 3, 0, 1)
    if correction and pattern.target == PSI_PLUS:
        parity = (-1.0) ** np.arange(d)
        tv = tv * parity[None, :, None, None] * parity[None, None, None, :]
    return th, tv


def _dense_from_factors(
    factors: Sequence[Tuple[np.ndarray, np.ndarray]], n_max: int, herald: float
) -> ConditionalState:
    """Dense conditional state sum_p th_p (x) tv_p; O((n_max+1)^8) time and memory."""
    d = n_max + 1
    total = None
    for th, tv in factors:
        rho8 = np.einsum("ikIK,jlJL->ijklIJKL", th, tv, optimize=True)
        rho = rho8.reshape(d ** 4, d ** 4)
        rho = 0.5 * (rho + rho.conj().T)
        total = rho if total is None else total + rho
    return ConditionalState(SURVIVING_MODES, n_max, total, herald)


def swap_conditional_state(
    chi: float,
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    method: str = "factored",
    correction: bool = True,
) -> SwapResult:
    """Aggregate conditional state over all accepted heralds, in the psi- frame.

    method="factored" returns the per-herald pair factors of the state, built
    from the source pair structure with exactly composed mixer+detector
    POVMs; the herald probability is sum_p tr(th_p) tr(tv_p) and no
    (n_max+1)^8 operator is formed unless .cond is read. "dense" runs the
    literal pipeline (two_source_state -> mixers -> conditioning). Both agree
    wherever mixer overflow is negligible; "factored" carries none by
    construction and is much faster.
    """
    det = bsm_detector(eta0, alpha_d_db, p_dc)
    if method not in ("factored", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "factored":
        factors = [
            _pattern_factors(chi, det, pattern, policy.n_max, correction)
            for pattern in accepted_patterns()
        ]
        herald = sum(
            float((np.einsum("ikik->", th) * np.einsum("jljl->", tv)).real) for th, tv in factors
        )
        return SwapResult(None, None, herald, factors=factors, n_max=policy.n_max)
    state = two_source_state(chi, policy)
    total = None
    herald_sum = 0.0
    for pattern in accepted_patterns():
        cond = perform_bsm(state, det, pattern).cond
        if correction and pattern.target == PSI_PLUS:
            cond = apply_psi_plus_correction(cond)
        herald_sum += cond.herald_probability
        total = cond.rho if total is None else total + cond.rho
    agg = ConditionalState(SURVIVING_MODES, policy.n_max, total, herald_sum)
    return SwapResult(agg, None, herald_sum)
