"""Linear-optics Bell-state measurement and the heralded swap state.

Modes b and c interfere on a balanced beamsplitter acting separately on the H
and V pairs; the four outputs (b'H, b'V, c'H, c'V) hit threshold detectors.
Exactly-two-click patterns with one H and one V detector are accepted:
(b'H, c'V) and (b'V, c'H) herald psi-, (b'H, b'V) and (c'H, c'V) herald psi+.
Accepted psi+ outcomes are rotated into the psi- frame by a V -> -V phase on
mode d, so the aggregate conditional state targets the singlet.  Each
beamsplitter with its two detectors is the rotation POVM of fock at pi/4
(fock.detector_pair_povms, a polynomial in 1-eta over the real rotation's
photon-number blocks, cached per cutoff and angle); the four heralds use
only two of its outcomes, and the phases of the pair amplitudes cancel on
their support, so the pair factors are real.  The mixers are balanced and
one detector model serves all four outputs, so exchanging a mixer's outputs
changes nothing: each corrected psi+ herald leaves the state of a psi- one,
and the aggregate is twice the psi- pair (see _heralded_state).

The two-source state factorizes over the pairs (aH,bH), (aV,bV), (cH,dH),
(cV,dV), and the BSM mixes H with H and V with V, so each herald's state on
(aH, aV, dH, dV) is a product of an H-pair and a V-pair tensor.  The swap
result holds those tensors; the (n_max+1)^4-square density matrix is never
formed.  Every detector of the link, at the BSM and at both analyzers,
is the same one behind the same quarter-span loss, and the X analyzer is
the BSM's optic, so the result carries that detector and its realigned
stacks at the two key-basis angles, built in one call (link_povms): the
BSM takes its two elements from the X stack, and metrics reads both.  A
result at one cutoff compresses exactly to every lower one (compressed):
the pair amplitudes are the untruncated c_n and every POVM is an exact
compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detectors import ThresholdDetector
from .fock import DEFAULT_POLICY, TruncationPolicy, compress, detector_pair_povms
from .sources import pair_amplitudes

# Analyzer angles of the key bases, Z then X; X is the BSM's beamsplitter.
KEY_ANGLES = (0.0, math.pi / 4.0)


@dataclass(frozen=True)
class SwapResult:
    """Aggregate heralded state on (aH, aV, dH, dV), in the psi- frame.

    Pair factors realigned as matrices (the layout of
    fock.detector_pair_povms) and stacked over p:
    rho[(ijkl),(IJKL)] = sum_p th[p,(i,I),(k,K)] * tv[p,(j,J),(l,L)]; the
    metrics contract them directly.  A swap holds one p per psi- herald,
    counted twice for its psi+ partner (_heralded_state).  herald_probability
    is tr(rho).  det is the link's detector and povms its stacks at
    KEY_ANGLES, one (2, 4, d^2, d^2) array (link_povms); states not made
    by a swap leave them None.
    """

    th: np.ndarray
    tv: np.ndarray
    n_max: int
    herald_probability: float
    det: Optional[ThresholdDetector] = None
    povms: Optional[np.ndarray] = None

    def compressed(self, n_max: int) -> "SwapResult":
        """This result at the lower cutoff n_max, cut out of its arrays (fock.compress)."""
        th, tv = compress(self.th, n_max), compress(self.tv, n_max)
        return SwapResult(th, tv, n_max, _trace(th, tv), self.det, compress(self.povms, n_max))


def _trace(th: np.ndarray, tv: np.ndarray) -> float:
    """tr(rho) = sum_p tr(th_p) tr(tv_p), the traces running over i = I."""
    d = math.isqrt(th.shape[-1])
    traces = [np.einsum("piikk->p", f.reshape(-1, d, d, d, d)) for f in (th, tv)]
    return float(np.real(traces[0] @ traces[1]))


def bsm_detector(eta0: float, alpha_d_db: float, p_dc: float) -> ThresholdDetector:
    """BSM-station detector with the source-to-midpoint quarter-span loss folded in."""
    return ThresholdDetector(eta0 * 10.0 ** (-(alpha_d_db / 4.0) / 10.0), p_dc)


def link_povms(n_max: int, det: ThresholdDetector) -> np.ndarray:
    """det's four realigned outcomes at each of KEY_ANGLES, stacked (fock.detector_pair_povms)."""
    return detector_pair_povms(n_max, KEY_ANGLES, det)


def _heralded_state(c: np.ndarray, det: ThresholdDetector, n_max: int) -> SwapResult:
    """Pair factors over all accepted heralds for pair amplitudes c.

    Tracing the BSM from the two-source state gives, per herald,
    th[(i,I),(k,K)] = c_i c_k conj(c_I c_K) * E_H[(I,K),(i,k)] and tv the
    same with E_V, where i=n_aH(=n_bH), j=n_aV, k=n_dH(=n_cH), l=n_dV.
    Every BSM element conserves its pair's photon number, so it is nonzero
    only where i+k = I+K, and there the phases of c_n = |c_n| e^(i n phi)
    cancel: c_i c_k conj(c_I c_K) = |c_i c_k c_I c_K|.  So the factors are
    built from the magnitudes |c_n| and, with the real stacks of
    link_povms, are real.
    Every accepted herald clicks exactly one output of each mixer: e0, only
    the b' output, or e1, only the c' output.  The mixers are balanced and
    all four BSM outputs share one detector, so exchanging a mixer's outputs
    leaves its POVM unchanged, and that exchange is the parity (-1)^n on its
    second input: e1 = e0 (-1)^(k+K).  The psi+ frame phase is the same
    parity on dV, so each corrected psi+ herald, (b'H, b'V) or (c'H, c'V),
    leaves the state of one psi- herald, (b'H, c'V) or (b'V, c'H): the
    result is twice the psi- pair, th = (e0, e1) and tv = 2 (e1, e0).
    """
    s = np.outer(np.abs(c), np.abs(c)).reshape(-1)  # s[(i,I)] = |c_i c_I|
    povms = link_povms(n_max, det)
    th = np.outer(s, s) * povms[1][:2]
    tv = 2.0 * th[::-1]
    return SwapResult(th, tv, n_max, _trace(th, tv), det, povms)


def swap_conditional_state(
    chi: float,
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SwapResult:
    """Aggregate heralded state over all accepted heralds, in the psi- frame.

    Returns the per-herald pair factors, built from the source pair amplitudes
    and the exact mixer+detector POVMs.
    """
    return _heralded_state(
        pair_amplitudes(chi, policy.n_max), bsm_detector(eta0, alpha_d_db, p_dc), policy.n_max
    )


def graded_swap_state(
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SwapResult:
    """The swap state with the brightness factored out: unit pair amplitudes.

    Each BSM POVM conserves its pair's photon number, so on its support the
    pair amplitudes at brightness chi give c_i c_k conj(c_I c_K) =
    (1-t)^2 t^(i+k) with t = tanh^2 chi: the state at chi is this one with
    its N = i+j+k+l photon sector scaled by (1-t)^4 t^N.
    """
    ones = np.ones(policy.n_max + 1)
    return _heralded_state(ones, bsm_detector(eta0, alpha_d_db, p_dc), policy.n_max)
