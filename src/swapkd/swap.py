"""Linear-optics Bell-state measurement and the heralded swap state.

Modes b and c interfere on a balanced beamsplitter acting separately on the H
and V pairs; the four outputs (b'H, b'V, c'H, c'V) hit threshold detectors.
Exactly-two-click patterns with one H and one V detector are accepted:
(b'H, c'V) and (b'V, c'H) herald psi-, (b'H, b'V) and (c'H, c'V) herald psi+.
Accepted psi+ outcomes are rotated into the psi- frame by a V -> -V phase on
mode d, so the aggregate conditional state targets the singlet.  Each
beamsplitter with its two detectors is the rotation POVM of fock at pi/4
(fock.detector_pair_povms, a polynomial in 1-eta over a basis cached per
cutoff); the four heralds use only two of its outcomes (see
_heralded_state).

The two-source state factorizes over the pairs (aH,bH), (aV,bV), (cH,dH),
(cV,dV), and the BSM mixes H with H and V with V, so each herald's state on
(aH, aV, dH, dV) is a product of an H-pair and a V-pair tensor.  The swap
result holds those tensors; the (n_max+1)^4-square density matrix is never
formed.  Every detector of the link, at the BSM and at both analyzers,
is the same one behind the same quarter-span loss, and the X analyzer is
the BSM's optic, so the result carries that detector and its realigned
stacks at the two key-basis angles (link_povms): the BSM takes its two
elements from the X stack, and metrics reads both.  A result at one cutoff
compresses exactly to every lower one (compressed): the pair amplitudes
are the untruncated c_n and every POVM is an exact compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .detectors import ThresholdDetector
from .fock import DEFAULT_POLICY, TruncationPolicy, compress, detector_pair_povms, realign
from .sources import pair_amplitudes

# Analyzer angles of the key bases, Z then X; X is the BSM's beamsplitter.
KEY_ANGLES = (0.0, math.pi / 4.0)


@dataclass(frozen=True)
class SwapResult:
    """Aggregate heralded state on (aH, aV, dH, dV), in the psi- frame.

    Pair factors realigned as matrices (fock.realign) and stacked over p:
    rho[(ijkl),(IJKL)] = sum_p th[p,(i,I),(k,K)] * tv[p,(j,J),(l,L)]; the
    metrics contract them directly.  The swap holds one p per H click pair
    of the accepted heralds.  herald_probability is tr(rho).  det is the
    link's detector and povms its stacks at KEY_ANGLES (link_povms); states
    not made by a swap leave them None.
    """

    th: np.ndarray
    tv: np.ndarray
    n_max: int
    herald_probability: float
    det: Optional[ThresholdDetector] = None
    povms: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def compressed(self, n_max: int) -> "SwapResult":
        """This result at the lower cutoff n_max, cut out of its arrays (fock.compress)."""
        th, tv = compress(self.th, n_max), compress(self.tv, n_max)
        povms = tuple(compress(p, n_max) for p in self.povms)
        return SwapResult(th, tv, n_max, _trace(th, tv), self.det, povms)


def _trace(th: np.ndarray, tv: np.ndarray) -> float:
    """tr(rho) = sum_p tr(th_p) tr(tv_p), the traces running over i = I."""
    d = math.isqrt(th.shape[-1])
    traces = [np.einsum("piikk->p", f.reshape(-1, d, d, d, d)) for f in (th, tv)]
    return float(np.real(traces[0] @ traces[1]))


def bsm_detector(eta0: float, alpha_d_db: float, p_dc: float) -> ThresholdDetector:
    """BSM-station detector with the source-to-midpoint quarter-span loss folded in."""
    return ThresholdDetector(eta0 * 10.0 ** (-(alpha_d_db / 4.0) / 10.0), p_dc)


def link_povms(n_max: int, det: ThresholdDetector) -> Tuple[np.ndarray, np.ndarray]:
    """det's four outcomes at each of KEY_ANGLES, realigned (fock.realign)."""
    return tuple(realign(detector_pair_povms(n_max, theta, det)) for theta in KEY_ANGLES)


def _heralded_state(c: np.ndarray, det: ThresholdDetector, n_max: int) -> SwapResult:
    """Pair factors over all accepted heralds for pair amplitudes c.

    Tracing the BSM from the two-source state gives, per herald,
    th[(i,I),(k,K)] = c_i c_k conj(c_I c_K) * E_H[(I,K),(i,k)] and tv the
    same with E_V, where i=n_aH(=n_bH), j=n_aV, k=n_dH(=n_cH), l=n_dV.
    Every accepted herald clicks exactly one output of each mixer, and both
    mixers see the same detectors, so only two elements occur: e1, only the
    b' output clicks, and e2, only the c' output clicks.  psi- clicks
    opposite outputs on the H and V mixers, psi+ the same output and carries
    the frame phase (-1)^(l+L) in tv; heralds sharing an H element add their
    tv.
    """
    d = n_max + 1
    s = np.outer(c, c.conj()).reshape(-1)  # s[(i,I)] = c_i conj(c_I)
    weight = np.outer(s, s)
    povms = link_povms(n_max, det)
    e1, e2 = weight * povms[1][:2]
    parity = (-1.0) ** np.arange(d)
    flip = np.outer(parity, parity).reshape(-1)[None, :]
    th = np.stack([e1, e2])
    tv = np.stack([e2 + e1 * flip, e1 + e2 * flip])
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
    """The swap state with the brightness factored out: pair amplitudes i^n.

    Each BSM POVM conserves its pair's photon number, so on its support the
    pair amplitudes at brightness chi give c_i c_k conj(c_I c_K) =
    (1-t)^2 t^(i+k) with t = tanh^2 chi: the state at chi is this one with
    its N = i+j+k+l photon sector scaled by (1-t)^4 t^N.
    """
    n = np.arange(policy.n_max + 1)
    return _heralded_state(1j ** n, bsm_detector(eta0, alpha_d_db, p_dc), policy.n_max)
