"""Polarization analysis of the post-swap state: coincidences, visibility, QBER.

Alice holds the (aH, aV) pair and Bob the (dH, dV) pair of the conditional
state produced by the swap.  Each side passes its two modes through a
polarization rotation by the analyzer angle and then through one threshold
detector per output: the same four outcomes (fock.detector_pair_povms, over
a real rotation matrix cached per cutoff and angle) as a BSM beamsplitter.
The key-basis analyzers are the link's own optics, so their stacks come
with the swap result (swap.link_povms); the general routines take any
detector and setting and build their own.  Every table is one stacked
contraction of the realigned pair factors and POVMs.
qber_polynomial grades the tables by photon number: every operator
conserves its pair's photon number, so the contraction reads only the
entries of each photon-number sector, at positions from one formula
(_sector_gathers), and one matrix product contracts them.  The fringe in
Bob's angle is a Fourier series over the rotation generator's integer
eigenvalues, so its extrema are at the roots of one polynomial and are
found exactly.  All probabilities reported here are absolute (per pump
pulse): the conditional state carries the herald probability as its
trace, so no renormalization happens between the swap and the
coincidences.
qber() and visibility() read one swap result through its own key-basis
stacks: qber() contracts the two key-basis tables, and visibility() scans
both fringes from Bob's operator for Alice's h outcome.  The reports hold
numbers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .detectors import ThresholdDetector
from .errors import NoCoincidenceError, UndefinedVisibilityError
from .fock import (
    detector_pair_povms,
    realign,
    rotation_basis_weights,
    rotation_eigensystem,
)
from .swap import KEY_ANGLES, SwapResult

__all__ = [
    "AnalyzerSetting",
    "Z_BASIS",
    "X_BASIS",
    "CoincidenceTable",
    "VisibilityScan",
    "QberReport",
    "fourfold_coincidence",
    "visibility",
    "visibility_scan",
    "qber",
    "qber_polynomial",
]


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer angles for the two sides."""

    theta_alice: float
    theta_bob: float


Z_BASIS, X_BASIS = (AnalyzerSetting(theta, theta) for theta in KEY_ANGLES)

# Exclusive outcomes of one analyzer, in fock.detector_pair_povms order:
# exactly the H detector, exactly the V detector, both, or neither, as
# (H detector, V detector) click demands.
_OUTCOMES = {"h": (True, False), "v": (False, True), "both": (True, True), "none": (False, False)}


@dataclass(frozen=True)
class CoincidenceTable:
    """Joint outcome probabilities for one analyzer setting.

    p_hh .. p_vv are the exclusive one-click-per-side coincidence
    probabilities (first letter Alice, second Bob).  p_double_alice and
    p_double_bob collect events where that side fired both detectors, kept
    separate so the exclusive-coincidence convention stays auditable.
    """

    p_hh: float
    p_hv: float
    p_vh: float
    p_vv: float
    p_double_alice: float
    p_double_bob: float

    @property
    def p_coincidence(self) -> float:
        return self.p_hh + self.p_hv + self.p_vh + self.p_vv

    @property
    def p_wrong(self) -> float:
        """Error events for a singlet-frame key: correlated outcomes, clamped
        at 0, since where the model has none (one pair per source, no dark
        counts) the signed contraction leaves rounding of either sign."""
        return max(self.p_hh + self.p_vv, 0.0)


def _povms(result, det: ThresholdDetector, theta: float) -> np.ndarray:
    """One analyzer's four outcomes at angle theta, in _OUTCOMES order, realigned
    (fock.realign)."""
    return realign(detector_pair_povms(result.n_max, theta, det))


def _setting_povms(
    result, det: ThresholdDetector, setting: AnalyzerSetting
) -> Tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's outcome stacks (_povms); one serves both sides when
    their angles agree."""
    ra = _povms(result, det, setting.theta_alice)
    if setting.theta_bob == setting.theta_alice:
        return ra, ra
    return ra, _povms(result, det, setting.theta_bob)


def _bob_operators(result, ra: np.ndarray) -> np.ndarray:
    """Bob's operators sum_p Th_p^T R_a Tv_p for a stack of realigned Alice POVM elements.

    Entry [a, (k,K), (l,L)] is M_a[(k,l),(K,L)] with M_a = Tr_A[rho (E_A^a (x) 1)]:
    one batched matmul over heralds p and Alice elements a.
    """
    return (np.swapaxes(result.th, 1, 2)[:, None] @ ra[None] @ result.tv[:, None]).sum(axis=0)


def _joint_probabilities(result, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """P[a, b] = tr[rho (E_A^a (x) E_B^b)] for realigned POVM stacks ra and rb.

    tr[rho (E_A^a (x) E_B^b)] = tr(M_a E_B^b) with Bob's operators M_a
    (_bob_operators), the elementwise product of his realigned operator and
    realigned POVM element, so all (a, b) pairs are one matrix product.
    """
    m = _bob_operators(result, ra)
    return np.real(m.reshape(len(m), -1) @ rb.reshape(len(rb), -1).T)


def _table(p: np.ndarray) -> CoincidenceTable:
    """The table of P[a, b]: rows Alice, columns Bob, both in _OUTCOMES order."""
    return CoincidenceTable(
        p_hh=float(p[0, 0]),
        p_hv=float(p[0, 1]),
        p_vh=float(p[1, 0]),
        p_vv=float(p[1, 1]),
        p_double_alice=float(p[2].sum()),
        p_double_bob=float(p[:, 2].sum()),
    )


def fourfold_coincidence(result, setting: AnalyzerSetting, det_ab: ThresholdDetector) -> CoincidenceTable:
    """Exclusive coincidence probabilities for one analyzer setting.

    det_ab.eta must already include the channel loss of the detector's arm;
    this routine applies no further attenuation.
    """
    return _table(_joint_probabilities(result, *_setting_povms(result, det_ab, setting)))


@dataclass(frozen=True)
class _Fringe:
    """p(theta) = c0 + Re sum_k g[k-1] exp(2ik theta) for k = 1..len(g).

    The terms +f and -f of the Fourier series are summed as one, and the
    constant c0 is added last, so a fringe that is nearly flat keeps its
    oscillation to full precision and rounds the same way at every angle.
    """

    c0: float
    g: np.ndarray

    def __call__(self, thetas) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        k = np.arange(1, len(self.g) + 1)
        return np.real(np.exp(2j * np.outer(thetas, k)) @ self.g) + self.c0


def _fringe(m: np.ndarray, c: np.ndarray, n_max: int) -> _Fringe:
    """Probability of the (h, h) coincidence as a function of Bob's analyzer angle.

    m is Bob's realigned operator for Alice's h outcome (_bob_operators) and
    c his detectors' weights in the rotation generator's eigenbasis
    (_analyzer_weights).  In that eigenbasis, p(theta) = tr[M U(theta)^dag
    W U(theta)] = sum_pq K[p,q] exp(i theta (w_q - w_p)) with integer
    eigenvalues w, so the terms group into a Fourier series
    p(theta) = Re sum_f C_f exp(i f theta) with |f| <= 4*n_max.  Only even f
    survive: M and W conserve Bob's photon number, and within one
    photon-number block the eigenvalues differ by even integers.  So the
    curve is a _Fringe of period pi with K = 2*n_max terms.
    """
    d = n_max + 1
    m = m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)  # [(k,l),(K,L)]
    w, v, sub, _, _ = rotation_eigensystem(n_max)
    v_sub = v[sub]
    a = v_sub.conj().T @ m @ v_sub
    a *= c.T
    k = a.reshape(-1)
    f_max = 4 * n_max
    bins = (w[None, :] - w[:, None] + f_max).reshape(-1)  # w_q - w_p, shifted to >= 0
    n_bins = 2 * f_max + 1
    coeffs = np.bincount(bins, k.real, n_bins) + 1j * np.bincount(bins, k.imag, n_bins)
    folded = coeffs[f_max + 1 :] + coeffs[f_max - 1 :: -1].conj()  # C_f + conj(C_-f), f >= 1
    return _Fringe(coeffs[f_max].real, folded[1::2])


def _analyzer_weights(n_max: int, det: ThresholdDetector) -> np.ndarray:
    """Bob's (click, no-click) weights in the rotation eigenbasis, for _fringe."""
    return rotation_basis_weights(
        n_max, det.weight_vector(True, 2 * n_max), det.weight_vector(False, 2 * n_max)
    )


def _bob_angle_curve(result, det_ab: ThresholdDetector, theta_alice: float) -> _Fringe:
    """The (h, h) fringe in Bob's angle with Alice's analyzer at theta_alice (_fringe)."""
    m = _bob_operators(result, _povms(result, det_ab, theta_alice)[:1])[0]  # Alice's h outcome
    return _fringe(m, _analyzer_weights(result.n_max, det_ab), result.n_max)


@dataclass(frozen=True)
class VisibilityScan:
    """Extrema of the coincidence-vs-angle curve and the visibility they give."""

    visibility: float
    theta_max: float
    theta_min: float
    p_max: float
    p_min: float


def _extrema(curve: _Fringe) -> VisibilityScan:
    """Both extrema of a fringe, exactly.

    With u = exp(2i theta) and b_k = i k g_k, u^K p'(theta) is the
    polynomial sum_k b_k u^(K+k) + conj(b_k) u^(K-k) of degree 2K, so every
    extremum lies at the angle of one of its roots.  p is evaluated there
    and at theta = 0; candidates that are not extrema cannot beat the true
    ones, and a flat fringe (all-zero polynomial, no roots) gives V = 0.
    """
    b = 1j * np.arange(1, len(curve.g) + 1) * curve.g
    # b_k falls steeply with k (like tanh^2(chi)^k); terms below 1e-16 of the
    # largest move the roots less than rounding does, and dropping the tail
    # keeps the companion matrix small and well scaled
    b = np.trim_zeros(np.where(abs(b) > 1e-16 * abs(b).max(), b, 0.0), "b")
    roots = np.roots(np.concatenate([b[::-1], [0.0], b.conj()]))  # highest power first
    thetas = np.append(0.0, np.angle(roots) / 2.0) % math.pi
    values = curve(thetas)
    theta_max = float(thetas[np.argmax(values)])
    theta_min = float(thetas[np.argmin(values)])
    p_max = max(float(curve(theta_max)[0]), 0.0)
    p_min = max(float(curve(theta_min)[0]), 0.0)
    if p_max + p_min <= 0.0:
        raise UndefinedVisibilityError(
            "coincidence rate vanishes at every analyzer angle; visibility undefined"
        )
    vis = (p_max - p_min) / (p_max + p_min)
    return VisibilityScan(vis, theta_max, theta_min, p_max, p_min)


def visibility_scan(
    result,
    det_ab: ThresholdDetector,
    theta_alice: float = 0.0,
) -> VisibilityScan:
    """Both extrema of the H-H rate over Bob's analyzer angle (_extrema)."""
    return _extrema(_bob_angle_curve(result, det_ab, theta_alice))


@dataclass(frozen=True)
class QberReport:
    """Error fractions of the sifted key and the two tables they come from.

    qber pools wrong and total coincidences over the two key bases; qber_z
    and qber_x are the per-basis fractions.  All underlying counts stay
    available through the two tables.  The fringe visibility is not part of
    the report: visibility() scans it on request.
    """

    qber: float
    qber_z: float
    qber_x: float
    table_z: CoincidenceTable
    table_x: CoincidenceTable

    @property
    def p_total_z(self) -> float:
        return self.table_z.p_coincidence

    @property
    def p_total_x(self) -> float:
        return self.table_x.p_coincidence

    @property
    def sifted_coincidence_probability(self) -> float:
        """Per-pulse probability of a sifted coincidence (basis match = 1/2)."""
        return 0.25 * (self.p_total_z + self.p_total_x)


def qber(result: SwapResult) -> QberReport:
    """Error fraction of the sifted key, averaged over the Z and X bases.

    The corrected swap output is anticorrelated in every basis, so the wrong
    bits are the correlated (HH and VV) coincidences.  Each basis's table is
    read through the result's stack of that basis, which Alice and Bob share.
    """
    table_z, table_x = (_table(_joint_probabilities(result, p, p)) for p in result.povms)
    total = table_z.p_coincidence + table_x.p_coincidence
    if total <= 0.0:
        raise NoCoincidenceError("no coincidences in either basis; QBER undefined")
    wrong = table_z.p_wrong + table_x.p_wrong
    qber_z = table_z.p_wrong / table_z.p_coincidence if table_z.p_coincidence > 0 else float("nan")
    qber_x = table_x.p_wrong / table_x.p_coincidence if table_x.p_coincidence > 0 else float("nan")
    return QberReport(
        qber=wrong / total,
        qber_z=qber_z,
        qber_x=qber_x,
        table_z=table_z,
        table_x=table_x,
    )


def visibility(result: SwapResult) -> float:
    """Fringe visibility averaged over the Z and X key bases.

    Each basis scans Bob's angle with Alice's analyzer at that basis's angle,
    from Bob's operator for her h outcome (the first of the result's stack
    for that basis); both scans share one set of eigenbasis weights.  The
    mean pairs with the pooled error fraction of qber() through
    QBER = (1 - V)/2, even when the bases disagree slightly.
    """
    n_max = result.n_max
    c = _analyzer_weights(n_max, result.det)
    vis_z, vis_x = (
        _extrema(_fringe(_bob_operators(result, p[:1])[0], c, n_max)).visibility
        for p in result.povms
    )
    return 0.5 * (vis_z + vis_x)


@lru_cache(maxsize=16)
def _sector_gathers(n_max: int) -> Tuple[np.ndarray, ...]:
    """Flat positions, in a realigned operator, of the operands of _sector_table.

    R[(x, X), (y, Y)] sits at ((x d + X) d + y) d + Y, d = n_max + 1, or
    at d^4, the zero past the end (_take), where an occupation falls
    outside 0..n_max.  Alice's half reads
      A[delta, N, a, b] = R[(N-a, N-a-delta), (b, b+delta)]
    and Bob's half the same with the two pairs swapped,
      B[delta, N, a, b] = R[(b, b+delta), (N-a, N-a-delta)].
    The four gathers are th[.., N, j, k] = A[.., N, j, k], ra = A on the
    diagonal a = b, tv[.., N, j, k] = B[.., N, k, j] and rb = B on the
    diagonal.  Contiguous and read-only, since every caller shares them.
    """
    d = n_max + 1
    delta = np.arange(-n_max, n_max + 1)[:, None, None, None]
    n = np.arange(2 * n_max + 1)[:, None, None]
    a, b = np.arange(d)[:, None], np.arange(d)
    occupations = np.stack(np.broadcast_arrays(n - a, n - a - delta, b, b + delta))
    inside = ((occupations >= 0) & (occupations <= n_max)).all(axis=0)
    x, big_x, y, big_y = occupations
    alice = np.where(inside, ((x * d + big_x) * d + y) * d + big_y, d**4)
    bob = np.where(inside, ((y * d + big_y) * d + x) * d + big_x, d**4)
    out = tuple(
        np.ascontiguousarray(g)
        for g in (alice, np.diagonal(alice, 0, 2, 3), bob.swapaxes(2, 3), np.diagonal(bob, 0, 2, 3))
    )
    for g in out:
        g.flags.writeable = False
    return out


def _take(op: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Realigned operators read at flat positions (_sector_gathers); d^4 reads 0."""
    flat = op.reshape(op.shape[:-2] + (-1,))
    padded = np.concatenate([flat, np.zeros(flat.shape[:-1] + (1,), flat.dtype)], axis=-1)
    return np.take(padded, positions, axis=-1)


def _sector_table(result, povms_a: np.ndarray, povms_b: np.ndarray) -> np.ndarray:
    """Coincidences p[a, N_A, b, N_B] for the h/v outcomes a, b of Alice's and
    Bob's realigned outcome stacks povms_a and povms_b.

    N_A and N_B are the photon numbers reaching Alice's and Bob's analyzers.
    The pair factors and the analyzer POVMs conserve their pairs' photon
    numbers: a realigned R[(i,I), (j,J)] vanishes unless i+j = I+J, so
    i - I = J - j = delta.  Hence
      p[a, N_A, b, N_B] = sum Th[(i,i-delta), (k,k+delta)] Ra[(i,i-delta), (j,j+delta)]
                              Tv[(j,j+delta), (l,l-delta)] Rb[(k,k+delta), (l,l-delta)]
    over p, delta, i+j = N_A and k+l = N_B.  Alice's and Bob's halves are
    read by photon number (_sector_gathers) and multiplied out, and one
    matrix product contracts them over (p, delta, j, k).  Only for states
    whose factors conserve photon number, as every swap result's do.
    """
    n_blocks = 2 * result.n_max + 1
    g_th, g_ra, g_tv, g_rb = _sector_gathers(result.n_max)
    th, tv = _take(result.th, g_th), _take(result.tv, g_tv)  # [p, delta, N, j, k]
    ra, rb = _take(povms_a[:2], g_ra), _take(povms_b[:2], g_rb)  # [a, delta, N, j or k]
    # alice[a, N_A, p, delta, j, k] and bob[b, N_B, p, delta, j, k]
    alice = th.transpose(2, 0, 1, 3, 4) * ra.transpose(0, 2, 1, 3)[:, :, None, :, :, None]
    bob = tv.transpose(2, 0, 1, 3, 4) * rb.transpose(0, 2, 1, 3)[:, :, None, :, None, :]
    p = alice.reshape(2 * n_blocks, -1) @ bob.reshape(2 * n_blocks, -1).T
    return np.real(p).reshape(2, n_blocks, 2, n_blocks)


def qber_polynomial(result: SwapResult) -> Tuple[np.ndarray, np.ndarray]:
    """Wrong and total key-basis coincidences as polynomials in t = tanh^2 chi.

    For the brightness-free state of swap.graded_swap_state, the coincidences
    of qber() at brightness chi are (1-t)^4 sum_N W_N t^N (wrong, HH and VV)
    and (1-t)^4 sum_N T_N t^N (total), pooled over Z and X, with N = N_A + N_B.
    Returns (W, T); the pooled QBER is sum W_N t^N / sum T_N t^N.  The
    tables are those of the result's key-basis stacks.
    """
    p = sum(_sector_table(result, povms, povms) for povms in result.povms)
    n_blocks = 2 * result.n_max + 1
    n = np.add.outer(np.arange(n_blocks), np.arange(n_blocks)).reshape(-1)  # N_A + N_B
    wrong = np.bincount(n, (p[0, :, 0, :] + p[1, :, 1, :]).reshape(-1))
    return wrong, np.bincount(n, p.sum(axis=(0, 2)).reshape(-1))
