"""Polarization analysis of the post-swap state: coincidences, visibility, QBER.

Alice holds the (aH, aV) pair and Bob the (dH, dV) pair of the conditional
state produced by the swap.  Each side passes its two modes through a
polarization rotation by the analyzer angle and then through one threshold
detector per output: the same four outcomes (fock.detector_pair_povms, over
the real rotation's photon-number blocks, cached per cutoff and angle) as a
BSM beamsplitter.
The key-basis analyzers are the link's own optics, so their stacks come
with the swap result (swap.link_povms); the general routines take any
detector and pair of analyzer angles and build their own.  Every table is
one stacked contraction of the realigned pair factors and POVMs.
qber_polynomial grades the tables by photon number: every operator
conserves its pair's photon number, so the contraction reads only the
entries of each photon-number sector, at positions from one formula
(_sector_gathers), and one matrix product contracts them.  The fringe in
Bob's angle is a Fourier series over the rotation generator's integer
eigenvalues, read block by block in Bob's photon number (_fringe, over
fock.rotation_blocks), so its extrema are at the roots of one polynomial,
the eigenvalues of its companion matrix, and are found exactly.  All
probabilities reported here are absolute (per pump pulse): the conditional
state carries the herald probability as its trace, so no renormalization
happens between the swap and the coincidences.
qber() and visibility() read one swap result through its own key-basis
stacks: qber() contracts the two key-basis tables, and visibility() scans
both fringes, read in one pass from Bob's operators for Alice's h outcome.
The reports hold numbers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .detectors import ThresholdDetector
from .errors import NoCoincidenceError, UndefinedVisibilityError
from .fock import block_positions, detector_pair_povms, rotation_blocks
from .swap import SwapResult

__all__ = [
    "CoincidenceTable",
    "VisibilityScan",
    "QberReport",
    "fourfold_coincidence",
    "visibility",
    "visibility_scan",
    "qber",
    "qber_polynomial",
]


# Exclusive outcomes of one analyzer, in fock.detector_pair_povms order:
# exactly the H detector, exactly the V detector, both, or neither, as
# (H detector, V detector) click demands.
_OUTCOMES = {"h": (True, False), "v": (False, True), "both": (True, True), "none": (False, False)}


@dataclass(frozen=True)
class CoincidenceTable:
    """Joint outcome probabilities for one pair of analyzer angles.

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
    """One analyzer's four realigned outcomes at angle theta, in _OUTCOMES order."""
    return detector_pair_povms(result.n_max, (theta,), det)[0]


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


def fourfold_coincidence(
    result, det_ab: ThresholdDetector, theta_alice: float, theta_bob: float
) -> CoincidenceTable:
    """Exclusive coincidence probabilities with Alice's analyzer at theta_alice
    and Bob's at theta_bob; one stack (_povms) serves both when they agree.

    det_ab.eta must already include the channel loss of the detector's arm;
    this routine applies no further attenuation.
    """
    ra = _povms(result, det_ab, theta_alice)
    rb = ra if theta_bob == theta_alice else _povms(result, det_ab, theta_bob)
    return _table(_joint_probabilities(result, ra, rb))


@dataclass(frozen=True)
class _Fringe:
    """p(theta) = c0 + Re sum_k g[k-1] exp(2ik theta) for k = 1..len(g).

    The terms +f and -f of the Fourier series are summed as one, and the
    constant c0 is added last, so a fringe that is nearly flat keeps its
    oscillation to full precision and rounds the same way at every angle.
    Each angle's terms are summed on their own row, so its value does not
    depend on the other angles evaluated with it.
    """

    c0: float
    g: np.ndarray

    def __call__(self, thetas) -> np.ndarray:
        k = np.arange(1, len(self.g) + 1)
        terms = np.exp(2j * np.multiply.outer(np.atleast_1d(thetas), k)) * self.g
        return terms.sum(-1).real + self.c0


def _fringe(result, ra: np.ndarray, c: np.ndarray):
    """Probability of the (h, h) coincidence as a function of Bob's analyzer angle.

    ra is Alice's realigned outcome stack (_povms), or several such stacks
    stacked, and c Bob's detectors' weights per photon-number block in the
    rotation eigenbasis (_analyzer_weights).  M is Bob's operator for
    Alice's h outcome, the first of a stack (_bob_operators).  M, the
    rotation and Bob's detectors conserve his photon number N, so with the
    eigenvectors V_N of rotation_blocks, p(theta) = tr[M U(theta)^dag E
    U(theta)] = sum_N sum_pq A_N[p,q] C_N[q,p] exp(2i theta (q - p)), where
    A_N = V_N^dag M_N V_N: the eigenvalues -N + 2p differ by even integers.
    So the curve is a _Fringe of period pi with K = 2*n_max terms, one per
    q - p = 1..K, and every block of every stack is one batched product.
    Returns the _Fringe of one stack, or a list of one per stack.
    """
    k = 2 * result.n_max + 1
    h = ra[..., 0, :, :].reshape((-1,) + ra.shape[-2:])
    m = _take(_bob_operators(result, h), block_positions(result.n_max))  # [stack, N, n1, m1]
    v = rotation_blocks(result.n_max)
    terms = ((v.conj().swapaxes(1, 2) @ m @ v) * c.swapaxes(1, 2)).sum(axis=1)  # [stack, p, q]
    lag = np.arange(k) - np.arange(k)[:, None] + k - 1  # q - p, shifted to 0..2k-2
    bins = (np.arange(len(m))[:, None, None] * (2 * k - 1) + lag).reshape(-1)
    flat = terms.reshape(-1)
    coeffs = (np.bincount(bins, flat.real) + 1j * np.bincount(bins, flat.imag)).reshape(len(m), -1)
    folded = coeffs[:, k:] + coeffs[:, k - 2 :: -1].conj()  # C_j + conj(C_-j), j = q - p >= 1
    fringes = [_Fringe(c0, g) for c0, g in zip(coeffs[:, k - 1].real.tolist(), folded)]
    return fringes if ra.ndim > 3 else fringes[0]


def _analyzer_weights(n_max: int, det: ThresholdDetector) -> np.ndarray:
    """Bob's (click, no-click) weights per photon-number block in the rotation
    eigenbasis, C_N = V_N^dag diag(click[n1] silent[N-n1]) V_N, for _fringe."""
    v = rotation_blocks(n_max)
    n, n1 = np.indices(v.shape[:2])  # n1 > N reads a wrapped weight on a zero row of V
    w = det.weight_vector(True, 2 * n_max)[n1] * det.weight_vector(False, 2 * n_max)[n - n1]
    return (v.conj().swapaxes(1, 2) * w[:, None, :]) @ v


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
    big = np.abs(b) > 1e-16 * np.abs(b).max()
    b = np.where(big, b, 0.0)[: np.flatnonzero(np.append(True, big))[-1]]
    thetas = np.zeros(1)
    if len(b):
        poly = np.concatenate([b[::-1], [0.0], b.conj()])  # highest power first
        companion = np.eye(len(poly) - 1, k=-1, dtype=complex)
        companion[0] = -poly[1:] / poly[0]
        thetas = np.append(0.0, np.angle(np.linalg.eigvals(companion)) / 2.0) % math.pi
    values = curve(thetas)
    i_max, i_min = int(np.argmax(values)), int(np.argmin(values))
    theta_max, theta_min = float(thetas[i_max]), float(thetas[i_min])
    p_max, p_min = max(float(values[i_max]), 0.0), max(float(values[i_min]), 0.0)
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
    """Both extrema of the H-H rate over Bob's analyzer angle, with Alice's
    analyzer at theta_alice (_fringe, _extrema)."""
    ra = _povms(result, det_ab, theta_alice)
    return _extrema(_fringe(result, ra, _analyzer_weights(result.n_max, det_ab)))


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
    through the result's stack for that basis; one _fringe call reads both
    fringes with one set of eigenbasis weights.  The mean pairs with the pooled error
    fraction of qber() through QBER = (1 - V)/2, even when the bases
    disagree slightly.
    """
    fringes = _fringe(result, result.povms[:, :1], _analyzer_weights(result.n_max, result.det))
    vis_z, vis_x = (_extrema(f).visibility for f in fringes)
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
