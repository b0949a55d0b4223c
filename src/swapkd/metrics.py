"""Polarization analysis of the post-swap state: coincidences, visibility, QBER.

Alice holds the (aH, aV) pair and Bob the (dH, dV) pair of the conditional
state produced by the swap.  Each side passes its two modes through a
polarization rotation by the analyzer angle and then through one threshold
detector per output: the same four outcomes (fock.detector_pair_povms, on
blocks cached per cutoff and angle) as a BSM beamsplitter.  Every table is
one stacked contraction of the realigned pair factors and POVMs;
qber_polynomial grades it by photon number.  The fringe in Bob's angle is a
Fourier series over the rotation generator's integer eigenvalues, whose
extrema Newton steps on its analytic derivatives refine.  All
probabilities reported here are absolute (per pump pulse): the conditional
state carries the herald probability as its trace, so no renormalization
happens between the swap and the coincidences.
The records returned here hold numbers only: qber() reads the two key-basis
tables, and the fringes are scanned only when a caller asks visibility().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .detectors import ThresholdDetector
from .errors import NoCoincidenceError, UndefinedVisibilityError
from .fock import detector_pair_povms, realign, rotation_basis_weights, rotation_eigensystem
from .rates import golden_max

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


Z_BASIS = AnalyzerSetting(0.0, 0.0)
X_BASIS = AnalyzerSetting(math.pi / 4.0, math.pi / 4.0)

# Bob-angle grid over one period of the fringe; each extremum is refined
# until a Newton step, or the golden-section fallback's bracket, is below
# SCAN_REFINE_TOL radians.  From the grid point, Newton takes one or two
# steps on the engine's fringes; NEWTON_MAX_STEPS only bounds the loop.
SCAN_GRID_POINTS = 181
SCAN_REFINE_TOL = 1e-6
NEWTON_MAX_STEPS = 20

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
        """Error events for a singlet-frame key: correlated outcomes."""
        return self.p_hh + self.p_vv


def _setting_povms(
    n_max: int, det: ThresholdDetector, setting: AnalyzerSetting
) -> Tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's four analyzer outcomes, in _OUTCOMES order, realigned
    (fock.realign); one stack serves both sides when their angles agree."""
    ra = realign(detector_pair_povms(n_max, setting.theta_alice, det))
    if setting.theta_bob == setting.theta_alice:
        return ra, ra
    return ra, realign(detector_pair_povms(n_max, setting.theta_bob, det))


def _bob_operators(result, ra: np.ndarray) -> np.ndarray:
    """Bob's operators sum_p Th_p^T R_a Tv_p for a stack of realigned Alice POVM elements.

    Entry [a, (k,K), (l,L)] is M_a[(k,l),(K,L)] with M_a = Tr_A[rho (E_A^a (x) 1)]:
    one batched matmul over heralds p and Alice elements a.
    """
    return (np.swapaxes(result.th, 1, 2)[:, None] @ ra[None] @ result.tv[:, None]).sum(axis=0)


def _joint_probabilities(result, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """P[a, b] = tr[rho (E_A^a (x) E_B^b)] for realigned POVM stacks ra and rb.

    tr(M_a E_B^b) is the elementwise product of Bob's realigned operator and
    realigned POVM element, so all (a, b) pairs are one matrix product.
    """
    m = _bob_operators(result, ra)
    return np.real(m.reshape(len(ra), -1) @ rb.reshape(len(rb), -1).T)


def fourfold_coincidence(result, setting: AnalyzerSetting, det_ab: ThresholdDetector) -> CoincidenceTable:
    """Exclusive coincidence probabilities for one analyzer setting.

    det_ab.eta must already include the channel loss of the detector's arm;
    this routine applies no further attenuation.
    """
    p = _joint_probabilities(
        result, *_setting_povms(result.n_max, det_ab, setting)
    )  # rows Alice, columns Bob, both in _OUTCOMES order: h, v, both, none
    return CoincidenceTable(
        p_hh=float(p[0, 0]),
        p_hv=float(p[0, 1]),
        p_vh=float(p[1, 0]),
        p_vv=float(p[1, 1]),
        p_double_alice=float(p[2].sum()),
        p_double_bob=float(p[:, 2].sum()),
    )


def _bob_angle_curve(result, det_ab: ThresholdDetector, theta_alice: float) -> Callable:
    """Probability of the (h, h) coincidence as a function of Bob's analyzer angle.

    Contracting Alice's POVM first leaves an operator M on Bob's pair space.
    In the eigenbasis of the rotation generator, p(theta) = tr[M U(theta)^dag
    W U(theta)] = sum_pq K[p,q] exp(i theta (w_q - w_p)) with integer
    eigenvalues w, so the terms group into a Fourier series
    p(theta) = Re sum_f C_f exp(i f theta) with |f| <= 4*n_max.  The
    returned curve(thetas, order) gives p (order 0) or its derivatives
    p' = Re sum_f i f C_f e^{i f theta} (1) and p'' = Re sum_f -f^2 C_f
    e^{i f theta} (2); a list of orders gives one column each.  The terms
    +f and -f are summed as one, and the constant C_0 is added last, so a
    fringe that is nearly flat keeps its oscillation to full precision and
    rounds the same way at every angle.
    """
    n_max = result.n_max
    d = n_max + 1
    ea = detector_pair_povms(n_max, theta_alice, det_ab)[:1]  # Alice's h outcome
    m = _bob_operators(result, realign(ea))[0]
    m = m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)  # [(k,l),(K,L)]

    w, v, sub, _, _ = rotation_eigensystem(n_max)
    v_sub = v[sub]
    a = v_sub.conj().T @ m @ v_sub
    c = rotation_basis_weights(
        n_max, det_ab.weight_vector(True, 2 * n_max), det_ab.weight_vector(False, 2 * n_max)
    )
    k = (a * c.T).reshape(-1)
    f_max = 4 * n_max
    bins = (w[None, :] - w[:, None] + f_max).reshape(-1)  # w_q - w_p, shifted to >= 0
    n_bins = 2 * f_max + 1
    coeffs = np.bincount(bins, k.real, n_bins) + 1j * np.bincount(bins, k.imag, n_bins)
    freqs = np.arange(1, f_max + 1)
    folded = coeffs[f_max + 1 :] + coeffs[f_max - 1 :: -1].conj()  # C_f + conj(C_-f)
    series = np.stack([folded, 1j * freqs * folded, -(freqs**2) * folded])
    offsets = np.array([coeffs[f_max].real, 0.0, 0.0])

    def evaluate(thetas: np.ndarray, order=0) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return np.real(np.exp(1j * np.outer(thetas, freqs)) @ series[order].T) + offsets[order]

    return evaluate


def _newton_extremum(
    curve: Callable, center: float, half_width: float, sign: float
) -> Optional[float]:
    """The extremum of sign * p in the cell |theta - center| <= half_width, by
    Newton steps on p' from the grid point at its centre.

    Returns None where Newton cannot be trusted: sign * p'' >= 0 (no
    extremum of that kind), a step leaving the cell, or no step below
    SCAN_REFINE_TOL within NEWTON_MAX_STEPS.  Newton converges
    quadratically, so after a step below SCAN_REFINE_TOL the extremum is
    far closer than that step.
    """
    theta = center
    for _ in range(NEWTON_MAX_STEPS):
        d1, d2 = curve(theta, [1, 2])[0]
        if sign * d2 >= 0.0:
            return None
        delta = -d1 / d2
        theta += delta
        if abs(theta - center) > half_width:
            return None
        if abs(delta) <= SCAN_REFINE_TOL:
            return theta
    return None


@dataclass(frozen=True)
class VisibilityScan:
    """Extrema of the coincidence-vs-angle curve and the visibility they give."""

    visibility: float
    theta_max: float
    theta_min: float
    p_max: float
    p_min: float


def visibility_scan(
    result,
    det_ab: ThresholdDetector,
    theta_alice: float = 0.0,
) -> VisibilityScan:
    """Scan Bob's analyzer angle and refine both extrema of the H-H rate.

    The curve has period pi, so the grid covers [0, pi).  Each grid extremum
    is refined within its grid cell by Newton steps on the series' analytic
    derivatives (_newton_extremum); golden-section search over the cell, to
    SCAN_REFINE_TOL radians, is the fallback where Newton cannot be trusted.
    """
    curve = _bob_angle_curve(result, det_ab, theta_alice)
    thetas = np.linspace(0.0, math.pi, SCAN_GRID_POINTS, endpoint=False)
    values = curve(thetas)
    step = math.pi / SCAN_GRID_POINTS

    def refine(index: int, sign: float) -> Tuple[float, float]:
        center = float(thetas[index])
        x = _newton_extremum(curve, center, step, sign)
        if x is None:
            x, _ = golden_max(
                lambda t: sign * float(curve(t)[0]), center - step, center + step, SCAN_REFINE_TOL
            )
        return x % math.pi, float(curve(x)[0])

    theta_max, p_max = refine(int(np.argmax(values)), 1.0)
    theta_min, p_min = refine(int(np.argmin(values)), -1.0)
    p_max = max(p_max, 0.0)
    p_min = max(p_min, 0.0)
    if p_max + p_min <= 0.0:
        raise UndefinedVisibilityError(
            "coincidence rate vanishes at every analyzer angle; visibility undefined"
        )
    vis = (p_max - p_min) / (p_max + p_min)
    return VisibilityScan(vis, theta_max, theta_min, p_max, p_min)


def visibility(result, det_ab: ThresholdDetector) -> float:
    """Fringe visibility averaged over the Z and X key bases.

    Each basis scans Bob's angle with Alice's analyzer at that basis's angle
    (visibility_scan); the mean pairs with the pooled error fraction of
    qber() through QBER = (1 - V)/2, even when the bases disagree slightly.
    """
    vis_z = visibility_scan(result, det_ab, Z_BASIS.theta_alice).visibility
    vis_x = visibility_scan(result, det_ab, X_BASIS.theta_alice).visibility
    return 0.5 * (vis_z + vis_x)


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


def qber(result, det_ab: ThresholdDetector) -> QberReport:
    """Error fraction of the sifted key, averaged over the Z and X bases.

    The corrected swap output is anticorrelated in every basis, so the wrong
    bits are the correlated (HH and VV) coincidences.
    """
    table_z = fourfold_coincidence(result, Z_BASIS, det_ab)
    table_x = fourfold_coincidence(result, X_BASIS, det_ab)
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


def _sector_table(result, det_ab: ThresholdDetector, setting: AnalyzerSetting) -> np.ndarray:
    """Coincidences p[a, N_A, b, N_B] for Alice's and Bob's h/v outcomes a, b.

    N_A and N_B are the photon numbers reaching Alice's and Bob's analyzers.
    Each analyzer POVM conserves its local photon number, so its N blocks
    sum back to the full element and the sectors sum to the table.
    """
    n_blocks = 2 * result.n_max + 1
    d2 = (result.n_max + 1) ** 2
    occ = np.add.outer(np.arange(result.n_max + 1), np.arange(result.n_max + 1)).reshape(-1)
    sel = occ[None, :] == np.arange(n_blocks)[:, None]
    blocks = realign(sel[:, :, None] & sel[:, None, :])  # N block: I+J = i+j = N
    ra, rb = (
        (povms[:2, None] * blocks).reshape(-1, d2, d2)
        for povms in _setting_povms(result.n_max, det_ab, setting)
    )
    return _joint_probabilities(result, ra, rb).reshape(2, n_blocks, 2, n_blocks)


def qber_polynomial(result, det_ab: ThresholdDetector) -> Tuple[np.ndarray, np.ndarray]:
    """Wrong and total key-basis coincidences as polynomials in t = tanh^2 chi.

    For the brightness-free state of swap.graded_swap_state, the coincidences
    of qber() at brightness chi are (1-t)^4 sum_N W_N t^N (wrong, HH and VV)
    and (1-t)^4 sum_N T_N t^N (total), pooled over Z and X, with N = N_A + N_B.
    Returns (W, T); the pooled QBER is sum W_N t^N / sum T_N t^N.
    """
    p = sum(_sector_table(result, det_ab, setting) for setting in (Z_BASIS, X_BASIS))
    n_blocks = 2 * result.n_max + 1
    n = np.add.outer(np.arange(n_blocks), np.arange(n_blocks)).reshape(-1)  # N_A + N_B
    wrong = np.bincount(n, (p[0, :, 0, :] + p[1, :, 1, :]).reshape(-1))
    return wrong, np.bincount(n, p.sum(axis=(0, 2)).reshape(-1))
