"""Polarization analysis of the post-swap state: coincidences, visibility, QBER.

Alice holds the (aH, aV) pair and Bob the (dH, dV) pair of the conditional
state produced by the swap.  Each side passes its two modes through a
polarization rotation by the analyzer angle and then through one threshold
detector per output.  All probabilities reported here are absolute (per pump
pulse): the conditional state carries the herald probability as its trace, so
no renormalization happens between the swap and the coincidence counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Tuple

import numpy as np

from .detectors import ThresholdDetector
from .errors import NoCoincidenceError, UndefinedVisibilityError
from .fock import ConditionalState, annihilation_matrix, pair_mixer_unitary
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
    "fidelity_visibility",
    "chsh",
    "embed_qubit_pair",
]


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer angles for the two sides, with an optional basis tag."""

    theta_alice: float
    theta_bob: float
    basis_label: str = ""


Z_BASIS = AnalyzerSetting(0.0, 0.0, "Z")
X_BASIS = AnalyzerSetting(math.pi / 4.0, math.pi / 4.0, "X")

# Bob-angle grid over one period of the fringe, and the golden-section
# tolerance (radians) to which each extremum is refined.
SCAN_GRID_POINTS = 181
SCAN_REFINE_TOL = 1e-6

# Exclusive outcomes of one analyzer: exactly the H detector, exactly the V
# detector, both, or neither.
_PATTERNS = ("h", "v", "both", "none")


@dataclass(frozen=True)
class CoincidenceTable:
    """Joint outcome probabilities for one analyzer setting.

    p_hh .. p_vv are the exclusive one-click-per-side coincidence
    probabilities (first letter Alice, second Bob).  p_double_alice and
    p_double_bob collect events where that side fired both detectors, kept
    separate so the exclusive-coincidence convention stays auditable.
    """

    theta_alice: float
    theta_bob: float
    basis_label: str
    p_hh: float
    p_hv: float
    p_vh: float
    p_vv: float
    p_double_alice: float
    p_double_bob: float
    herald_probability: float

    @property
    def p_same(self) -> float:
        """Correlated pair with Alice's analyzer fixed to its H output."""
        return self.p_hh

    @property
    def p_diff(self) -> float:
        """Anticorrelated pair with Alice's analyzer fixed to its H output."""
        return self.p_hv

    @property
    def p_coincidence(self) -> float:
        return self.p_hh + self.p_hv + self.p_vh + self.p_vv

    @property
    def p_wrong(self) -> float:
        """Error events for a singlet-frame key: correlated outcomes."""
        return self.p_hh + self.p_vv

    @property
    def p_right(self) -> float:
        return self.p_hv + self.p_vh


@lru_cache(maxsize=256)
def _analyzer_povms(
    n_max: int, eta: float, p_dc: float, theta: float
) -> Dict[str, np.ndarray]:
    """POVM elements of one rotated two-detector analyzer, on the (H, V) pair.

    Computed exactly: the rotation conserves total photon number, so building
    it on a 2*n_max+1 per-mode embedding and restricting the conjugated
    element back to occupations <= n_max loses nothing.
    """
    d = n_max + 1
    dbig = 2 * n_max + 1
    det = ThresholdDetector(eta=eta, p_dc=p_dc)
    wc = det.weight_vector(True, dbig - 1)
    wn = det.weight_vector(False, dbig - 1)
    u = pair_mixer_unitary(dbig, theta)
    sub = np.array([i * dbig + j for i in range(d) for j in range(d)])
    weights = {
        "h": np.kron(wc, wn),
        "v": np.kron(wn, wc),
        "both": np.kron(wc, wc),
        "none": np.kron(wn, wn),
    }
    povms = {}
    for key, w in weights.items():
        e = u.conj().T @ (w[:, None] * u)
        e = e[np.ix_(sub, sub)]
        povms[key] = 0.5 * (e + e.conj().T)
    return povms


def _bob_operator(state, ea: np.ndarray) -> np.ndarray:
    """Bob's operator M = Tr_A[rho (E_A (x) 1)] on the flattened (dH, dV) pair space.

    The only step that depends on how the state is stored.  For the pair
    factors of a swap result, two tensordots per herald cost
    O((n_max+1)^6) each; a dense ConditionalState is contracted directly.
    """
    d = state.n_max + 1
    if isinstance(state, ConditionalState):
        return np.einsum("abAB,Aa->bB", state.rho.reshape(d * d, d * d, d * d, d * d), ea)
    ea4 = ea.reshape(d, d, d, d)  # [I, J, i, j]
    m = 0.0
    for th, tv in state.factors:
        t1 = np.tensordot(th, ea4, axes=([0, 2], [2, 0]))  # [k, K, J, j]
        m = m + np.tensordot(t1, tv, axes=([3, 2], [0, 2]))  # [k, K, l, L]
    return m.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _joint_probabilities(
    result,
    det_ab: ThresholdDetector,
    theta_alice: float,
    theta_bob: float,
) -> Dict[Tuple[str, str], float]:
    n_max = result.n_max
    ea = _analyzer_povms(n_max, det_ab.eta, det_ab.p_dc, float(theta_alice))
    eb = _analyzer_povms(n_max, det_ab.eta, det_ab.p_dc, float(theta_bob))
    probs: Dict[Tuple[str, str], float] = {}
    for ka in _PATTERNS:
        half = _bob_operator(result, ea[ka])
        for kb in _PATTERNS:
            probs[(ka, kb)] = float(np.real(np.einsum("bB,Bb->", half, eb[kb])))
    return probs


def fourfold_coincidence(result, setting: AnalyzerSetting, det_ab: ThresholdDetector) -> CoincidenceTable:
    """Exclusive coincidence probabilities for one analyzer setting.

    det_ab.eta must already include the channel loss of the detector's arm;
    this routine applies no further attenuation.
    """
    probs = _joint_probabilities(result, det_ab, setting.theta_alice, setting.theta_bob)
    p_double_alice = sum(probs[("both", kb)] for kb in _PATTERNS)
    p_double_bob = sum(probs[(ka, "both")] for ka in _PATTERNS)
    return CoincidenceTable(
        theta_alice=setting.theta_alice,
        theta_bob=setting.theta_bob,
        basis_label=setting.basis_label,
        p_hh=probs[("h", "h")],
        p_hv=probs[("h", "v")],
        p_vh=probs[("v", "h")],
        p_vv=probs[("v", "v")],
        p_double_alice=p_double_alice,
        p_double_bob=p_double_bob,
        herald_probability=result.herald_probability,
    )


@lru_cache(maxsize=16)
def _rotation_eigensystem(n_max: int) -> Tuple[np.ndarray, ...]:
    """Eigensystem of the polarization-rotation generator on complete photon-number blocks.

    The generator i(a^dag b - a b^dag) conserves n1+n2, and on every complete
    block n1+n2 = N its eigenvalues are the integers -N, -N+2, .., N.  Bob's
    operators live on n1, n2 <= n_max, so the blocks N <= 2*n_max carry all
    of the angle dependence; blocks cut by a finite embedding are never
    touched, so no eigenvector can mix them in.

    Returns (integer eigenvalues, eigenvectors, positions of the n1, n2 <=
    n_max states in pair-flattened order, and the n1, n2 occupations of the
    basis states).
    """
    n_total = 2 * n_max
    a = annihilation_matrix(n_total + 1)
    generator = 1j * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    n1, n2 = np.divmod(np.arange((n_total + 1) ** 2), n_total + 1)
    keep = np.flatnonzero(n1 + n2 <= n_total)
    w, v = np.linalg.eigh(generator[np.ix_(keep, keep)])
    w_int = np.rint(w)
    if np.abs(w - w_int).max() > 1e-9:
        raise ArithmeticError("rotation generator has non-integer eigenvalues on complete blocks")
    n1, n2 = n1[keep], n2[keep]
    sub = np.flatnonzero((n1 <= n_max) & (n2 <= n_max))
    return w_int.astype(int), v, sub, n1, n2


def _bob_angle_curve(
    result,
    det_ab: ThresholdDetector,
    theta_alice: float,
    pattern_alice: str = "h",
    pattern_bob: str = "h",
) -> Callable[[np.ndarray], np.ndarray]:
    """Coincidence probability as a function of Bob's analyzer angle.

    Contracting Alice's POVM first leaves an operator M on Bob's pair space.
    In the eigenbasis of the rotation generator, p(theta) = tr[M U(theta)^dag
    W U(theta)] = sum_pq K[p,q] exp(i theta (w_q - w_p)) with integer
    eigenvalues w, so the terms group into a Fourier series
    p(theta) = Re sum_f C_f exp(i f theta) with |f| <= 4*n_max.
    """
    n_max = result.n_max
    ea = _analyzer_povms(n_max, det_ab.eta, det_ab.p_dc, float(theta_alice))[pattern_alice]
    m = _bob_operator(result, ea)

    w, v, sub, n1, n2 = _rotation_eigensystem(n_max)
    wc = det_ab.weight_vector(True, 2 * n_max)
    wn = det_ab.weight_vector(False, 2 * n_max)
    w_pattern = {
        "h": wc[n1] * wn[n2],
        "v": wn[n1] * wc[n2],
        "both": wc[n1] * wc[n2],
        "none": wn[n1] * wn[n2],
    }[pattern_bob]

    v_sub = v[sub]
    a = v_sub.conj().T @ m @ v_sub
    c = (v.conj().T * w_pattern[None, :]) @ v
    k = (a * c.T).reshape(-1)
    f_max = 4 * n_max
    bins = (w[None, :] - w[:, None] + f_max).reshape(-1)  # w_q - w_p, shifted to >= 0
    n_bins = 2 * f_max + 1
    coeffs = np.bincount(bins, k.real, n_bins) + 1j * np.bincount(bins, k.imag, n_bins)
    freqs = np.arange(-f_max, f_max + 1)

    def evaluate(thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return np.real(np.exp(1j * np.outer(thetas, freqs)) @ coeffs)

    return evaluate


@dataclass(frozen=True)
class VisibilityScan:
    """Extrema of the coincidence-vs-angle curve and the visibility they give."""

    visibility: float
    theta_alice: float
    theta_max: float
    theta_min: float
    p_max: float
    p_min: float
    grid_thetas: np.ndarray
    grid_values: np.ndarray


def visibility_scan(
    result,
    det_ab: ThresholdDetector,
    theta_alice: float = 0.0,
) -> VisibilityScan:
    """Scan Bob's analyzer angle and refine both extrema of the H-H rate.

    The curve has period pi, so the grid covers [0, pi); golden-section
    refinement shrinks each bracketed extremum to SCAN_REFINE_TOL radians.
    """
    curve = _bob_angle_curve(result, det_ab, theta_alice)
    thetas = np.linspace(0.0, math.pi, SCAN_GRID_POINTS, endpoint=False)
    values = curve(thetas)
    step = math.pi / SCAN_GRID_POINTS

    def refine(index: int, sign: float) -> Tuple[float, float]:
        center = thetas[index]
        x, fx = golden_max(
            lambda t: sign * float(curve(np.array([t]))[0]),
            center - step,
            center + step,
            SCAN_REFINE_TOL,
        )
        return x % math.pi, sign * fx

    theta_max, p_max = refine(int(np.argmax(values)), 1.0)
    theta_min, p_min = refine(int(np.argmin(values)), -1.0)
    p_max = max(p_max, 0.0)
    p_min = max(p_min, 0.0)
    if p_max + p_min <= 0.0:
        raise UndefinedVisibilityError(
            "coincidence rate vanishes at every analyzer angle; visibility undefined"
        )
    vis = (p_max - p_min) / (p_max + p_min)
    return VisibilityScan(
        visibility=vis,
        theta_alice=theta_alice,
        theta_max=theta_max,
        theta_min=theta_min,
        p_max=p_max,
        p_min=p_min,
        grid_thetas=thetas,
        grid_values=values,
    )


def visibility(result, det_ab: ThresholdDetector, theta_alice: float = 0.0) -> float:
    """(Max - Min)/(Max + Min) of the four-fold coincidence rate."""
    return visibility_scan(result, det_ab, theta_alice).visibility


@dataclass(frozen=True)
class QberReport:
    """Direct error fraction plus the (1 - V)/2 consistency value.

    qber pools wrong and total coincidences over the two key bases; qber_z
    and qber_x are the per-basis fractions.  visibility is the fringe
    visibility averaged over the same two bases, so qber_from_v and qber
    track each other even when the bases disagree slightly.  All underlying
    counts stay available through the two tables.
    """

    qber: float
    qber_z: float
    qber_x: float
    qber_from_v: float
    visibility: float
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


def qber(result, det_ab: ThresholdDetector, compute_visibility: bool = True) -> QberReport:
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
    qber_direct = wrong / total
    qber_z = table_z.p_wrong / table_z.p_coincidence if table_z.p_coincidence > 0 else float("nan")
    qber_x = table_x.p_wrong / table_x.p_coincidence if table_x.p_coincidence > 0 else float("nan")
    if compute_visibility:
        # fringe visibility per key basis; the mean is the value that pairs
        # with the pooled error fraction via QBER = (1 - V)/2
        vis_z = visibility(result, det_ab, theta_alice=Z_BASIS.theta_alice)
        vis_x = visibility(result, det_ab, theta_alice=X_BASIS.theta_alice)
        vis = 0.5 * (vis_z + vis_x)
        qber_from_v = 0.5 * (1.0 - vis)
    else:
        vis = float("nan")
        qber_from_v = float("nan")
    return QberReport(
        qber=qber_direct,
        qber_z=qber_z,
        qber_x=qber_x,
        qber_from_v=qber_from_v,
        visibility=vis,
        table_z=table_z,
        table_x=table_x,
    )


def fidelity_visibility(fidelity: float) -> float:
    """Visibility of a Bell-diagonal isotropic state with Bell fraction F."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity {fidelity!r} outside [0, 1]")
    return (4.0 * fidelity - 1.0) / 3.0


def chsh(vis: float) -> float:
    """CHSH parameter reachable with visibility V: S = 2 sqrt(2) V."""
    if not 0.0 <= vis <= 1.0:
        raise ValueError(f"visibility {vis!r} outside [0, 1]")
    return 2.0 * math.sqrt(2.0) * vis


def embed_qubit_pair(rho_qubits: np.ndarray, n_max: int, herald: float = 1.0) -> ConditionalState:
    """Lift a two-qubit polarization density matrix onto the Fock register.

    Qubit basis order (HH, HV, VH, VV); H means one photon in the H mode of
    that side.  Useful for feeding textbook states (Werner, maximally mixed)
    through the same coincidence machinery as simulated swap output.
    """
    rho_qubits = np.asarray(rho_qubits, dtype=complex)
    if rho_qubits.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit density matrix")
    d = n_max + 1
    if d < 2:
        raise ValueError("need n_max >= 1 to hold one photon per side")
    occmap = []
    for s_a in (0, 1):
        for s_b in (0, 1):
            occ = (1 - s_a, s_a, 1 - s_b, s_b)
            occmap.append(np.ravel_multi_index(occ, (d, d, d, d)))
    rho = np.zeros((d**4, d**4), dtype=complex)
    for r in range(4):
        for c in range(4):
            rho[occmap[r], occmap[c]] = rho_qubits[r, c] * herald
    return ConditionalState(labels=("aH", "aV", "dH", "dV"), n_max=n_max, rho=rho, herald_probability=herald)
