"""Dense eight-mode reference for the entanglement swap.

The literal pipeline, kept for tests only: both sources as one pure amplitude
tensor on (aH aV bH bV cH cV dH dV), passive mixers applied to it mode pair
by mode pair, and a photon-number-diagonal POVM conditioning that leaves an
unnormalized density operator on the surviving modes.  It costs
O((n_max+1)^8) in time and memory, which is why the package contracts pair
tensors instead (swapkd.swap); the tests compare the two.

A mixer is evaluated on an occupancy embedding with per-mode cutoff 2*n_max,
where every block reachable from the input is complete, and projected back;
the dropped weight is tracked as leakage and raises TruncationError when it
exceeds the policy tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from swapkd.detectors import ThresholdDetector
from swapkd.errors import TruncationError, UndefinedStateError
from swapkd.fock import DEFAULT_POLICY, ConditionalState, TruncationPolicy, pair_mixer_unitary
from swapkd.sources import CHI_CAP, pair_amplitudes
from swapkd.swap import (
    PSI_PLUS,
    SURVIVING_MODES,
    HeraldPattern,
    SwapResult,
    accepted_patterns,
    bsm_detector,
)

MODE_ORDER = ("aH", "aV", "bH", "bV", "cH", "cV", "dH", "dV")

WeightFn = Union[Callable[[tuple], float], np.ndarray]


# ---------------------------------------------------------------------------
# pure states on labeled modes


@dataclass
class ModeRegister:
    """Pure state on labeled modes. Treated as immutable; ops return new registers.

    leakage accumulates the total weight dropped by cutoff projections, so
    norm_squared() + leakage stays 1 for states built from a normalized input.
    """

    labels: tuple
    policy: TruncationPolicy
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate mode labels: {self.labels}")
        want = (self.policy.dim,) * len(self.labels)
        if tuple(self.amplitudes.shape) != want:
            raise ValueError(f"amplitude tensor shape {self.amplitudes.shape} != {want}")

    @property
    def n_max(self) -> int:
        return self.policy.n_max

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode label {label!r}; have {self.labels}") from None

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def vacuum(labels: Sequence[str], policy: TruncationPolicy = DEFAULT_POLICY) -> ModeRegister:
    labels = tuple(labels)
    amp = np.zeros((policy.dim,) * len(labels), dtype=complex)
    amp[(0,) * len(labels)] = 1.0
    return ModeRegister(labels, policy, amp)


def bell_psi_minus(policy: TruncationPolicy, labels=SURVIVING_MODES) -> ModeRegister:
    """Singlet on the surviving modes: (|HV> - |VH>)/sqrt(2) in photon occupation."""
    amp = np.zeros((policy.dim,) * 4, dtype=complex)
    amp[1, 0, 0, 1] = 1.0 / math.sqrt(2.0)
    amp[0, 1, 1, 0] = -1.0 / math.sqrt(2.0)
    return ModeRegister(tuple(labels), policy, amp)


def apply_two_mode_mixer(
    state: ModeRegister,
    mode1: str,
    mode2: str,
    theta: float,
    phase: float = 0.0,
) -> ModeRegister:
    """Mix two modes with a passive unitary; project back to n_max, tracking leakage."""
    ax1, ax2 = state.axis(mode1), state.axis(mode2)
    if ax1 == ax2:
        raise ValueError("mode1 and mode2 must differ")
    d = state.policy.dim
    dbig = 2 * state.n_max + 1

    amp = np.moveaxis(state.amplitudes, (ax1, ax2), (0, 1))
    rest_shape = amp.shape[2:]
    big = np.zeros((dbig, dbig) + rest_shape, dtype=complex)
    big[:d, :d] = amp

    u = pair_mixer_unitary(dbig, float(theta), float(phase))
    mixed = (u @ big.reshape(dbig * dbig, -1)).reshape((dbig, dbig) + rest_shape)

    kept = mixed[:d, :d]
    norm_in = float(np.vdot(amp, amp).real)
    norm_kept = float(np.vdot(kept, kept).real)
    dropped = max(norm_in - norm_kept, 0.0)
    if dropped > state.policy.convergence_tol:
        raise TruncationError(
            f"mixer dropped weight {dropped:.3e} > convergence_tol "
            f"{state.policy.convergence_tol:.3e} at n_max={state.n_max}",
            values=(norm_in, norm_kept),
        )
    out = np.moveaxis(kept, (0, 1), (ax1, ax2)).copy()
    return ModeRegister(state.labels, state.policy, out, leakage=state.leakage + dropped)


def apply_polarization_rotation(state: ModeRegister, spatial: str, theta: float) -> ModeRegister:
    """Rotate the (H, V) mode pair of one spatial channel by theta."""
    return apply_two_mode_mixer(state, f"{spatial}H", f"{spatial}V", theta)


def _weights_array(weight_fn: WeightFn, dims: tuple) -> np.ndarray:
    if isinstance(weight_fn, np.ndarray):
        w = np.asarray(weight_fn, dtype=float)
        if w.shape != dims:
            w = w.reshape(dims)
    else:
        w = np.empty(dims, dtype=float)
        for occ in np.ndindex(*dims):
            w[occ] = float(weight_fn(occ))
    if w.min() < -1e-12 or w.max() > 1.0 + 1e-12:
        raise ValueError(f"POVM weights outside [0, 1]: min {w.min()!r} max {w.max()!r}")
    return np.clip(w, 0.0, 1.0)


def condition_on_diagonal_povm(
    state: ModeRegister,
    measured: Sequence[str],
    weight_fn: WeightFn,
) -> ConditionalState:
    """Condition a pure register on a photon-number-diagonal POVM outcome.

    weight_fn gives the outcome weight in [0, 1] for each measured-mode
    occupation tuple (callable, or a precomputed array over those axes).
    Returns the unnormalized density operator on the remaining modes, whose
    trace is the herald probability.
    """
    measured = list(measured)
    axes = [state.axis(m) for m in measured]
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate measured modes: {measured}")
    if len(axes) == len(state.labels):
        raise ValueError("at least one mode must survive the conditioning")
    rest = [i for i in range(len(state.labels)) if i not in axes]
    d = state.policy.dim

    w = _weights_array(weight_fn, (d,) * len(axes))
    psi = np.transpose(state.amplitudes, rest + axes).reshape(d ** len(rest), d ** len(axes))
    rho = (psi * w.reshape(-1)) @ psi.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    herald = float(np.trace(rho).real)
    labels_rest = tuple(state.labels[i] for i in rest)
    return ConditionalState(labels_rest, state.n_max, rho, herald)


def fidelity_with_pure(cond: ConditionalState, target: ModeRegister) -> float:
    """<target| rho_normalized |target> for a pure target on the same modes."""
    if cond.labels != tuple(target.labels):
        raise ValueError(f"mode labels differ: {cond.labels} vs {target.labels}")
    if cond.n_max != target.n_max:
        raise ValueError("n_max mismatch between state and target")
    if cond.herald_probability <= 0.0:
        raise UndefinedStateError("herald probability is zero; fidelity undefined")
    v = target.amplitudes.reshape(-1)
    val = float(np.real(v.conj() @ cond.rho @ v)) / cond.herald_probability
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# sources and loss


@dataclass(frozen=True)
class PdcSource:
    """Single polarization-entangled PDC source with interaction parameter chi."""

    chi: float

    def __post_init__(self):
        if not (0.0 <= self.chi <= CHI_CAP):
            raise ValueError(f"chi must be in [0, {CHI_CAP}], got {self.chi!r}")

    @property
    def mean_pairs_per_polarization(self) -> float:
        return math.sinh(self.chi) ** 2


@dataclass(frozen=True)
class ChannelSegment:
    """Fiber segment with total loss alpha_l in dB."""

    alpha_l_db: float

    def __post_init__(self):
        if self.alpha_l_db < 0.0:
            raise ValueError(f"loss must be >= 0 dB, got {self.alpha_l_db!r}")

    @property
    def transmission(self) -> float:
        return 10.0 ** (-self.alpha_l_db / 10.0)


def effective_efficiency(eta0: float, alpha_l_db: float) -> float:
    """Detector efficiency with an upstream lossy segment folded in."""
    if not (0.0 <= eta0 <= 1.0):
        raise ValueError(f"eta0 must be in [0, 1], got {eta0!r}")
    return eta0 * ChannelSegment(alpha_l_db).transmission


def with_extra_loss(det: ThresholdDetector, transmission: float) -> ThresholdDetector:
    return ThresholdDetector(det.eta * transmission, det.p_dc)


def pdc_two_mode_state(
    source: PdcSource,
    spatial_a: str = "a",
    spatial_b: str = "b",
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> ModeRegister:
    """Four-mode register (aH, aV, bH, bV) for one source.

    Occupations are pairwise locked: amp[nH, nV, mH, mV] = c_nH c_nV when
    (mH, mV) == (nH, nV), else 0.
    """
    d = policy.dim
    c = pair_amplitudes(source.chi, policy.n_max)
    amp = np.zeros((d, d, d, d), dtype=complex)
    idx = np.arange(d)
    amp[idx[:, None], idx[None, :], idx[:, None], idx[None, :]] = c[:, None] * c[None, :]
    labels = (f"{spatial_a}H", f"{spatial_a}V", f"{spatial_b}H", f"{spatial_b}V")
    return ModeRegister(labels, policy, amp)


def two_source_state(chi: float, policy: TruncationPolicy = DEFAULT_POLICY) -> ModeRegister:
    """Tensor product of two identical sources on (aH aV bH bV cH cV dH dV)."""
    src = PdcSource(chi)
    s1 = pdc_two_mode_state(src, "a", "b", policy)
    s2 = pdc_two_mode_state(src, "c", "d", policy)
    amp = np.einsum("ijkl,mnop->ijklmnop", s1.amplitudes, s2.amplitudes)
    return ModeRegister(MODE_ORDER, policy, amp)


# ---------------------------------------------------------------------------
# detectors and the Bell-state measurement


def pattern_weight(
    detectors: Sequence[ThresholdDetector],
    clicks: Sequence[bool],
    occupation: Sequence[int],
) -> float:
    """Joint weight for one click/no-click pattern across independent detectors."""
    if not (len(detectors) == len(clicks) == len(occupation)):
        raise ValueError("detectors, clicks and occupation must have equal length")
    w = 1.0
    for det, q, n in zip(detectors, clicks, occupation):
        w *= det.click_weight(n) if q else det.no_click_weight(n)
    return float(w)


def pattern_weight_table(
    detectors: Sequence[ThresholdDetector],
    clicks: Sequence[bool],
    max_n: int,
) -> np.ndarray:
    """pattern_weight evaluated on the full occupation grid (one axis per detector)."""
    if len(detectors) != len(clicks):
        raise ValueError("detectors and clicks must have equal length")
    table = np.ones((), dtype=float)
    for det, q in zip(detectors, clicks):
        table = np.multiply.outer(table, det.weight_vector(q, max_n))
    return table


def perform_bsm(
    state: ModeRegister,
    det_bsm: ThresholdDetector,
    pattern: HeraldPattern,
) -> ConditionalState:
    """Run the BSM on an eight-mode register; no psi+ frame correction.

    Applies balanced mixers to (bH, cH) and (bV, cV), then conditions on the
    four-detector click pattern.
    """
    s = apply_two_mode_mixer(state, "bH", "cH", math.pi / 4.0)
    s = apply_two_mode_mixer(s, "bV", "cV", math.pi / 4.0)
    # Measured in order (bH, bV, cH, cV) = detectors (b'H, b'V, c'H, c'V).
    w = pattern_weight_table([det_bsm] * 4, pattern.clicks, s.n_max)
    return condition_on_diagonal_povm(s, ["bH", "bV", "cH", "cV"], w)


def apply_psi_plus_correction(cond: ConditionalState) -> ConditionalState:
    """Conjugate by the V -> -V phase plate on mode d (diagonal, exact)."""
    d = cond.n_max + 1
    parity = np.ones(d)
    parity[1::2] = -1.0
    # dV is the last of (aH, aV, dH, dV); phases factorize over the flattened index.
    phases = np.kron(np.ones(d * d * d), parity)
    rho = cond.rho * np.outer(phases, phases)
    return ConditionalState(cond.labels, cond.n_max, rho, cond.herald_probability)


def dense_swap_state(
    chi: float,
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    correction: bool = True,
) -> ConditionalState:
    """Aggregate heralded state over all accepted heralds by the literal pipeline.

    With correction, psi+ heralds are rotated into the psi- frame, as the
    engine always does; without it they are summed as measured.
    """
    state = two_source_state(chi, policy)
    det = bsm_detector(eta0, alpha_d_db, p_dc)
    total = None
    herald = 0.0
    for pattern in accepted_patterns():
        cond = perform_bsm(state, det, pattern)
        if correction and pattern.target == PSI_PLUS:
            cond = apply_psi_plus_correction(cond)
        herald += cond.herald_probability
        total = cond.rho if total is None else total + cond.rho
    return ConditionalState(SURVIVING_MODES, policy.n_max, total, herald)


def dense_state(result: SwapResult) -> ConditionalState:
    """The engine's heralded state as a dense matrix: sum_p th_p (x) tv_p."""
    d = result.n_max + 1
    total = None
    for th, tv in result.factors:
        rho8 = np.einsum("ikIK,jlJL->ijklIJKL", th, tv, optimize=True)
        rho = rho8.reshape(d ** 4, d ** 4)
        rho = 0.5 * (rho + rho.conj().T)
        total = rho if total is None else total + rho
    return ConditionalState(SURVIVING_MODES, result.n_max, total, result.herald_probability)
