"""Dense eight-mode reference for the entanglement swap.

The literal pipeline, kept for tests only: both sources as one pure amplitude
tensor on (aH aV bH bV cH cV dH dV), passive mixers applied to it mode pair
by mode pair, and a photon-number-diagonal POVM conditioning that leaves an
unnormalized density operator on the surviving modes.  It costs
O((n_max+1)^8) in time and memory, which is why the package contracts pair
tensors instead (swapkd.swap); the tests compare the two.  The reference
lists the four accepted heralds itself (HERALDS), so a wrong herald in the
engine cannot also be wrong here.  Textbook states
(singlet, Werner) are built here as dense ConditionalStates too, and enter
the package's metrics as pair factors (pair_factors); dense_probabilities
contracts a dense state with the analyzer POVMs directly.  Its POVMs come
from rotated_pair_povm with the detector's click weights (mixer_povm,
analyzer_povms), independent of the engine's real rotation blocks
(fock.detector_pair_povms).  dense_pair_povms builds the engine's stacks
the dense way, over the whole real rotation matrix (rotation_matrix), and
realigns them (realign).  sector_table cuts the engine's analyzer POVMs
into photon-number blocks by masks and contracts them densely: the
reference for the engine's contraction over photon-difference blocks.

A mixer is evaluated on an occupancy embedding with per-mode cutoff 2*n_max,
where every block reachable from the input is complete, and projected back;
the dropped weight is tracked as leakage and raises TruncationError when it
exceeds the policy tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from swapkd.detectors import ThresholdDetector
from swapkd.errors import TruncationError
from swapkd.fock import DEFAULT_POLICY, TruncationPolicy, annihilation_matrix, rotation_blocks
from swapkd.metrics import _OUTCOMES, _bob_operators, _joint_probabilities
from swapkd.sources import CHI_CAP, pair_amplitudes
from swapkd.swap import SwapResult, bsm_detector

MODE_ORDER = ("aH", "aV", "bH", "bV", "cH", "cV", "dH", "dV")
SURVIVING_MODES = ("aH", "aV", "dH", "dV")

# The accepted heralds of the linear-optics BSM: exactly one H and one V
# detector click.  Clicks on (b'H, b'V, c'H, c'V), and whether the herald is
# psi+ (else psi-).
HERALDS = (
    ((True, False, False, True), False),  # b'H c'V: psi-
    ((False, True, True, False), False),  # b'V c'H: psi-
    ((True, True, False, False), True),  # b'H b'V: psi+
    ((False, False, True, True), True),  # c'H c'V: psi+
)

WeightFn = Union[Callable[[tuple], float], np.ndarray]


# ---------------------------------------------------------------------------
# dense conditional states


class UndefinedStateError(RuntimeError):
    """Operation needs a normalizable conditional state (herald probability > 0)."""


@dataclass
class ConditionalState:
    """Unnormalized density operator on the surviving modes after conditioning.

    trace(rho) equals the herald probability of the conditioning outcome.
    """

    labels: tuple
    n_max: int
    rho: np.ndarray
    herald_probability: float

    def __post_init__(self):
        self.labels = tuple(self.labels)
        dim = (self.n_max + 1) ** len(self.labels)
        if self.rho.shape != (dim, dim):
            raise ValueError(f"rho shape {self.rho.shape} != ({dim}, {dim})")

    def validate(self, atol: float = 1e-10) -> None:
        """Assert hermiticity, positivity up to -1e-12, and trace==herald."""
        h = np.abs(self.rho - self.rho.conj().T).max()
        if h > atol:
            raise AssertionError(f"rho not hermitian: max asymmetry {h:.3e}")
        tr = float(np.trace(self.rho).real)
        if abs(tr - self.herald_probability) > atol * max(1.0, abs(tr)):
            raise AssertionError(f"trace {tr!r} != herald {self.herald_probability!r}")
        eigmin = float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())
        if eigmin < -1e-12 * max(1.0, tr):
            raise AssertionError(f"rho not positive: min eigenvalue {eigmin:.3e}")

    def normalized_rho(self) -> np.ndarray:
        if self.herald_probability <= 0.0:
            raise UndefinedStateError("herald probability is zero; state undefined")
        return self.rho / self.herald_probability


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
    return ConditionalState(labels=SURVIVING_MODES, n_max=n_max, rho=rho, herald_probability=herald)


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


def pair_factors(cond: ConditionalState) -> SwapResult:
    """A dense state on (aH, aV, dH, dV) as the engine's pair factors.

    The operator-Schmidt decomposition: rho[(ijkl),(IJKL)] realigned as a
    matrix over H-pair indices (i,I,k,K) against V-pair indices (j,J,l,L),
    then its SVD, keeping singular values above 1e-14 of the largest.
    """
    d = cond.n_max + 1
    m = cond.rho.reshape((d,) * 8).transpose(0, 4, 2, 6, 1, 5, 3, 7).reshape(d**4, d**4)
    u, s, vh = np.linalg.svd(m)
    keep = s > 1e-14 * max(s[0], 1e-300)
    th = (u[:, keep] * s[keep]).T.reshape(-1, d * d, d * d)
    tv = vh[keep].reshape(-1, d * d, d * d)
    return SwapResult(th, tv, cond.n_max, cond.herald_probability)


@lru_cache(maxsize=16)
def rotation_eigensystem(n_max: int):
    """Eigensystem of the two-mode rotation generator on all complete
    photon-number blocks at once: one eigh of the whole generator.

    The generator i(a^dag b - a b^dag) conserves n1+n2, and on every complete
    block n1+n2 = N its eigenvalues are the integers -N, -N+2, .., N; blocks
    N <= 2*n_max carry all of the angle dependence of pair operators on
    n1, n2 <= n_max.  Degenerate eigenvalues let an eigenvector mix blocks,
    which no formula here depends on.  The independent reference for
    fock.rotation_blocks, which builds one block at a time.

    Returns (integer eigenvalues, eigenvectors, positions of the n1, n2 <=
    n_max states in pair-flattened order, and the n1, n2 occupations of the
    basis states).
    """
    n_total = 2 * n_max
    a = annihilation_matrix(n_total + 1)
    ad = a.conj().T
    n1, n2 = np.divmod(np.arange((n_total + 1) ** 2), n_total + 1)
    keep = n1 + n2 <= n_total
    n1, n2 = n1[keep], n2[keep]
    r1, c1, r2, c2 = n1[:, None], n1[None, :], n2[:, None], n2[None, :]
    # kron(x, y)[(n1, n2), (m1, m2)] = x[n1, m1] y[n2, m2], on the kept states only
    generator = 1j * (ad[r1, c1] * a[r2, c2] - a[r1, c1] * ad[r2, c2])
    w, v = np.linalg.eigh(generator)
    w_int = np.rint(w)
    if np.abs(w - w_int).max() > 1e-9:
        raise ArithmeticError("rotation generator has non-integer eigenvalues on complete blocks")
    sub = np.flatnonzero((n1 <= n_max) & (n2 <= n_max))
    return w_int.astype(int), v, sub, n1, n2


def _block_states(n_max: int):
    """Occupations n1, n2 of the complete-block states n1+n2 <= 2*n_max, n1 major."""
    n1, n2 = np.divmod(np.arange((2 * n_max + 1) ** 2), 2 * n_max + 1)
    keep = n1 + n2 <= 2 * n_max
    return n1[keep], n2[keep]


@lru_cache(maxsize=16)
def rotation_matrix(n_max: int, theta: float) -> np.ndarray:
    """The dense real rotation by theta from complete-block states to pair states.

    Rows run over the pair states n1, n2 <= n_max in pair-flattened order,
    columns over the complete-block states (_block_states).  Block N is
    W_N = Re(V_N diag(e^{i theta w}) V_N^dag) over fock.rotation_blocks,
    placed where the row's and the column's photon numbers agree; entries
    across blocks are exactly 0.  Read-only, since every caller shares it.
    """
    v = rotation_blocks(n_max)
    k = 2 * n_max + 1
    w = 2 * np.arange(k) - np.arange(k)[:, None]  # w[N, p] = -N + 2p
    blocks = np.real((v * np.exp(1j * theta * w)[:, None, :]) @ v.conj().swapaxes(1, 2))
    i, j = np.divmod(np.arange((n_max + 1) ** 2), n_max + 1)
    n1, n2 = _block_states(n_max)
    wmat = np.where((i + j)[:, None] == n1 + n2, blocks[n1 + n2, i[:, None], n1], 0.0)
    wmat.flags.writeable = False
    return wmat


def realign(op: np.ndarray) -> np.ndarray:
    """Pair operators E[..., (I,J), (i,j)] realigned as R[..., (i,I), (j,J)].

    Rows run over the first mode's occupation pairs (i, I), columns over the
    second mode's (j, J): the operator-Schmidt layout, in which a product of
    single-mode operators is an outer product.  Leading axes are kept.
    """
    d = math.isqrt(op.shape[-1])
    r = op.reshape(op.shape[:-2] + (d, d, d, d))
    r = np.moveaxis(r, (-2, -4, -1, -3), (-4, -3, -2, -1))
    return r.reshape(op.shape)


def pair_layout(r: np.ndarray) -> np.ndarray:
    """Realigned operators R[..., (n1,m1), (n2,m2)], as fock.detector_pair_povms
    returns them, back in the pair layout E[..., (n1,n2), (m1,m2)]."""
    d = math.isqrt(r.shape[-1])
    return r.reshape(r.shape[:-2] + (d, d, d, d)).swapaxes(-3, -2).reshape(r.shape)


def dense_pair_povms(n_max: int, theta: float, det: ThresholdDetector) -> np.ndarray:
    """The four outcomes of fock.detector_pair_povms at one angle, built densely:
    realign(W diag(w1[n1] w2[n2]) W^T) over rotation_matrix."""
    wmat = rotation_matrix(n_max, float(theta))
    n1, n2 = _block_states(n_max)
    click, silent = det.weight_vector(True, 2 * n_max), det.weight_vector(False, 2 * n_max)
    w1 = np.stack([click, silent, click, silent])[:, n1]
    w2 = np.stack([silent, click, click, silent])[:, n2]
    return realign((wmat * (w1 * w2)[:, None, :]) @ wmat.T)


def rotation_basis_weights(n_max: int, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """C = V^dag diag(w1[n1] * w2[n2]) V: two detectors' outcome weights in the
    eigenbasis of rotation_eigensystem.  w1 and w2 run over occupations 0..2*n_max."""
    _, v, _, n1, n2 = rotation_eigensystem(n_max)
    return (v.conj().T * (w1[n1] * w2[n2])[None, :]) @ v


def dense_fringe(result: SwapResult, ra: np.ndarray, det: ThresholdDetector):
    """(c0, g) of the (h, h) fringe in Bob's angle, from the whole-generator
    eigenbasis: K[p,q] = A[p,q] C[q,p] with A = V^dag M V over the pair
    states and C from rotation_basis_weights, binned by w_q - w_p.  The
    dense counterpart of metrics._fringe, with Alice's realigned stack ra."""
    n_max = result.n_max
    d = n_max + 1
    m = _bob_operators(result, ra[:1])[0].reshape(d, d, d, d)
    m = m.transpose(0, 2, 1, 3).reshape(d * d, d * d)  # [(k,l),(K,L)]
    w, v, sub, _, _ = rotation_eigensystem(n_max)
    c = rotation_basis_weights(
        n_max, det.weight_vector(True, 2 * n_max), det.weight_vector(False, 2 * n_max)
    )
    k = ((v[sub].conj().T @ m @ v[sub]) * c.T).reshape(-1)
    f_max = 4 * n_max
    bins = (w[None, :] - w[:, None] + f_max).reshape(-1)  # w_q - w_p, shifted to >= 0
    n_bins = 2 * f_max + 1
    coeffs = np.bincount(bins, k.real, n_bins) + 1j * np.bincount(bins, k.imag, n_bins)
    folded = coeffs[f_max + 1 :] + coeffs[f_max - 1 :: -1].conj()  # C_f + conj(C_-f), f >= 1
    return coeffs[f_max].real, folded[1::2]


def rotated_pair_povm(n_max: int, theta: float, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """POVM element of a two-mode rotation by theta followed by one detector per output.

    E = U(theta)^dag diag(w1[n1] * w2[n2]) U(theta) on n1, n2 <= n_max, in
    pair-flattened order, with U(theta) = V diag(e^{-i theta w}) V^dag; the
    rotation conserves n1+n2, so E = P C P^dag with P = V[sub] diag(e^{i theta w})
    and C = rotation_basis_weights is exact.  Complex throughout, unlike
    the engine's real fock.detector_pair_povms.
    """
    w, v, sub, _, _ = rotation_eigensystem(n_max)
    p = v[sub] * np.exp(1j * theta * w)[None, :]
    e = p @ rotation_basis_weights(n_max, w1, w2) @ p.conj().T
    return 0.5 * (e + e.conj().T)


def mixer_povm(
    n_max: int, theta: float, det: ThresholdDetector, click1: bool, click2: bool
) -> np.ndarray:
    """A rotation by theta, then det on each output with the demanded clicks."""
    w1, w2 = (det.weight_vector(click, 2 * n_max) for click in (click1, click2))
    return rotated_pair_povm(n_max, theta, w1, w2)


def analyzer_povms(n_max: int, det: ThresholdDetector, theta: float) -> dict:
    """{outcome: POVM element} of one analyzer, for the outcomes of metrics._OUTCOMES."""
    return {key: mixer_povm(n_max, theta, det, *clicks) for key, clicks in _OUTCOMES.items()}


def dense_probabilities(cond: ConditionalState, det: ThresholdDetector, theta_alice, theta_bob):
    """{(Alice outcome, Bob outcome): tr[rho (E_A (x) E_B)]}, contracted on the dense rho."""
    d2 = (cond.n_max + 1) ** 2
    rho4 = cond.rho.reshape(d2, d2, d2, d2)
    ea = analyzer_povms(cond.n_max, det, theta_alice)
    eb = analyzer_povms(cond.n_max, det, theta_bob)
    probs = {}
    for ka in _OUTCOMES:
        half = np.einsum("abAB,Aa->bB", rho4, ea[ka])
        for kb in _OUTCOMES:
            probs[(ka, kb)] = float(np.real(np.einsum("bB,Bb->", half, eb[kb])))
    return probs


def sector_table(result: SwapResult, povms_a: np.ndarray, povms_b: np.ndarray) -> np.ndarray:
    """Coincidences p[a, N_A, b, N_B] for the h/v outcomes a, b of Alice's and
    Bob's realigned outcome stacks povms_a and povms_b, by masked POVMs.

    The reference for metrics._sector_table: each analyzer element is cut
    into its blocks I+J = i+j = N by a mask, and all of them go through the
    engine's dense realigned contraction (metrics._joint_probabilities).  It
    assumes no block structure of the pair factors.
    """
    n_blocks = 2 * result.n_max + 1
    d2 = (result.n_max + 1) ** 2
    occ = np.add.outer(np.arange(result.n_max + 1), np.arange(result.n_max + 1)).reshape(-1)
    sel = occ[None, :] == np.arange(n_blocks)[:, None]
    blocks = realign(sel[:, :, None] & sel[:, None, :])  # N block: I+J = i+j = N
    ra, rb = (
        (povms[:2, None] * blocks).reshape(-1, d2, d2)
        for povms in (povms_a, povms_b)
    )
    return _joint_probabilities(result, ra, rb).reshape(2, n_blocks, 2, n_blocks)


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


@lru_cache(maxsize=64)
def _mixer_eig(dim: int, phase: float):
    """Eigensystem of H = i*(e^{i phase} a^dag b - e^{-i phase} a b^dag) on a dim x dim pair.

    The mixer exp(theta*(e^{i phase} a^dag b - h.c.)) is then V diag(e^{-i theta w}) V^dag.
    """
    a = annihilation_matrix(dim)
    adag = a.conj().T
    k = np.exp(1j * phase) * np.kron(adag, a) - np.exp(-1j * phase) * np.kron(a, adag)
    w, v = np.linalg.eigh(1j * k)
    return w, v


def pair_mixer_unitary(dim: int, theta: float, phase: float = 0.0) -> np.ndarray:
    """Exact number-conserving mixer on the flattened (mode1, mode2) pair space.

    Creation operators transform as a1+ -> cos(t) a1+ - e^{-i phase} sin(t) a2+,
    a2+ -> e^{i phase} sin(t) a1+ + cos(t) a2+.  Built on the full dim x dim
    pair space, so the engine's complete-block POVMs can be checked against it.
    """
    w, v = _mixer_eig(dim, float(phase))
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


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
    clicks: Sequence[bool],
) -> ConditionalState:
    """Run the BSM on an eight-mode register; no psi+ frame correction.

    Applies balanced mixers to (bH, cH) and (bV, cV), then conditions on the
    click pattern of the detectors (b'H, b'V, c'H, c'V).
    """
    s = apply_two_mode_mixer(state, "bH", "cH", math.pi / 4.0)
    s = apply_two_mode_mixer(s, "bV", "cV", math.pi / 4.0)
    # Measured in order (bH, bV, cH, cV) = detectors (b'H, b'V, c'H, c'V).
    w = pattern_weight_table([det_bsm] * 4, clicks, s.n_max)
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
    for clicks, psi_plus in HERALDS:
        cond = perform_bsm(state, det, clicks)
        if correction and psi_plus:
            cond = apply_psi_plus_correction(cond)
        herald += cond.herald_probability
        total = cond.rho if total is None else total + cond.rho
    return ConditionalState(SURVIVING_MODES, policy.n_max, total, herald)


def dense_state(result: SwapResult) -> ConditionalState:
    """The engine's heralded state as a dense matrix: sum_p th_p (x) tv_p."""
    d = result.n_max + 1
    th = result.th.reshape((-1,) + (d,) * 4)  # [p, i, I, k, K]
    tv = result.tv.reshape((-1,) + (d,) * 4)  # [p, j, J, l, L]
    rho8 = np.einsum("piIkK,pjJlL->ijklIJKL", th, tv, optimize=True)
    rho = rho8.reshape(d**4, d**4)
    rho = 0.5 * (rho + rho.conj().T)
    return ConditionalState(SURVIVING_MODES, result.n_max, rho, result.herald_probability)
