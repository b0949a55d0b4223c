"""Truncated Fock-space primitives.

Every mode carries occupations 0..n_max (TruncationPolicy).  Every passive
two-mode optic in the link (the BSM beamsplitters, the polarization
analyzers) is a rotation generated by i(a^dag b - a b^dag) followed by one
threshold detector per output.  The generator conserves n1+n2, so its
eigenvectors on each complete photon-number block N = n1+n2 <= 2*n_max
(rotation_blocks, one small eigh per block) give every such POVM element on
n1, n2 <= n_max exactly, and the Fourier coefficients of a fringe.  The
rotation's real block W_N carries every detector: the four outcomes of a
rotation and two threshold detectors (detector_pair_povms) are, block by
block, W_N diag(w1[c] w2[N-c]) W_N^T, real polynomials in 1-eta over the
outer products of W_N's rows (cached per (n_max, theta)), so a new
efficiency costs no eigen-transform.  The stacks are written straight into
the (first-mode indices) x (second-mode indices) layout in which the swap
and metrics modules contract states (block_positions), and compress cuts
such an operator down to a lower cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .detectors import ThresholdDetector
from .errors import InvalidInputError


@dataclass(frozen=True)
class TruncationPolicy:
    """Per-mode occupation cutoff and the tolerance used for convergence checks."""

    n_max: int = 4
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise InvalidInputError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        if not (0.0 < self.convergence_tol < 1.0):
            raise InvalidInputError(
                f"convergence_tol must be in (0, 1), got {self.convergence_tol!r}"
            )

    @property
    def dim(self) -> int:
        return self.n_max + 1


DEFAULT_POLICY = TruncationPolicy()


def annihilation_matrix(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


@lru_cache(maxsize=16)
def rotation_blocks(n_max: int) -> np.ndarray:
    """Eigenvectors of the two-mode rotation generator, one photon-number block at a time.

    The generator i(a^dag b - a b^dag) conserves n1+n2 = N, and on every
    complete block N <= 2*n_max, the blocks that carry all of the angle
    dependence of the pair operators on n1, n2 <= n_max, it is an
    (N+1)-square tridiagonal matrix with the integer eigenvalues -N, -N+2,
    .., N.  Returns V[N, n1, p], the component on |n1, N-n1> of eigenvector
    p, whose eigenvalue is -N + 2p, zero-padded to (2*n_max+1)^3.
    Read-only, since every caller shares it.
    """
    k = 2 * n_max + 1
    v = np.zeros((k, k, k), dtype=complex)
    for n in range(k):
        # <n1+1, N-n1-1| generator |n1, N-n1> = i sqrt((n1+1)(N-n1))
        lower = 1j * np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0, -1))
        w, v[n, : n + 1, : n + 1] = np.linalg.eigh(np.diag(lower, -1) + np.diag(lower.conj(), 1))
        if np.abs(w - np.arange(-n, n + 1, 2)).max() > 1e-9:
            raise ArithmeticError(f"rotation generator block {n} has non-integer eigenvalues")
    v.flags.writeable = False
    return v


@lru_cache(maxsize=16)
def block_positions(n_max: int) -> np.ndarray:
    """Flat positions, in a realigned pair operator, of its photon-number blocks.

    Block N of M[(n1,n2),(m1,m2)] is B[N, n1, m1] = M[(n1,N-n1),(m1,N-m1)],
    which the realigned R[(n1,m1),(n2,m2)] holds at ((n1 d + m1) d + N-n1) d
    + N-m1, d = n_max + 1, or at d^4, one past the end, where an occupation
    falls outside 0..n_max.  Read-only, since every caller shares it.
    """
    d = n_max + 1
    n, n1, m1 = np.indices((2 * n_max + 1,) * 3)
    occupations = np.stack((n1, m1, n - n1, n - m1))
    inside = ((occupations >= 0) & (occupations <= n_max)).all(axis=0)
    positions = np.where(inside, ((n1 * d + m1) * d + n - n1) * d + n - m1, d**4)
    positions.flags.writeable = False
    return positions


@lru_cache(maxsize=16)
def _povm_basis(n_max: int, theta: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every in-range block entry of a rotation by theta's detector stack.

    Per photon-number block, the rotation is W_N = Re(V_N diag(e^{i theta
    w}) V_N^dag) over rotation_blocks, w = -N + 2p.  Creation operators
    transform as a1+ -> cos(t) a1+ - sin(t) a2+, a2+ -> sin(t) a1+ +
    cos(t) a2+; theta = pi/4 is a balanced beamsplitter.  The rotation
    exp(theta (a^dag b - a b^dag)) is real orthogonal, so W_N is real (its
    imaginary parts are rounding noise).  Followed by detectors with
    weights w1 and w2 on its outputs, its element has the block entries
    B[N, n1, m1] = sum_c P[l, c] w1[c] w2[N-c] with P[l, c] = W_N[n1, c]
    W_N[m1, c], exactly symmetric in n1 <-> m1 and zero for c > N.  Returns
    (N, realigned flat position, P) per entry l = (N, n1, m1) with all of
    n1, m1, N-n1, N-m1 in 0..n_max (block_positions).  Read-only, since
    every caller shares them.
    """
    positions = block_positions(n_max)
    n, n1, m1 = np.nonzero(positions < (n_max + 1) ** 4)
    v = rotation_blocks(n_max)
    k = 2 * n_max + 1
    w = 2 * np.arange(k) - np.arange(k)[:, None]  # w[N, p] = -N + 2p
    blocks = np.real((v * np.exp(1j * theta * w)[:, None, :]) @ v.conj().swapaxes(1, 2))
    out = (n, positions[n, n1, m1], blocks[n, n1] * blocks[n, m1])
    for a in out:
        a.flags.writeable = False
    return out


def detector_pair_povms(n_max: int, thetas: Sequence[float], det: ThresholdDetector) -> np.ndarray:
    """The four outcomes of a rotation followed by det on each output, per angle.

    Returns the real realigned stacks [len(thetas), 4, (n_max+1)^2,
    (n_max+1)^2] of [only the first output clicks, only the second, both,
    neither]: R[(n1,m1),(n2,m2)] = E[(n1,n2),(m1,m2)], the operator-Schmidt
    layout in which the swap and metrics modules contract states.  Each
    block entry is sum_c P[l, c] w1[c] w2[N-c] over _povm_basis, with det's
    click or no-click weights w1 and w2 on the two outputs, scattered into
    zeros.  The detector enters only through its weights, whose no-click
    weight q x^n (q = 1-p_dc, x = 1-eta) makes each element a polynomial
    in x over a basis fixed by (n_max, theta).  So a new efficiency costs
    no eigen-transform, and no element is formed as a difference of nearly
    equal terms.
    """
    bases = [_povm_basis(n_max, float(theta)) for theta in thetas]
    n, positions = bases[0][:2]
    k = 2 * n_max + 1
    w = np.stack([det.weight_vector(True, k - 1), det.weight_vector(False, k - 1)])
    # q[a, N, c] = w1[c] w2[N-c] per outcome; c > N wraps onto a zero of P
    q = w[[0, 1, 0, 1], None, :] * w[[1, 0, 0, 1]][:, np.arange(k)[:, None] - np.arange(k)]
    values = np.einsum("tlc,alc->tal", np.stack([b[2] for b in bases]), q[:, n])
    out = np.zeros((len(bases), 4, (n_max + 1) ** 4))
    out[..., positions] = values
    return out.reshape(len(bases), 4, (n_max + 1) ** 2, (n_max + 1) ** 2)


def compress(op: np.ndarray, n_max: int) -> np.ndarray:
    """Realigned operators R[..., (i,I), (j,J)] restricted to occupations 0..n_max.

    Each of the four occupation indices is cut to 0..n_max.  The engine's
    POVMs and pair factors are exact compressions of untruncated operators,
    so for them the result equals the operator built at cutoff n_max.
    Leading axes are kept.
    """
    d = math.isqrt(op.shape[-1])
    keep = slice(0, n_max + 1)
    r = op.reshape(op.shape[:-2] + (d, d, d, d))[..., keep, keep, keep, keep]
    return r.reshape(op.shape[:-2] + ((n_max + 1) ** 2,) * 2)
