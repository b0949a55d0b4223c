"""Truncated Fock-space primitives.

Every mode carries occupations 0..n_max (TruncationPolicy).  Every passive
two-mode optic in the link (the BSM beamsplitters, the polarization
analyzers) is a rotation generated by i(a^dag b - a b^dag) followed by one
threshold detector per output.  The generator conserves n1+n2, so its
eigenvectors on each complete photon-number block N = n1+n2 <= 2*n_max
(rotation_blocks, one small eigh per block) give every such POVM element on
n1, n2 <= n_max exactly, and the Fourier coefficients of a fringe.  The
rotation itself is a real orthogonal matrix W from complete-block states to
pair states (rotation_matrix, cached per (n_max, theta)), built block by
block, and it carries every detector: the four outcomes of a rotation and
two threshold detectors (detector_pair_povms) are W diag(w1[n1] w2[n2]) W^T,
real polynomials in 1-eta over it, so a new efficiency costs no
eigen-transform.  realign puts a pair operator in the (first-mode indices)
x (second-mode indices) layout in which the swap and metrics modules
contract states, and compress cuts a realigned operator down to a lower
cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

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


def _block_states(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Occupations n1, n2 of the complete-block states n1+n2 <= 2*n_max, n1 major."""
    n1, n2 = np.divmod(np.arange((2 * n_max + 1) ** 2), 2 * n_max + 1)
    keep = n1 + n2 <= 2 * n_max
    return n1[keep], n2[keep]


@lru_cache(maxsize=16)
def rotation_matrix(n_max: int, theta: float) -> np.ndarray:
    """The rotation by theta from complete-block states to pair states.

    Per photon-number block, W_N = Re(V_N[pair rows] diag(e^{i theta w})
    V_N^dag) over rotation_blocks: a rotation by theta followed by detectors
    with weights w1 and w2 on its outputs has the element
    W diag(w1[n1] w2[n2]) W^T on n1, n2 <= n_max.  Rows run over the pair
    states in pair-flattened order, columns over the complete-block states
    (_block_states).  Creation operators transform as
    a1+ -> cos(t) a1+ - sin(t) a2+, a2+ -> sin(t) a1+ + cos(t) a2+; theta =
    pi/4 is a balanced beamsplitter.  The rotation exp(theta (a^dag b -
    a b^dag)) is real orthogonal, so W is real (its imaginary parts are
    rounding noise), and it maps the complete-block state (n1, n2) only onto
    pair states with the same n1+n2, so entries across blocks are exactly 0.
    Read-only, since every caller shares it.
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


def detector_pair_povms(n_max: int, theta: float, det: ThresholdDetector) -> np.ndarray:
    """The four outcomes of a rotation by theta followed by det on each output.

    Returns the real stack [only the first output clicks, only the second,
    both, neither], each W diag(w1[n1] w2[n2]) W^T over rotation_matrix,
    with det's click or no-click weights w1 and w2 on the two outputs.  The
    detector enters only through its weights, whose no-click weight q x^n
    (q = 1-p_dc, x = 1-eta) makes each element a polynomial in x over a
    basis fixed by (n_max, theta).  So a new efficiency costs no
    eigen-transform, and no element is formed as a difference of nearly
    equal terms.
    """
    wmat = rotation_matrix(n_max, float(theta))
    n1, n2 = _block_states(n_max)
    click, silent = det.weight_vector(True, 2 * n_max), det.weight_vector(False, 2 * n_max)
    w1 = np.stack([click, silent, click, silent])[:, n1]
    w2 = np.stack([silent, click, click, silent])[:, n2]
    out = (wmat * (w1 * w2)[:, None, :]) @ wmat.T
    return 0.5 * (out + out.swapaxes(1, 2))


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
