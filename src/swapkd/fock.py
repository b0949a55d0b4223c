"""Truncated Fock-space primitives.

Every mode carries occupations 0..n_max (TruncationPolicy).  Every passive
two-mode optic in the link (the BSM beamsplitters, the polarization
analyzers) is a rotation generated by i(a^dag b - a b^dag) followed by one
threshold detector per output.  The generator conserves n1+n2, so its
eigensystem on the complete photon-number blocks n1+n2 <= 2*n_max
(rotation_eigensystem) gives every such POVM element on n1, n2 <= n_max
exactly, and the Fourier coefficients of a fringe.  The rotation itself is
a real orthogonal matrix W from complete-block states to pair states
(rotation_matrix, cached per (n_max, theta)), and it carries every
detector: the four outcomes of a rotation and two threshold detectors
(detector_pair_povms) are W diag(w1[n1] w2[n2]) W^T, real polynomials in
1-eta over it, so a new efficiency costs no eigen-transform.  realign puts
a pair operator in the (first-mode indices) x (second-mode indices) layout
in which the swap and metrics modules contract states, and compress cuts a
realigned operator down to a lower cutoff.
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
def rotation_eigensystem(n_max: int) -> Tuple[np.ndarray, ...]:
    """Eigensystem of the two-mode rotation generator on complete photon-number blocks.

    The generator i(a^dag b - a b^dag) conserves n1+n2, and on every complete
    block n1+n2 = N its eigenvalues are the integers -N, -N+2, .., N.  Pair
    operators live on n1, n2 <= n_max, so the blocks N <= 2*n_max carry all
    of the angle dependence; blocks cut by a finite embedding are never
    touched, so no eigenvector can mix them in.

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


def rotation_basis_weights(n_max: int, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """C = V^dag diag(w1[n1] * w2[n2]) V: two detectors' outcome weights in the
    generator's eigenbasis.  w1 and w2 run over occupations 0..2*n_max."""
    _, v, _, n1, n2 = rotation_eigensystem(n_max)
    return (v.conj().T * (w1[n1] * w2[n2])[None, :]) @ v


@lru_cache(maxsize=16)
def rotation_matrix(n_max: int, theta: float) -> np.ndarray:
    """The rotation by theta from complete-block states to pair states.

    W = V[sub] diag(e^{i theta w}) V^dag over rotation_eigensystem: a
    rotation by theta followed by detectors with weights w1 and w2 on its
    outputs has the element W diag(w1[n1] w2[n2]) W^T on n1, n2 <= n_max.
    Rows run over the pair states in pair-flattened order, columns over the
    complete-block states.  Creation operators transform as
    a1+ -> cos(t) a1+ - sin(t) a2+, a2+ -> sin(t) a1+ + cos(t) a2+; theta =
    pi/4 is a balanced beamsplitter.  The rotation exp(theta (a^dag b -
    a b^dag)) is real orthogonal, so W is real, and it maps the
    complete-block state (n1, n2) only onto pair states with the same
    n1+n2; its imaginary parts and its entries across photon-number blocks
    are rounding noise and are set to exactly 0.  Read-only, since every
    caller shares it.
    """
    w, v, sub, n1, n2 = rotation_eigensystem(n_max)
    wmat = np.real((v[sub] * np.exp(1j * theta * w)[None, :]) @ v.conj().T)
    n = n1 + n2
    wmat[n[sub][:, None] != n[None, :]] = 0.0
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
    _, _, _, n1, n2 = rotation_eigensystem(n_max)
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
