"""Truncated Fock-space primitives.

Every mode carries occupations 0..n_max (TruncationPolicy).  Passive
two-mode mixers are exact number-conserving unitaries on a flattened mode
pair; callers evaluate them on an occupancy embedding with per-mode cutoff
2*n_max, where every block reachable from inputs <= n_max is complete, so
conjugating a POVM there and restricting back loses nothing.
ConditionalState is a dense unnormalized density operator on labeled modes,
the form in which textbook states (singlet, Werner) enter the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UndefinedStateError


@dataclass(frozen=True)
class TruncationPolicy:
    """Per-mode occupation cutoff and the tolerance used for convergence checks."""

    n_max: int = 4
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        if not (0.0 < self.convergence_tol < 1.0):
            raise ValueError(f"convergence_tol must be in (0, 1), got {self.convergence_tol!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


DEFAULT_POLICY = TruncationPolicy()


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


def annihilation_matrix(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


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
    a2+ -> e^{i phase} sin(t) a1+ + cos(t) a2+.
    """
    w, v = _mixer_eig(dim, float(phase))
    return (v * np.exp(-1j * theta * w)) @ v.conj().T
