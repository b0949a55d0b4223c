"""Polarization-entangled PDC sources.

A source pumps two degenerate PDC processes so that, per polarization P, modes
(aP, bP) carry a two-mode squeezed state with amplitudes
c_n = (i tanh chi)^n / cosh chi on |n, n>. Two identical sources feed the
swap: source 1 emits into (a, b), source 2 into (c, d).
"""

from __future__ import annotations

import math

import numpy as np

CHI_CAP = 0.35


def pair_amplitudes(chi: float, n_max: int) -> np.ndarray:
    """Amplitudes c_n = (i tanh chi)^n / cosh chi for n = 0..n_max."""
    n = np.arange(n_max + 1)
    return (1j * math.tanh(chi)) ** n / math.cosh(chi)
