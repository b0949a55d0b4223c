import math

import numpy as np
import pytest

from dense_reference import HERALDS, embed_qubit_pair, mixer_povm, pair_factors
from swapkd.detectors import ThresholdDetector
from swapkd.fock import TruncationPolicy
from swapkd.swap import SwapResult

SINGLET_QUBITS = np.zeros(4, dtype=complex)
SINGLET_QUBITS[1] = 1.0 / math.sqrt(2.0)
SINGLET_QUBITS[2] = -1.0 / math.sqrt(2.0)


def singlet_state(n_max: int = 2, herald: float = 1.0) -> SwapResult:
    rho = np.outer(SINGLET_QUBITS, SINGLET_QUBITS.conj())
    return pair_factors(embed_qubit_pair(rho, n_max, herald=herald))


def werner_state(fidelity: float, n_max: int = 2) -> SwapResult:
    lam = (4.0 * fidelity - 1.0) / 3.0
    rho = lam * np.outer(SINGLET_QUBITS, SINGLET_QUBITS.conj()) + (1.0 - lam) * np.eye(4) / 4.0
    return pair_factors(embed_qubit_pair(rho, n_max))


def single_pair_herald_budget(eta: float, mixer=None) -> float:
    """Accepted-herald probability with one pair per source and no dark counts.

    Each source puts its pair in H or V with amplitude 1/sqrt(2); the four
    placements leave orthogonal states on modes a and d, so the budget is
    1/4 sum_p sum_placements E_H^p[(n_bH, n_cH)] E_V^p[(n_bV, n_cV)] with the
    single-pair (n_max = 1) BSM POVMs, indexed n_b * 2 + n_c.
    mixer(det, click1, click2) gives one beamsplitter's element; the default
    is the reference's mixer_povm.
    """
    det = ThresholdDetector(eta, 0.0)
    mixer = mixer or (lambda det, c1, c2: mixer_povm(1, math.pi / 4.0, det, c1, c2))
    total = 0.0
    for clicks, _ in HERALDS:
        e_h = mixer(det, clicks[0], clicks[2])
        e_v = mixer(det, clicks[1], clicks[3])
        for n_bh in (0, 1):
            for n_ch in (0, 1):
                i_h = 2 * n_bh + n_ch
                i_v = 2 * (1 - n_bh) + (1 - n_ch)
                total += 0.25 * float((e_h[i_h, i_h] * e_v[i_v, i_v]).real)
    return total


@pytest.fixture
def ideal_detector() -> ThresholdDetector:
    return ThresholdDetector(eta=1.0, p_dc=0.0)


@pytest.fixture
def policy3() -> TruncationPolicy:
    return TruncationPolicy(n_max=3)
