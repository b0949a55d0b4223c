import math

import numpy as np
import pytest

from dense_reference import (
    ModeRegister,
    apply_polarization_rotation,
    apply_two_mode_mixer,
    bell_psi_minus,
    condition_on_diagonal_povm,
    fidelity_with_pure,
    vacuum,
)
from swapkd.errors import TruncationError
from swapkd.fock import ConditionalState, TruncationPolicy, annihilation_matrix, pair_mixer_unitary


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(n_max=0)
    with pytest.raises(ValueError):
        TruncationPolicy(n_max=2.5)
    with pytest.raises(ValueError):
        TruncationPolicy(convergence_tol=0.0)
    assert TruncationPolicy(n_max=4).dim == 5


def test_vacuum_register():
    reg = vacuum(["a", "b"], TruncationPolicy(n_max=2))
    assert reg.norm_squared() == pytest.approx(1.0)
    assert reg.amplitudes[0, 0] == 1.0
    assert reg.axis("b") == 1
    with pytest.raises(ValueError):
        reg.axis("nope")


def test_register_rejects_duplicates_and_bad_shape():
    pol = TruncationPolicy(n_max=1)
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = 1.0
    with pytest.raises(ValueError):
        ModeRegister(("a", "a"), pol, amp)
    with pytest.raises(ValueError):
        ModeRegister(("a", "b"), pol, np.zeros((2, 3), dtype=complex))


def test_annihilation_matrix():
    a = annihilation_matrix(4)
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), [0.0, 1.0, 2.0, 3.0])


def test_mixer_unitarity_and_number_conservation():
    d = 5
    u = pair_mixer_unitary(d, 0.7321, phase=0.4)
    assert np.abs(u @ u.conj().T - np.eye(d * d)).max() < 1e-12
    n_tot = np.add.outer(np.arange(d), np.arange(d)).reshape(-1)
    # no matrix element connects different total photon numbers
    mask = n_tot[:, None] != n_tot[None, :]
    assert np.abs(u[mask]).max() < 1e-12


def test_single_photon_splitting_ratio():
    pol = TruncationPolicy(n_max=2)
    reg = vacuum(["a", "b"], pol)
    amp = np.zeros_like(reg.amplitudes)
    amp[1, 0] = 1.0
    reg = ModeRegister(reg.labels, pol, amp)
    theta = 0.3
    out = apply_two_mode_mixer(reg, "a", "b", theta)
    assert abs(out.amplitudes[1, 0]) ** 2 == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
    assert abs(out.amplitudes[0, 1]) ** 2 == pytest.approx(math.sin(theta) ** 2, abs=1e-12)
    assert out.leakage == pytest.approx(0.0, abs=1e-14)


def test_hong_ou_mandel_dip():
    """|1,1> through a balanced mixer leaves no coincident component."""
    pol = TruncationPolicy(n_max=2)
    amp = np.zeros((3, 3), dtype=complex)
    amp[1, 1] = 1.0
    reg = ModeRegister(("a", "b"), pol, amp)
    out = apply_two_mode_mixer(reg, "a", "b", math.pi / 4.0)
    assert abs(out.amplitudes[1, 1]) < 1e-12
    assert abs(out.amplitudes[2, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(out.amplitudes[0, 2]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_mixer_overflow_raises():
    pol = TruncationPolicy(n_max=1, convergence_tol=1e-4)
    amp = np.zeros((2, 2), dtype=complex)
    amp[1, 1] = 1.0
    reg = ModeRegister(("a", "b"), pol, amp)
    with pytest.raises(TruncationError):
        apply_two_mode_mixer(reg, "a", "b", math.pi / 4.0)
    # a permissive tolerance turns the same overflow into tracked leakage
    amp_half = np.zeros((2, 2), dtype=complex)
    amp_half[0, 0] = amp_half[1, 1] = 1.0 / math.sqrt(2.0)
    loose = ModeRegister(("a", "b"), TruncationPolicy(n_max=1, convergence_tol=0.6), amp_half)
    out = apply_two_mode_mixer(loose, "a", "b", math.pi / 4.0)
    assert out.leakage == pytest.approx(0.5, abs=1e-12)
    assert out.norm_squared() == pytest.approx(0.5, abs=1e-12)


def test_polarization_rotation_matches_pair_mixer():
    pol = TruncationPolicy(n_max=2)
    amp = np.zeros((3, 3), dtype=complex)
    amp[1, 0] = 1.0
    reg = ModeRegister(("aH", "aV"), pol, amp)
    out = apply_polarization_rotation(reg, "a", 0.25)
    ref = apply_two_mode_mixer(reg, "aH", "aV", 0.25)
    assert np.allclose(out.amplitudes, ref.amplitudes)


def test_condition_on_diagonal_povm_trace():
    pol = TruncationPolicy(n_max=2)
    state = bell_psi_minus(pol)
    # unit weight on every outcome of (dH, dV) keeps all of the probability
    w = np.ones((3, 3))
    cond = condition_on_diagonal_povm(state, ["dH", "dV"], w)
    assert cond.labels == ("aH", "aV")
    assert cond.herald_probability == pytest.approx(1.0, abs=1e-12)
    cond.validate()
    # tracing out one side of the singlet leaves an even H/V mixture
    rho = cond.normalized_rho().reshape(3, 3, 3, 3)
    assert rho[1, 0, 1, 0] == pytest.approx(0.5, abs=1e-12)
    assert rho[0, 1, 0, 1] == pytest.approx(0.5, abs=1e-12)
    assert abs(rho[1, 0, 0, 1]) < 1e-12
    # scaling all weights scales the herald but not the normalized state
    cond_half = condition_on_diagonal_povm(state, ["dH", "dV"], 0.5 * w)
    assert cond_half.herald_probability == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(cond_half.normalized_rho(), cond.normalized_rho())


def test_condition_rejects_measuring_everything():
    pol = TruncationPolicy(n_max=1)
    state = vacuum(["a", "b"], pol)
    with pytest.raises(ValueError):
        condition_on_diagonal_povm(state, ["a", "b"], np.ones((2, 2)))


def test_fidelity_with_pure_self():
    pol = TruncationPolicy(n_max=2)
    target = bell_psi_minus(pol)
    psi = target.amplitudes.reshape(-1)
    cond = ConditionalState(target.labels, pol.n_max, np.outer(psi, psi.conj()), 1.0)
    assert fidelity_with_pure(cond, target) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity_with_pure(cond, vacuum(["a", "b"], pol))
