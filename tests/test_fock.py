import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    ConditionalState,
    ModeRegister,
    apply_polarization_rotation,
    apply_two_mode_mixer,
    bell_psi_minus,
    condition_on_diagonal_povm,
    dense_pair_povms,
    fidelity_with_pure,
    pair_mixer_unitary,
    realign,
    rotated_pair_povm,
    rotation_eigensystem,
    rotation_matrix,
    vacuum,
)
import swapkd.fock as fock_module
from swapkd.detectors import ThresholdDetector
from swapkd.errors import TruncationError
from swapkd.fock import TruncationPolicy, annihilation_matrix, detector_pair_povms
from swapkd.swap import bsm_detector, graded_swap_state, swap_conditional_state


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


@pytest.mark.parametrize("n_max", range(1, 7))
def test_rotated_pair_povm_matches_full_embedding(n_max):
    """Every outcome equals (U^dag diag(w) U)[sub, sub] with U on the full
    (2n_max+1)^2 pair space, which also holds the truncated blocks."""
    dbig = 2 * n_max + 1
    sub = np.array([i * dbig + j for i in range(n_max + 1) for j in range(n_max + 1)])
    for theta in (0.0, math.pi / 4.0, 0.3, 1.1):
        u = pair_mixer_unitary(dbig, theta)
        for eta in (0.05, 0.7, 1.0):
            for p_dc in (0.0, 1e-3):
                det = ThresholdDetector(eta, p_dc)
                for click1 in (True, False):
                    for click2 in (True, False):
                        w1 = det.weight_vector(click1, dbig - 1)
                        w2 = det.weight_vector(click2, dbig - 1)
                        want = (u.conj().T @ (np.kron(w1, w2)[:, None] * u))[np.ix_(sub, sub)]
                        got = rotated_pair_povm(n_max, theta, w1, w2)
                        assert np.abs(got - want).max() < 1e-12, (theta, eta, p_dc, click1, click2)


def test_detector_pair_povms_match_rotated_pair_povm():
    """The four outcomes built on the cached rotation blocks equal the
    reference rotation of the detectors' click weights, realigned."""
    clicks = ((True, False), (False, True), (True, True), (False, False))
    for n_max in range(2, 7):
        for theta in (0.0, math.pi / 4.0, 0.3):
            for eta in (0.0, 0.01, 0.35, 1.0):
                for p_dc in (0.0, 1e-4):
                    det = ThresholdDetector(eta, p_dc)
                    got = detector_pair_povms(n_max, (theta,), det)[0]
                    for e, (click1, click2) in zip(got, clicks):
                        w1 = det.weight_vector(click1, 2 * n_max)
                        w2 = det.weight_vector(click2, 2 * n_max)
                        want = realign(rotated_pair_povm(n_max, theta, w1, w2))
                        assert np.abs(e - want).max() <= 1e-14, (n_max, theta, eta, p_dc)


@pytest.mark.parametrize("n_max", range(1, 7))
def test_rotation_matrix_is_real_orthonormal_and_photon_number_preserving(n_max):
    """The reference's dense rotation from complete-block states to pair
    states is a read-only float64 matrix, exactly zero between different
    photon numbers, with orthonormal rows."""
    _, _, sub, n1, n2 = rotation_eigensystem(n_max)
    n = n1 + n2
    across = n[sub][:, None] != n[None, :]
    for theta in (0.0, math.pi / 4.0, 0.37, 1.1):
        w = rotation_matrix(n_max, theta)
        assert w.dtype == np.float64
        assert not w.flags.writeable
        assert w.shape == (len(sub), len(n))
        assert np.all(w[across] == 0.0)
        assert np.abs(w @ w.T - np.eye(len(sub))).max() < 1e-13, (n_max, theta)


@pytest.mark.parametrize("n_max", range(1, 9))
def test_rotation_eigensystem_matches_kron_generator(n_max):
    """The generator indexed on the kept states n1+n2 <= 2*n_max is the kron
    construction on the full (2*n_max+1)^2 space cut to those states, so the
    eigensystem is identical."""
    n_total = 2 * n_max
    a = annihilation_matrix(n_total + 1)
    generator = 1j * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    n1, n2 = np.divmod(np.arange((n_total + 1) ** 2), n_total + 1)
    keep = np.flatnonzero(n1 + n2 <= n_total)
    w, v = np.linalg.eigh(generator[np.ix_(keep, keep)])
    n1, n2 = n1[keep], n2[keep]
    sub = np.flatnonzero((n1 <= n_max) & (n2 <= n_max))
    want = (np.rint(w).astype(int), v, sub, n1, n2)
    got = rotation_eigensystem(n_max)
    for g, x in zip(got, want):
        assert g.dtype == x.dtype and np.array_equal(g, x)


@pytest.mark.parametrize("n_max", range(1, 9))
def test_rotation_blocks_diagonalize_each_generator_block(n_max):
    """Block N of rotation_blocks is unitary to 1e-14 and turns the block of
    the kron generator into diag(-N, -N+2, .., N); the padding is exactly 0.
    The reference's dense rotation_matrix, built from these blocks, equals
    V[sub] e^{i theta w} V^dag over the whole-generator eigensystem to 1e-14."""
    k = 2 * n_max + 1
    a = annihilation_matrix(k)
    generator = 1j * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    v = fock_module.rotation_blocks(n_max)
    assert v.shape == (k, k, k) and not v.flags.writeable
    for n in range(k):
        states = [n1 * k + n - n1 for n1 in range(n + 1)]
        block = v[n, : n + 1, : n + 1]
        assert not v[n, n + 1 :].any() and not v[n, :, n + 1 :].any()
        assert np.abs(block.conj().T @ block - np.eye(n + 1)).max() <= 1e-14
        eigen = block.conj().T @ generator[np.ix_(states, states)] @ block
        assert np.abs(eigen - np.diag(np.arange(-n, n + 1, 2))).max() <= 1e-13
        assert np.array_equal(np.rint(np.real(np.diag(eigen))), np.arange(-n, n + 1, 2))
    w, vf, sub, _, _ = rotation_eigensystem(n_max)
    for theta in (0.0, math.pi / 4.0, 0.37, 1.1):
        want = np.real((vf[sub] * np.exp(1j * theta * w)) @ vf.conj().T)
        assert np.abs(rotation_matrix(n_max, theta) - want).max() <= 1e-14, theta


@settings(max_examples=25, deadline=None)
@given(
    n_max=st.integers(1, 6),
    eta0=st.floats(0.05, 1.0),
    alpha_d=st.floats(0.0, 50.0),
    p_dc=st.floats(0.0, 1e-2),
    chi=st.floats(1e-3, 0.3),
    theta=st.floats(0.0, math.pi),
)
def test_realigned_operators_conserve_pair_photon_number(n_max, eta0, alpha_d, p_dc, chi, theta):
    """The graded and chi-state pair factors and a rotation's realigned
    detector stack are exactly 0 at every R[(i,I), (j,J)] with i+j != I+J,
    the entries the photon-number sector contraction never reads."""
    policy = TruncationPolicy(n_max=n_max)
    graded = graded_swap_state(eta0, alpha_d, p_dc, policy)
    state = swap_conditional_state(chi, eta0, alpha_d, p_dc, policy)
    povms = detector_pair_povms(n_max, (theta,), bsm_detector(eta0, alpha_d, p_dc))[0]
    i, big_i, j, big_j = np.indices((n_max + 1,) * 4)
    off_sector = (i + j != big_i + big_j).reshape((n_max + 1) ** 2, (n_max + 1) ** 2)
    for op in (graded.th, graded.tv, state.th, state.tv, povms):
        assert op.shape[-2:] == off_sector.shape
        assert not op[..., off_sector].any()


# p_dc 0, eta 1, high loss, and the dark-count wall, a dark count on almost
# every gate
_STACK_DETECTORS = (
    ThresholdDetector(0.35, 0.0),
    ThresholdDetector(1.0, 1e-4),
    ThresholdDetector(1e-4, 1e-6),
    ThresholdDetector(0.3, 0.99),
)


@pytest.mark.parametrize("n_max", range(1, 8))
def test_detector_pair_povms_match_the_dense_build(n_max):
    """The block-built stacks equal the reference's dense
    realign(W diag(w1 w2) W^T) to 1e-15 of the stack's largest entry."""
    for theta in (0.0, math.pi / 4.0, 0.3, 1.1):
        for det in _STACK_DETECTORS:
            got = detector_pair_povms(n_max, (theta,), det)[0]
            want = dense_pair_povms(n_max, theta, det)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (theta, det)


@pytest.mark.parametrize("n_max", [1, 4, 7])
def test_detector_pair_povms_stack_angles_exactly_and_are_symmetric(n_max):
    """A call over two angles equals the two one-angle calls stacked, bit for
    bit, and every element equals its pair-operator transpose exactly:
    R[(n1,m1),(n2,m2)] = R[(m1,n1),(m2,n2)]."""
    d = n_max + 1
    for det in _STACK_DETECTORS:
        thetas = (0.3, math.pi / 4.0)
        both = detector_pair_povms(n_max, thetas, det)
        single = np.stack([detector_pair_povms(n_max, (theta,), det)[0] for theta in thetas])
        assert np.array_equal(both, single)
        blocks = both.reshape(2, 4, d, d, d, d)
        assert np.array_equal(blocks, blocks.transpose(0, 1, 3, 2, 5, 4))
