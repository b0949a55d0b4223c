import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import singlet_state, werner_state
from dense_reference import bell_psi_minus, dense_state
from swapkd.detectors import ThresholdDetector
from swapkd.errors import NoCoincidenceError, UndefinedVisibilityError
from swapkd.fock import ConditionalState, TruncationPolicy, pair_mixer_unitary
from swapkd.metrics import (
    X_BASIS,
    Z_BASIS,
    AnalyzerSetting,
    CoincidenceTable,
    _analyzer_povms,
    _bob_angle_curve,
    chsh,
    embed_qubit_pair,
    fidelity_visibility,
    fourfold_coincidence,
    qber,
    visibility,
    visibility_scan,
)
from swapkd.swap import bsm_detector, swap_conditional_state


def vacuum_conditional(n_max: int = 2) -> ConditionalState:
    d = (n_max + 1) ** 4
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return ConditionalState(("aH", "aV", "dH", "dV"), n_max, rho, 1.0)


def test_basis_settings():
    assert Z_BASIS.theta_alice == 0.0 and Z_BASIS.theta_bob == 0.0
    assert X_BASIS.theta_alice == pytest.approx(math.pi / 4.0)
    assert X_BASIS.theta_bob == pytest.approx(math.pi / 4.0)


def test_singlet_coincidence_table(ideal_detector):
    cond = singlet_state(n_max=2)
    table = fourfold_coincidence(cond, Z_BASIS, ideal_detector)
    assert table.p_hv == pytest.approx(0.5, abs=1e-12)
    assert table.p_vh == pytest.approx(0.5, abs=1e-12)
    assert table.p_hh == pytest.approx(0.0, abs=1e-12)
    assert table.p_vv == pytest.approx(0.0, abs=1e-12)
    assert table.p_diff == pytest.approx(0.5, abs=1e-12)
    assert table.p_same == pytest.approx(0.0, abs=1e-12)
    assert table.p_coincidence == pytest.approx(1.0, abs=1e-12)
    assert table.p_double_alice == pytest.approx(0.0, abs=1e-12)
    # the singlet looks the same in any rotated product basis
    rotated = fourfold_coincidence(
        cond, AnalyzerSetting(0.3, 0.3, "rot"), ideal_detector
    )
    assert rotated.p_hv == pytest.approx(0.5, abs=1e-10)
    assert rotated.p_hh == pytest.approx(0.0, abs=1e-10)


def test_singlet_qber_and_visibility(ideal_detector):
    rep = qber(singlet_state(n_max=2), ideal_detector)
    assert rep.qber == pytest.approx(0.0, abs=1e-12)
    assert rep.visibility == pytest.approx(1.0, abs=1e-9)
    assert rep.qber_from_v == pytest.approx(0.0, abs=1e-9)
    assert rep.sifted_coincidence_probability == pytest.approx(0.25 * 2.0, abs=1e-12)


def test_werner_state_qber_visibility(ideal_detector):
    """F = 0.925 gives lambda = 0.9, so V = 0.9 and QBER = 0.05."""
    rep = qber(werner_state(0.925), ideal_detector)
    assert rep.qber == pytest.approx(0.05, abs=1e-12)
    assert rep.visibility == pytest.approx(0.9, abs=1e-9)
    assert rep.qber_from_v == pytest.approx(0.05, abs=1e-9)
    assert fidelity_visibility(0.925) == pytest.approx(0.9, abs=1e-12)


def test_fidelity_visibility_and_chsh():
    assert fidelity_visibility(1.0) == pytest.approx(1.0)
    assert fidelity_visibility(0.25) == pytest.approx(0.0)
    assert chsh(1.0) == pytest.approx(2.0 * math.sqrt(2.0))
    # the local-realism bound sits at V = 1/sqrt(2)
    assert chsh(1.0 / math.sqrt(2.0)) == pytest.approx(2.0)


def test_analyzer_povm_completeness():
    povms = _analyzer_povms(3, 0.35, 1e-3, 0.27)
    total = sum(povms.values())
    assert np.abs(total - np.eye(16)).max() < 1e-12
    for e in povms.values():
        assert np.abs(e - e.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(e).min() > -1e-12


def test_dark_counts_only_give_random_outcomes():
    det = ThresholdDetector(eta=0.5, p_dc=1e-3)
    rep = qber(vacuum_conditional(), det)
    assert rep.qber == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.visibility) < 1e-6


def test_no_coincidence_raises():
    det = ThresholdDetector(eta=0.5, p_dc=0.0)
    with pytest.raises(NoCoincidenceError):
        qber(vacuum_conditional(), det)


def test_undefined_visibility_raises():
    det = ThresholdDetector(eta=0.5, p_dc=0.0)
    with pytest.raises(UndefinedVisibilityError):
        visibility_scan(vacuum_conditional(), det)


def test_visibility_scan_extrema_for_singlet(ideal_detector):
    scan = visibility_scan(singlet_state(n_max=2), ideal_detector, theta_alice=0.0)
    assert scan.visibility == pytest.approx(1.0, abs=1e-9)
    # parallel analyzers never coincide, crossed analyzers always do
    assert scan.theta_max == pytest.approx(math.pi / 2.0, abs=1e-5)
    assert min(scan.theta_min % math.pi, math.pi - scan.theta_min % math.pi) < 1e-5
    assert visibility(singlet_state(n_max=2), ideal_detector) == pytest.approx(1.0, abs=1e-9)


def test_visibility_scan_matches_direct_contraction(ideal_detector):
    """Spot-check the fast angle curve against fourfold_coincidence."""
    cond = werner_state(0.85)
    scan = visibility_scan(cond, ideal_detector, theta_alice=0.2)
    for k in (0, 40, 110):
        theta = float(scan.grid_thetas[k])
        table = fourfold_coincidence(cond, AnalyzerSetting(0.2, theta, "chk"), ideal_detector)
        assert scan.grid_values[k] == pytest.approx(table.p_hh, rel=1e-10)


def test_swap_state_hv_symmetry():
    policy = TruncationPolicy(n_max=3)
    res = swap_conditional_state(0.08, 0.6, 4.0, 1e-5, policy)
    det = bsm_detector(0.6, 4.0, 1e-5)
    table = fourfold_coincidence(res, Z_BASIS, det)
    assert table.p_hv == pytest.approx(table.p_vh, rel=1e-10)
    assert table.p_hh == pytest.approx(table.p_vv, rel=1e-10)


def test_swap_state_rotational_covariance():
    """Pooled error rate is unchanged when both analyzers rotate together."""
    policy = TruncationPolicy(n_max=3)
    res = swap_conditional_state(0.05, 0.8, 0.0, 0.0, policy)
    det = bsm_detector(0.8, 0.0, 0.0)
    base = qber(res, det, compute_visibility=False).qber
    for delta in (0.17, 0.61, 1.03):
        tz = fourfold_coincidence(res, AnalyzerSetting(delta, delta, "Z"), det)
        tx = fourfold_coincidence(
            res, AnalyzerSetting(math.pi / 4 + delta, math.pi / 4 + delta, "X"), det
        )
        rotated = (tz.p_wrong + tx.p_wrong) / (tz.p_coincidence + tx.p_coincidence)
        assert rotated == pytest.approx(base, abs=5e-7)


def test_qber_pools_both_bases(ideal_detector):
    cond = werner_state(0.9)
    rep = qber(cond, ideal_detector)
    wrong = rep.table_z.p_wrong + rep.table_x.p_wrong
    total = rep.table_z.p_coincidence + rep.table_x.p_coincidence
    assert rep.qber == pytest.approx(wrong / total, abs=1e-15)
    assert rep.qber_z == pytest.approx(rep.table_z.p_wrong / rep.table_z.p_coincidence)
    assert rep.qber == pytest.approx(0.5 * (rep.qber_z + rep.qber_x), abs=1e-12)


def test_embed_qubit_pair_and_bell_state_agree():
    policy = TruncationPolicy(n_max=2)
    reg = bell_psi_minus(policy)
    psi = reg.amplitudes.reshape(-1)
    cond = singlet_state(n_max=2)
    assert np.abs(cond.rho - np.outer(psi, psi.conj())).max() < 1e-14
    scaled = embed_qubit_pair(np.eye(4) / 4.0, 2, herald=0.3)
    assert scaled.herald_probability == pytest.approx(0.3)
    assert np.trace(scaled.rho).real == pytest.approx(0.3)


def test_joint_probability_weight_is_herald(ideal_detector):
    """Coincidence entries are joint with the herald, not conditioned on it."""
    cond = singlet_state(n_max=2, herald=0.01)
    table = fourfold_coincidence(cond, Z_BASIS, ideal_detector)
    assert table.p_hv == pytest.approx(0.005, abs=1e-12)
    assert table.herald_probability == pytest.approx(0.01)


def swap_case(n_max: int, chi: float, p_dc: float):
    """Factored swap result at eta0=0.3, 10 dB, and the analyzer detector."""
    res = swap_conditional_state(chi, 0.3, 10.0, p_dc, TruncationPolicy(n_max=n_max))
    return res, bsm_detector(0.3, 10.0, p_dc)


OFF_AXIS = AnalyzerSetting(0.3, 1.1, "off")


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
def test_factored_contraction_matches_dense_state(n_max):
    """Tables and scans from the pair factors equal those from the materialized rho."""
    for chi in (0.01, 0.15, 0.3):
        for p_dc in (0.0, 1e-4):
            res, det = swap_case(n_max, chi, p_dc)
            cond = dense_state(res)
            for setting in (Z_BASIS, X_BASIS, OFF_AXIS):
                tf = fourfold_coincidence(res, setting, det)
                td = fourfold_coincidence(cond, setting, det)
                for field in fields(CoincidenceTable):
                    want = getattr(td, field.name)
                    got = getattr(tf, field.name)
                    if isinstance(want, float):
                        assert got == pytest.approx(want, rel=1e-9, abs=1e-20), field.name
                    else:
                        assert got == want
                sf = visibility_scan(res, det, theta_alice=setting.theta_alice)
                sd = visibility_scan(cond, det, theta_alice=setting.theta_alice)
                for name in ("visibility", "p_max", "p_min"):
                    want = getattr(sd, name)
                    assert getattr(sf, name) == pytest.approx(want, rel=1e-9, abs=1e-20), name


def brute_force_bob_curve(cond: ConditionalState, det: ThresholdDetector, theta_alice, thetas):
    """p(theta) = tr[M U(theta)^dag W U(theta)], one rotation unitary per angle."""
    n_max = cond.n_max
    d = n_max + 1
    dbig = 2 * n_max + 1
    ea = _analyzer_povms(n_max, det.eta, det.p_dc, float(theta_alice))["h"]
    rho4 = cond.rho.reshape(d * d, d * d, d * d, d * d)
    m = np.einsum("abAB,Aa->bB", rho4, ea)
    w = np.kron(det.weight_vector(True, dbig - 1), det.weight_vector(False, dbig - 1))
    sub = np.array([i * dbig + j for i in range(d) for j in range(d)])
    values = []
    for theta in thetas:
        u = pair_mixer_unitary(dbig, theta)
        e = (u.conj().T @ (w[:, None] * u))[np.ix_(sub, sub)]
        values.append(float(np.real(np.trace(m @ e))))
    return np.array(values)


def test_fourier_curve_matches_brute_force():
    """The Fourier series equals the rotated-POVM trace at off-grid angles."""
    thetas = np.array([0.0123, 0.4567, 0.7071, 1.2345, 2.0101, 2.9876, 3.5])
    det = ThresholdDetector(eta=0.7, p_dc=1e-3)
    cases = [(werner_state(0.85, n_max=3), det, 0.2)]
    for n_max in (4, 6):
        res, swap_det = swap_case(n_max, 0.15, 1e-4)
        cases.append((res, swap_det, 0.0))
        cases.append((res, swap_det, math.pi / 4.0))
    for state, d, theta_alice in cases:
        cond = state if isinstance(state, ConditionalState) else dense_state(state)
        want = brute_force_bob_curve(cond, d, theta_alice, thetas)
        got = _bob_angle_curve(state, d, theta_alice)(thetas)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-20)
