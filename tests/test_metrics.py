import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SINGLET_QUBITS, singlet_state, werner_state, with_detector
from dense_reference import (
    ConditionalState,
    analyzer_povms,
    bell_psi_minus,
    chsh,
    dense_probabilities,
    dense_state,
    embed_qubit_pair,
    fidelity_visibility,
    pair_factors,
    pair_mixer_unitary,
    sector_table,
)
from swapkd.detectors import ThresholdDetector
from swapkd.errors import NoCoincidenceError, UndefinedVisibilityError
from swapkd.fock import TruncationPolicy, detector_pair_povms
from swapkd.metrics import (
    _OUTCOMES,
    X_BASIS,
    Z_BASIS,
    AnalyzerSetting,
    VisibilityScan,
    _bob_angle_curve,
    _joint_probabilities,
    _sector_table,
    _setting_povms,
    fourfold_coincidence,
    qber,
    qber_polynomial,
    visibility,
    visibility_scan,
)
from swapkd.sources import pair_amplitudes
from swapkd.swap import (
    SwapResult,
    bsm_detector,
    graded_swap_state,
    swap_conditional_state,
)


def vacuum_conditional(n_max: int = 2):
    d = (n_max + 1) ** 4
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return pair_factors(ConditionalState(("aH", "aV", "dH", "dV"), n_max, rho, 1.0))


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
    assert table.p_hv == pytest.approx(0.5, abs=1e-12)
    assert table.p_hh == pytest.approx(0.0, abs=1e-12)
    assert table.p_coincidence == pytest.approx(1.0, abs=1e-12)
    assert table.p_double_alice == pytest.approx(0.0, abs=1e-12)
    # the singlet looks the same in any rotated product basis
    rotated = fourfold_coincidence(cond, AnalyzerSetting(0.3, 0.3), ideal_detector)
    assert rotated.p_hv == pytest.approx(0.5, abs=1e-10)
    assert rotated.p_hh == pytest.approx(0.0, abs=1e-10)


def test_singlet_qber_and_visibility(ideal_detector):
    rep = qber(with_detector(singlet_state(n_max=2), ideal_detector))
    vis = visibility(with_detector(singlet_state(n_max=2), ideal_detector))
    assert rep.qber == pytest.approx(0.0, abs=1e-12)
    assert vis == pytest.approx(1.0, abs=1e-9)
    assert 0.5 * (1.0 - vis) == pytest.approx(0.0, abs=1e-9)
    assert rep.sifted_coincidence_probability == pytest.approx(0.25 * 2.0, abs=1e-12)


def test_werner_state_qber_visibility(ideal_detector):
    """F = 0.925 gives lambda = 0.9, so V = 0.9 and QBER = 0.05."""
    rep = qber(with_detector(werner_state(0.925), ideal_detector))
    vis = visibility(with_detector(werner_state(0.925), ideal_detector))
    assert rep.qber == pytest.approx(0.05, abs=1e-12)
    assert vis == pytest.approx(0.9, abs=1e-9)
    assert 0.5 * (1.0 - vis) == pytest.approx(0.05, abs=1e-9)
    assert fidelity_visibility(0.925) == pytest.approx(0.9, abs=1e-12)


def test_fidelity_visibility_and_chsh():
    assert fidelity_visibility(1.0) == pytest.approx(1.0)
    assert fidelity_visibility(0.25) == pytest.approx(0.0)
    assert chsh(1.0) == pytest.approx(2.0 * math.sqrt(2.0))
    # the local-realism bound sits at V = 1/sqrt(2)
    assert chsh(1.0 / math.sqrt(2.0)) == pytest.approx(2.0)


@pytest.mark.parametrize("n_max", range(1, 7))
def test_analyzer_povm_completeness(n_max):
    """Analyzer and BSM POVMs: the four click outcomes resolve the identity,
    and each element is Hermitian and positive."""
    det = ThresholdDetector(0.35, 1e-3)
    analyzer = detector_pair_povms(n_max, 0.27, det)
    bsm = detector_pair_povms(n_max, math.pi / 4.0, det)
    for family in (analyzer, bsm):
        assert len(family) == 4
        assert np.abs(sum(family) - np.eye((n_max + 1) ** 2)).max() < 1e-12
        for e in family:
            assert np.abs(e - e.conj().T).max() < 1e-14
            assert np.linalg.eigvalsh(e).min() > -1e-12


def test_dark_counts_only_give_random_outcomes():
    det = ThresholdDetector(eta=0.5, p_dc=1e-3)
    rep = qber(with_detector(vacuum_conditional(), det))
    assert rep.qber == pytest.approx(0.5, abs=1e-12)
    assert abs(visibility(with_detector(vacuum_conditional(), det))) < 1e-6


def test_no_coincidence_raises():
    det = ThresholdDetector(eta=0.5, p_dc=0.0)
    with pytest.raises(NoCoincidenceError):
        qber(with_detector(vacuum_conditional(), det))


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
    assert visibility(with_detector(singlet_state(n_max=2), ideal_detector)) == pytest.approx(
        1.0, abs=1e-9
    )


def test_visibility_scan_matches_direct_contraction(ideal_detector):
    """Spot-check the fast angle curve against fourfold_coincidence."""
    cond = werner_state(0.85)
    curve = _bob_angle_curve(cond, ideal_detector, 0.2)
    for theta in (0.0, 0.6942, 1.9094):
        table = fourfold_coincidence(cond, AnalyzerSetting(0.2, theta), ideal_detector)
        assert curve(theta)[0] == pytest.approx(table.p_hh, rel=1e-10)


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
    base = qber(with_detector(res, det)).qber
    for delta in (0.17, 0.61, 1.03):
        tz = fourfold_coincidence(res, AnalyzerSetting(delta, delta), det)
        tx = fourfold_coincidence(res, AnalyzerSetting(math.pi / 4 + delta, math.pi / 4 + delta), det)
        rotated = (tz.p_wrong + tx.p_wrong) / (tz.p_coincidence + tx.p_coincidence)
        assert rotated == pytest.approx(base, abs=5e-7)


def test_qber_pools_both_bases(ideal_detector):
    cond = werner_state(0.9)
    rep = qber(with_detector(cond, ideal_detector))
    wrong = rep.table_z.p_wrong + rep.table_x.p_wrong
    total = rep.table_z.p_coincidence + rep.table_x.p_coincidence
    assert rep.qber == pytest.approx(wrong / total, abs=1e-15)
    assert rep.qber_z == pytest.approx(rep.table_z.p_wrong / rep.table_z.p_coincidence)
    assert rep.qber == pytest.approx(0.5 * (rep.qber_z + rep.qber_x), abs=1e-12)


def test_embed_qubit_pair_and_bell_state_agree():
    policy = TruncationPolicy(n_max=2)
    reg = bell_psi_minus(policy)
    psi = reg.amplitudes.reshape(-1)
    cond = embed_qubit_pair(np.outer(SINGLET_QUBITS, SINGLET_QUBITS.conj()), 2)
    assert np.abs(cond.rho - np.outer(psi, psi.conj())).max() < 1e-14
    # the singlet's pair factors rebuild the dense state
    assert np.abs(dense_state(singlet_state(n_max=2)).rho - cond.rho).max() < 1e-14
    scaled = embed_qubit_pair(np.eye(4) / 4.0, 2, herald=0.3)
    assert scaled.herald_probability == pytest.approx(0.3)
    assert np.trace(scaled.rho).real == pytest.approx(0.3)


def test_joint_probability_weight_is_herald(ideal_detector):
    """Coincidence entries are joint with the herald, not conditioned on it."""
    cond = singlet_state(n_max=2, herald=0.01)
    table = fourfold_coincidence(cond, Z_BASIS, ideal_detector)
    assert table.p_hv == pytest.approx(0.005, abs=1e-12)


def one_source(chi: float, n_max: int) -> SwapResult:
    """One PDC source as a one-factor result: a two-mode squeezed vacuum per
    polarization, th = tv with th[(i,I),(k,K)] = |c_i c_I| where k = i and
    K = I (the phases of c_n cancel in every photon-number-conserving
    measurement)."""
    c = np.abs(pair_amplitudes(chi, n_max))
    th = np.diag(np.outer(c, c).reshape(-1))[None]
    return SwapResult(th, th, n_max, float(np.sum(c**2) ** 2))


def pdc_coincidence(chi: float, eta: float, p_dc: float) -> float:
    """Probability that both sides of one PDC source click, in closed form
    (Ma, Fung and Lo, PRA 76, 012307 (2007)):
    1 - 2(1-Y0)/(1+eta lam)^2 + (1-Y0)^2/(1+2 eta lam-eta^2 lam)^2 with
    lam = sinh^2 chi and 1-Y0 = (1-p_dc)^2.  Evaluated at 60 digits: in float
    the cancellation loses about log10(1/(eta^2 lam)) of them."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, eta = Decimal(chi), Decimal(eta)
        lam = ((x.exp() - (-x).exp()) / 2) ** 2
        q = (1 - Decimal(p_dc)) ** 2
        p = 1 - 2 * q / (1 + eta * lam) ** 2 + q**2 / (1 + 2 * eta * lam - eta**2 * lam) ** 2
        return float(p)


@pytest.mark.parametrize("n_max", [2, 4, 6, 8])
def test_one_source_coincidence_matches_closed_form(n_max):
    """Coincidences of one PDC source, summed over both sides' h, v and both
    outcomes at any analyzer angles, equal the closed form up to the
    truncation: the probability 2 t^(n_max+1), t = tanh^2 chi, that either
    pair exceeds the cutoff, plus 1e-13 relative for rounding."""
    for chi in (1e-4, 1e-3, 0.01, 0.1, 0.2, 0.3):
        state = one_source(chi, n_max)
        for eta, p_dc in ((0.01, 0.0), (0.1, 0.0), (0.5, 1e-6), (1.0, 1e-3)):
            det = ThresholdDetector(eta, p_dc)
            result = with_detector(state, det)
            want = pdc_coincidence(chi, eta, p_dc)
            bound = 2.0 * math.tanh(chi) ** (2 * (n_max + 1)) + 1e-13 * want
            for setting in (Z_BASIS, AnalyzerSetting(0.7, 0.2)):
                p = _joint_probabilities(result, *_setting_povms(result, det, setting))
                got = p[:3, :3].sum()  # h, v or both on each side
                assert abs(got - want) <= bound, (chi, eta, p_dc, setting)


def swap_case(n_max: int, chi: float, p_dc: float):
    """Factored swap result at eta0=0.3, 10 dB, and the analyzer detector."""
    res = swap_conditional_state(chi, 0.3, 10.0, p_dc, TruncationPolicy(n_max=n_max))
    return res, bsm_detector(0.3, 10.0, p_dc)


OFF_AXIS = AnalyzerSetting(0.3, 1.1)


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
def test_factored_contraction_matches_dense_state(n_max):
    """Tables and scan extrema from the pair factors equal dense contractions of rho."""
    for chi in (0.01, 0.15, 0.3):
        for p_dc in (0.0, 1e-4):
            res, det = swap_case(n_max, chi, p_dc)
            cond = dense_state(res)
            for setting in (Z_BASIS, X_BASIS, OFF_AXIS):
                table = fourfold_coincidence(res, setting, det)
                probs = dense_probabilities(cond, det, setting.theta_alice, setting.theta_bob)
                want = {
                    "p_hh": probs[("h", "h")],
                    "p_hv": probs[("h", "v")],
                    "p_vh": probs[("v", "h")],
                    "p_vv": probs[("v", "v")],
                    "p_double_alice": sum(probs[("both", kb)] for kb in _OUTCOMES),
                    "p_double_bob": sum(probs[(ka, "both")] for ka in _OUTCOMES),
                }
                for name, value in want.items():
                    assert getattr(table, name) == pytest.approx(value, rel=1e-9, abs=1e-20), name
                scan = visibility_scan(res, det, theta_alice=setting.theta_alice)
                extrema = [
                    max(dense_probabilities(cond, det, setting.theta_alice, theta)[("h", "h")], 0.0)
                    for theta in (scan.theta_max, scan.theta_min)
                ]
                assert [scan.p_max, scan.p_min] == pytest.approx(extrema, rel=1e-9, abs=1e-20)
                vis = (extrema[0] - extrema[1]) / (extrema[0] + extrema[1])
                assert scan.visibility == pytest.approx(vis, rel=1e-9, abs=1e-20)


def brute_force_bob_curve(cond: ConditionalState, det: ThresholdDetector, theta_alice, thetas):
    """p(theta) = tr[M U(theta)^dag W U(theta)], one rotation unitary per angle."""
    n_max = cond.n_max
    d = n_max + 1
    dbig = 2 * n_max + 1
    ea = analyzer_povms(n_max, det, theta_alice)["h"]
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
        want = brute_force_bob_curve(dense_state(state), d, theta_alice, thetas)
        got = _bob_angle_curve(state, d, theta_alice)(thetas)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-20)


def brute_force_visibility(curve, scan: VisibilityScan) -> float:
    """V from the extreme values of the curve on 100001 angles within 1e-3 rad
    of each extremum that the scan reports."""
    offsets = np.linspace(-1e-3, 1e-3, 100001)
    extremes = []
    for theta, pick in ((scan.theta_max, np.max), (scan.theta_min, np.min)):
        extremes.append(pick([pick(curve(c)) for c in np.array_split(theta + offsets, 20)]))
    p_max, p_min = extremes
    return (p_max - p_min) / (p_max + p_min)


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6, 7])
def test_root_extrema_match_brute_force(n_max):
    """The extrema at the polynomial's roots give the V of a dense scan around
    them, also on a near-flat fringe dominated by dark counts (V ~ 1e-7,
    40 dB, chi 1e-3).  n_max 7 is the cutoff evaluate reaches at chi 0.3."""
    cases = ((0.15, 10.0, 1e-4), (1e-3, 40.0, 1e-3))
    for chi, alpha_d, p_dc in cases:
        res = swap_conditional_state(chi, 0.3, alpha_d, p_dc, TruncationPolicy(n_max=n_max))
        det = bsm_detector(0.3, alpha_d, p_dc)
        for theta_alice in (0.0, math.pi / 4.0):
            scan = visibility_scan(res, det, theta_alice)
            want = brute_force_visibility(_bob_angle_curve(res, det, theta_alice), scan)
            assert scan.visibility == pytest.approx(want, rel=1e-11, abs=0.0)
    assert scan.visibility < 1e-6


def test_constant_fringe_has_zero_visibility():
    """The vacuum's dark-count fringe is flat: its derivative polynomial is
    zero, so theta = 0 is the only candidate and both extrema are equal."""
    scan = visibility_scan(vacuum_conditional(), ThresholdDetector(eta=0.5, p_dc=1e-3))
    assert scan.visibility == 0.0
    assert scan.p_max == scan.p_min == pytest.approx((1e-3 * (1 - 1e-3)) ** 2, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    n_max=st.integers(1, 5),
    eta0=st.floats(0.05, 1.0),
    alpha_d=st.floats(0.0, 40.0),
    p_dc=st.floats(0.0, 1e-2),
    chi=st.floats(1e-3, 0.3),
    theta_alice=st.floats(0.0, math.pi),
)
def test_scan_extrema_bound_the_fringe(n_max, eta0, alpha_d, p_dc, chi, theta_alice):
    """No angle of a dense grid lies outside [p_min, p_max], and p_max is the
    curve's value at theta_max."""
    res = swap_conditional_state(chi, eta0, alpha_d, p_dc, TruncationPolicy(n_max=n_max))
    det = bsm_detector(eta0, alpha_d, p_dc)
    scan = visibility_scan(res, det, theta_alice)
    curve = _bob_angle_curve(res, det, theta_alice)
    values = curve(np.linspace(0.0, math.pi, 2001))
    slack = 1e-12 * scan.p_max
    assert values.max() <= scan.p_max + slack
    assert values.min() >= scan.p_min - slack
    assert curve(scan.theta_max)[0] == scan.p_max


@settings(max_examples=30, deadline=None)
@given(
    n_max=st.integers(1, 4),
    eta0=st.floats(0.05, 1.0),
    alpha_d=st.floats(0.0, 40.0),
    p_dc=st.floats(0.0, 1e-2),
    setting=st.sampled_from([Z_BASIS, X_BASIS, OFF_AXIS]),
)
def test_sector_coefficients_are_bounded(n_max, eta0, alpha_d, p_dc, setting):
    """Sector N of the brightness-free state holds C(N+3,3) unit-weight
    photon configurations, so its coincidences lie in [0, C(N+3,3)]; wrong
    coincidences never exceed the total."""
    graded = graded_swap_state(eta0, alpha_d, p_dc, TruncationPolicy(n_max=n_max))
    det = bsm_detector(eta0, alpha_d, p_dc)
    povms = _setting_povms(graded, det, setting)
    sectors = _sector_table(graded, *povms).sum(axis=(0, 2))  # [N_A, N_B]
    n_blocks = 2 * n_max + 1
    for n in range(2 * n_blocks - 1):
        a_n = sum(sectors[n_a, n - n_a] for n_a in range(n_blocks) if 0 <= n - n_a < n_blocks)
        bound = math.comb(n + 3, 3)
        assert -1e-14 * bound <= a_n <= bound * (1.0 + 1e-12), n
    wrong, total = qber_polynomial(graded)
    assert np.all(wrong >= -1e-14 * np.abs(total).max())
    assert np.all(wrong <= total + 1e-14 * np.abs(total).max())


@pytest.mark.parametrize("n_max", [2, 4, 6])
def test_sector_table_sums_to_coincidence_table(n_max):
    """The graded sectors, weighted (1-t)^4 t^(N_A+N_B), rebuild the tables at chi."""
    det = bsm_detector(0.3, 10.0, 1e-4)
    graded = graded_swap_state(0.3, 10.0, 1e-4, TruncationPolicy(n_max=n_max))
    n = np.arange(2 * n_max + 1)
    for chi in (0.01, 0.15, 0.3):
        t = math.tanh(chi) ** 2
        weight = (1.0 - t) ** 4 * t ** np.add.outer(n, n)
        res, _ = swap_case(n_max, chi, 1e-4)
        for setting in (Z_BASIS, X_BASIS, OFF_AXIS):
            sectors = _sector_table(graded, *_setting_povms(graded, det, setting))
            p = (sectors * weight[None, :, None, :]).sum(axis=(1, 3))
            table = fourfold_coincidence(res, setting, det)
            want = np.array([[table.p_hh, table.p_hv], [table.p_vh, table.p_vv]])
            assert np.allclose(p, want, rtol=1e-12, atol=0.0)


def _polynomial(p: np.ndarray):
    """(W, T) of a sector table p[a, N_A, b, N_B], binned by N_A + N_B."""
    n = np.add.outer(np.arange(p.shape[1]), np.arange(p.shape[3]))
    wrong = p[0, :, 0, :] + p[1, :, 1, :]
    return tuple(np.bincount(n.reshape(-1), x.reshape(-1)) for x in (wrong, p.sum(axis=(0, 2))))


@pytest.mark.parametrize("n_max", range(1, 7))
def test_sector_table_matches_mask_reference(n_max):
    """The contraction over photon-difference blocks gives the masked dense
    contraction's sector tables (dense_reference.sector_table) to 1e-13 of
    the largest entry, for graded and chi states, and qber_polynomial's
    coefficients to 1e-12 relative."""
    policy = TruncationPolicy(n_max=n_max)
    for eta0, alpha_d, p_dc in ((0.3, 10.0, 1e-4), (0.2, 40.0, 0.0), (0.9, 0.0, 1e-2)):
        det = bsm_detector(eta0, alpha_d, p_dc)
        graded = graded_swap_state(eta0, alpha_d, p_dc, policy)
        states = (graded, swap_conditional_state(0.2, eta0, alpha_d, p_dc, policy))
        for state in states:
            for setting in (Z_BASIS, X_BASIS, OFF_AXIS):
                want = sector_table(state, det, setting)
                got = _sector_table(state, *_setting_povms(state, det, setting))
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (eta0, setting)
        # coefficients that vanish in exact arithmetic (no wrong coincidences
        # from one pair per source without dark counts) are rounding noise
        want = _polynomial(sum(sector_table(graded, det, s) for s in (Z_BASIS, X_BASIS)))
        floor = 1e-15 * np.abs(want[1]).max()
        for got, ref in zip(qber_polynomial(graded), want):
            assert np.all(np.abs(got - ref) <= np.maximum(1e-12 * np.abs(ref), floor)), (eta0, alpha_d)


@settings(max_examples=40, deadline=None)
@given(
    n_max=st.integers(1, 3),
    eta0=st.floats(0.05, 1.0),
    alpha_d=st.floats(0.0, 50.0),
    p_dc=st.floats(0.0, 1e-2),
    chi=st.floats(1e-3, 0.3),
    analyzer=st.one_of(st.none(), st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1e-2))),
)
def test_key_basis_tables_match_dense_contraction(n_max, eta0, alpha_d, p_dc, chi, analyzer):
    """qber(...)'s Z and X tables equal the dense contraction of the
    swap state (dense_reference.dense_probabilities), for the BSM's own
    detector (analyzer None) or another one.  Each entry agrees to 1e-12
    relative; entries that vanish in exact arithmetic are rounding noise, so
    the floor is 1e-14 of the table's largest entry."""
    res = swap_conditional_state(chi, eta0, alpha_d, p_dc, TruncationPolicy(n_max=n_max))
    det = bsm_detector(eta0, alpha_d, p_dc) if analyzer is None else ThresholdDetector(*analyzer)
    report = qber(with_detector(res, det))
    cond = dense_state(res)
    for table, basis in ((report.table_z, Z_BASIS), (report.table_x, X_BASIS)):
        probs = dense_probabilities(cond, det, basis.theta_alice, basis.theta_bob)
        want = {
            "p_hh": probs[("h", "h")],
            "p_hv": probs[("h", "v")],
            "p_vh": probs[("v", "h")],
            "p_vv": probs[("v", "v")],
            "p_double_alice": sum(probs[("both", kb)] for kb in _OUTCOMES),
            "p_double_bob": sum(probs[(ka, "both")] for ka in _OUTCOMES),
        }
        floor = 1e-14 * max(abs(v) for v in want.values())
        for name, value in want.items():
            assert getattr(table, name) == pytest.approx(value, rel=1e-12, abs=floor), name


@pytest.mark.parametrize("chi", [0.01, 0.1, 0.3])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_key_basis_tables_equal_fourfold_coincidence(n_max, chi):
    """qber(...)'s Z and X tables are fourfold_coincidence's for the
    BSM's own detector, exactly: both run the same stack builder and
    contraction."""
    res = swap_conditional_state(chi, 0.3, 10.0, 1e-4, TruncationPolicy(n_max=n_max))
    report = qber(res)
    assert report.table_z == fourfold_coincidence(res, Z_BASIS, res.det)
    assert report.table_x == fourfold_coincidence(res, X_BASIS, res.det)
