import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_pair_herald_budget
from dense_reference import (
    HERALDS,
    MODE_ORDER,
    SURVIVING_MODES,
    ModeRegister,
    apply_psi_plus_correction,
    bell_psi_minus,
    dense_state,
    dense_swap_state,
    fidelity_with_pure,
    pair_layout,
    perform_bsm,
    two_source_state,
)
from swapkd.detectors import ThresholdDetector
from swapkd.fock import TruncationPolicy, detector_pair_povms
from swapkd.metrics import _bob_operators
from swapkd.swap import bsm_detector, graded_swap_state, link_povms, swap_conditional_state


def single_pair_per_source_register(policy: TruncationPolicy) -> ModeRegister:
    """Equal-weight product of one pair from each source, all amplitudes 1/2."""
    idx = {m: i for i, m in enumerate(MODE_ORDER)}
    amp = np.zeros((policy.dim,) * 8, dtype=complex)
    for pair1 in (("aH", "bH"), ("aV", "bV")):
        for pair2 in (("cH", "dH"), ("cV", "dV")):
            occ = [0] * 8
            for m in pair1 + pair2:
                occ[idx[m]] = 1
            amp[tuple(occ)] = 0.5
    return ModeRegister(MODE_ORDER, policy, amp)


def one_photon_per_side_indices(n_max: int):
    d = n_max + 1
    return [
        n
        for n, (i, j, k, l) in enumerate(np.ndindex(d, d, d, d))
        if i + j == 1 and k + l == 1
    ]


def test_accepted_patterns_enumeration():
    """The reference's heralds: every pattern with one H and one V click."""
    assert len({clicks for clicks, _ in HERALDS}) == len(HERALDS) == 4
    assert sum(1 for _, psi_plus in HERALDS if psi_plus) == 2
    for (bh, bv, ch, cv), psi_plus in HERALDS:
        assert bh + ch == 1 and bv + cv == 1
        # psi+ clicks the same mixer output for H and V, psi- opposite ones
        assert psi_plus == (bh == bv)


def test_bsm_detector_folds_quarter_span_loss():
    det = bsm_detector(0.4, 20.0, 1e-5)
    # each of the four arms carries a quarter of the total span loss
    assert det.eta == pytest.approx(0.4 * 10.0 ** (-0.5), rel=1e-12)
    assert det.p_dc == 1e-5


@pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
def test_bsm_herald_budget_half_eta_squared(eta):
    """Single pair per source, no dark counts: accepted heralds sum to eta^2 / 2.

    Checked on the reference's mixer elements and on its dense BSM.  The
    reference's n_max=1 register is exact here: mixer overflow only ever
    lands in single-detector branches, which no accepted pattern keeps.
    """
    assert abs(single_pair_herald_budget(eta) - 0.5 * eta * eta) < 1e-8
    policy = TruncationPolicy(n_max=1, convergence_tol=0.6)
    reg = single_pair_per_source_register(policy)
    det = ThresholdDetector(eta, 0.0)
    total = sum(perform_bsm(reg, det, clicks).herald_probability for clicks, _ in HERALDS)
    assert abs(total - 0.5 * eta * eta) < 1e-8


# Index of each (first output clicks, second output clicks) demand in the
# stack of fock.detector_pair_povms.
_ENGINE_OUTCOME = {(True, False): 0, (False, True): 1, (True, True): 2, (False, False): 3}


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(0.0, 1.0))
def test_engine_bsm_herald_budget_half_eta_squared(eta):
    """The same budget on the engine's own BSM elements, at any efficiency."""

    def engine_mixer(det, click1, click2):
        stack = pair_layout(detector_pair_povms(1, (math.pi / 4.0,), det)[0])
        return stack[_ENGINE_OUTCOME[click1, click2]]

    assert abs(single_pair_herald_budget(eta, engine_mixer) - 0.5 * eta * eta) < 1e-8


def test_herald_probability_low_brightness_scaling():
    """Ideal detectors: aggregate herald approaches 4 chi^4 as chi -> 0."""
    res = swap_conditional_state(0.01, 1.0, 0.0, 0.0, TruncationPolicy(n_max=3))
    ratio = res.herald_probability / (4.0 * 0.01 ** 4)
    assert abs(ratio - 1.0) < 2e-3


def test_aggregate_fidelity_is_one_half():
    """The raw heralded state is an even singlet/junk mixture.

    Both-pairs-from-one-source emissions fire one H and one V detector, an
    accepted pattern, with the same total weight as the swapped singlets, so
    without post-selection the singlet fraction is exactly 1/2 at chi -> 0.
    """
    policy = TruncationPolicy(n_max=3)
    res = swap_conditional_state(0.01, 1.0, 0.0, 0.0, policy)
    target = bell_psi_minus(policy)
    f = fidelity_with_pure(dense_state(res), target)
    assert abs(f - 0.5) < 5e-4


def test_postselected_fidelity_near_unity():
    """Restricted to one photon on each side, the heralded state is the singlet."""
    policy = TruncationPolicy(n_max=3)
    res = swap_conditional_state(0.01, 1.0, 0.0, 0.0, policy)
    sel = one_photon_per_side_indices(policy.n_max)
    rho_sel = dense_state(res).rho[np.ix_(sel, sel)]
    target = bell_psi_minus(policy).amplitudes.reshape(-1)[sel]
    f = float(np.real(target.conj() @ rho_sel @ target) / np.trace(rho_sel).real)
    assert f > 0.999


def test_psi_plus_patterns_need_the_frame_correction():
    """Uncorrected psi+ heralds carry the opposite relative sign."""
    policy = TruncationPolicy(n_max=3)
    cond = dense_swap_state(0.01, 1.0, 0.0, 0.0, policy, correction=False)
    # build psi+ on the survivors: same occupations as psi-, both signs +
    plus = bell_psi_minus(policy).amplitudes.copy()
    plus = np.abs(plus)
    sel = one_photon_per_side_indices(policy.n_max)
    rho_sel = cond.rho[np.ix_(sel, sel)]

    def overlap(vec):
        v = vec.reshape(-1)[sel]
        return float(np.real(v.conj() @ rho_sel @ v) / np.trace(rho_sel).real)

    minus = bell_psi_minus(policy).amplitudes
    # aggregate without correction: half the heralds project to each state
    assert overlap(plus) == pytest.approx(0.5, abs=1e-3)
    assert overlap(minus) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("n_max", range(1, 8))
def test_mixer_output_exchange_is_a_parity_on_its_second_input(n_max):
    """A balanced mixer with one detector model on both outputs does not
    change when its outputs are exchanged, and that exchange is the parity
    (-1)^n on its second input: in the BSM's realigned stack (the X stack),
    "only the c' output clicks" is "only the b' output clicks" times
    (-1)^(k+K) over the second input's (k, K).  The swap builds its psi+
    heralds from this (swap._heralded_state)."""
    parity = (-1.0) ** np.arange(n_max + 1)
    flip = np.outer(parity, parity).reshape(-1)
    for eta, p_dc in ((0.0, 0.0), (0.0, 0.3), (0.01, 1e-6), (0.3, 1e-4), (0.77, 0.3),
                      (1.0, 0.0), (1.0, 1e-3)):
        x = link_povms(n_max, ThresholdDetector(eta, p_dc))[1]
        assert np.abs(x[1] - x[0] * flip).max() <= 1e-13 * np.abs(x).max(), (eta, p_dc)


def test_corrected_psi_plus_heralds_equal_their_psi_minus_partners():
    """In the dense reference, each psi+ herald rotated into the psi- frame
    leaves the state of the psi- herald with the same H click: (b'H, b'V)
    that of (b'H, c'V), and (c'H, c'V) that of (b'V, c'H)."""
    policy = TruncationPolicy(n_max=2, convergence_tol=0.5)
    state = two_source_state(0.2, policy)
    det = bsm_detector(0.6, 4.0, 1e-3)
    heralded = {clicks: perform_bsm(state, det, clicks) for clicks, _ in HERALDS}
    plus = [clicks for clicks, psi_plus in HERALDS if psi_plus]
    minus = [clicks for clicks, psi_plus in HERALDS if not psi_plus]
    for clicks in plus:
        (partner,) = [m for m in minus if (m[0], m[2]) == (clicks[0], clicks[2])]
        got = apply_psi_plus_correction(heralded[clicks])
        want = heralded[partner]
        assert np.abs(got.rho - want.rho).max() <= 1e-13 * np.abs(want.rho).max()
        assert got.herald_probability == pytest.approx(want.herald_probability, rel=1e-13)


def test_psi_plus_correction_diagonal_phase():
    policy = TruncationPolicy(n_max=2)
    cond = dense_state(swap_conditional_state(0.05, 0.8, 2.0, 1e-5, policy))
    corrected = apply_psi_plus_correction(cond)
    assert corrected.herald_probability == cond.herald_probability
    # applying the dV parity twice is the identity
    twice = apply_psi_plus_correction(corrected)
    assert np.allclose(twice.rho, cond.rho)


def test_factored_matches_dense_pipeline():
    policy = TruncationPolicy(n_max=3)
    args = dict(chi=0.02, eta0=0.4, alpha_d_db=3.0, p_dc=1e-4, policy=policy)
    rf = swap_conditional_state(**args)
    rd = dense_swap_state(**args)
    rho_f = dense_state(rf).rho
    scale = np.abs(rho_f).max()
    assert np.abs(rho_f - rd.rho).max() / scale < 1e-8
    assert rf.herald_probability == pytest.approx(rd.herald_probability, rel=1e-8)


def test_swap_result_shape_and_validity():
    policy = TruncationPolicy(n_max=2)
    res = swap_conditional_state(0.1, 0.5, 5.0, 1e-5, policy)
    assert res.n_max == 2
    # one factor pair per H click pair of the accepted heralds
    h_clicks = {(clicks[0], clicks[2]) for clicks, _ in HERALDS}
    assert res.th.shape == res.tv.shape == (len(h_clicks), 9, 9)
    cond = dense_state(res)
    assert cond.labels == SURVIVING_MODES
    cond.validate()
    assert res.herald_probability > 0.0


@pytest.mark.parametrize("n_max", [1, 3, 5])
def test_engine_operators_are_real(n_max):
    """The pair factors, both key-basis stacks and Bob's operators are float64:
    every optic is a real rotation, every detector is diagonal, and the pair
    amplitudes' phases cancel on the BSM elements' support."""
    policy = TruncationPolicy(n_max=n_max)
    for res in (swap_conditional_state(0.1, 0.3, 10.0, 1e-4, policy),
                graded_swap_state(0.3, 10.0, 1e-4, policy)):
        arrays = (res.th, res.tv, *res.povms, *(_bob_operators(res, p) for p in res.povms))
        assert [a.dtype for a in arrays] == [np.float64] * 6
