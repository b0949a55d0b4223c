import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import swapkd.rates as rates_module
from swapkd.rates import (
    DecoyInputs,
    bisect,
    decoy_inputs,
    decoy_rate_report,
    grid_max,
    h2,
    optimal_mu,
    qber_threshold,
    secret_rate,
    sifted_rate,
)


def test_h2_endpoints_and_symmetry():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.5) == pytest.approx(1.0, abs=1e-15)
    assert h2(0.3) == pytest.approx(h2(0.7), abs=1e-15)
    # reference value pinned with 50-digit arithmetic
    assert h2(0.11) == pytest.approx(0.4999159581645280, abs=1e-15)
    with pytest.raises(ValueError):
        h2(-0.01)
    with pytest.raises(ValueError):
        h2(1.01)


def test_sifted_rate_literal_form():
    chi, eta0, alpha = 0.1, 0.3, 10.0
    expect = 0.25 * chi ** 4 * eta0 ** 4 * 10.0 ** (-alpha / 10.0)
    assert sifted_rate(chi, eta0, alpha) == pytest.approx(expect, rel=1e-14)
    # 10 dB of span loss costs exactly one decade
    assert sifted_rate(chi, eta0, 20.0) == pytest.approx(expect / 10.0, rel=1e-14)


def test_secret_rate_clamps():
    raw, clamped = secret_rate(1e-6, 0.0, 1.22)
    assert raw == clamped == pytest.approx(1e-6)
    raw, clamped = secret_rate(1e-6, 0.25, 1.22)
    assert raw < 0.0
    assert clamped == 0.0
    # at threshold the rate changes sign
    q_star = qber_threshold(1.22)
    raw_lo, _ = secret_rate(1.0, q_star - 1e-6, 1.22)
    raw_hi, _ = secret_rate(1.0, q_star + 1e-6, 1.22)
    assert raw_lo > 0.0 > raw_hi


@pytest.mark.parametrize("kappa", [0.9, math.nan, math.inf])
def test_kappa_validation(kappa):
    with pytest.raises(ValueError):
        secret_rate(1e-6, 0.05, kappa)
    with pytest.raises(ValueError):
        qber_threshold(kappa)


def test_qber_threshold_frozen_values():
    assert qber_threshold(1.22) == pytest.approx(0.0942351659577642, abs=1e-9)
    assert qber_threshold(1.0) == pytest.approx(0.1100278644383596, abs=1e-9)


def test_decoy_inputs_validation():
    with pytest.raises(ValueError):
        DecoyInputs(mu=0.05, eta_bob=0.2, y0=1e-5, nu=0.1)
    with pytest.raises(ValueError):
        DecoyInputs(mu=0.5, eta_bob=1.5, y0=1e-5)
    for kappa in (math.nan, math.inf):
        with pytest.raises(ValueError):
            DecoyInputs(mu=0.5, eta_bob=0.2, y0=1e-5, kappa=kappa)
    for mu, nu in ((math.inf, 0.1), (math.nan, 0.1), (0.5, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValueError):
            DecoyInputs(mu=mu, eta_bob=0.2, y0=1e-5, nu=nu)
    d = decoy_inputs(0.7, 0.2, 10.0, 1.8e-5)
    assert d.eta_bob == pytest.approx(0.02, rel=1e-12)
    assert d.y0 == pytest.approx(3.6e-5, rel=1e-12)


def test_decoy_chain_frozen_golden():
    """Full vacuum+weak chain at mu=0.7, eta0=0.2, 10 dB, p_dc=1.8e-5."""
    rep = decoy_rate_report(decoy_inputs(0.7, 0.2, 10.0, 1.8e-5))
    assert rep.q_mu == pytest.approx(1.393845573713810e-02, rel=1e-12)
    assert rep.y1_lower == pytest.approx(1.913129378826677e-02, rel=1e-12)
    assert rep.q1_lower == pytest.approx(6.650223536438411e-03, rel=1e-12)
    assert rep.e1_upper == pytest.approx(9.895182972532062e-04, rel=1e-12)
    assert rep.r_sec == pytest.approx(3.166323188078451e-03, rel=1e-12)
    assert not rep.y1_clamped and not rep.e1_clamped


def test_decoy_degenerate_no_dark_counts():
    """With p_dc = 0 the error terms vanish and R = Q1 / 2 exactly."""
    rep = decoy_rate_report(decoy_inputs(0.5, 0.3, 15.0, 0.0))
    assert rep.e_mu == 0.0
    assert rep.e1_upper == 0.0
    assert rep.r_sec == rep.q1_lower / 2.0
    assert rep.r_sec == decoy_rate_report(decoy_inputs(0.5, 0.3, 15.0, 0.0)).r_sec


def test_decoy_log_rate_affine_in_loss_without_dark_counts():
    rates = [
        decoy_rate_report(decoy_inputs(0.5, 0.3, a, 0.0)).r_sec for a in (10.0, 20.0, 30.0)
    ]
    slopes = [
        (math.log10(rates[i + 1]) - math.log10(rates[i])) / 10.0 for i in range(2)
    ]
    for s in slopes:
        assert s == pytest.approx(-0.1, rel=1e-2)


def test_decoy_rate_monotone_in_loss():
    rates = [decoy_rate_report(decoy_inputs(0.5, 0.2, a, 1e-6)).r_sec for a in (0, 10, 20, 30)]
    assert all(rates[i] > rates[i + 1] for i in range(3))


def test_decoy_clamp_flags():
    """Heavy dark counts push the single-photon error bound past 1/2."""
    rep = decoy_rate_report(decoy_inputs(0.15, 0.2, 40.0, 5e-3))
    assert rep.e1_clamped
    assert rep.r_sec == 0.0


def test_decoy_large_intensity_raises_no_overflow_warning():
    """exp(mu) overflows past mu ~ 709; Y1 is clamped to 0 there, and the
    chain says so without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = decoy_rate_report(decoy_inputs(800.0, 0.2, 10.0, 1e-6))
    assert rep.r_sec == 0.0
    assert rep.y1_clamped


def test_optimal_mu_grid_matches_the_report():
    """optimal_mu's one-call grid gives decoy_rate_report's rate and clamp
    flags at every grid intensity, clamped rows included."""
    # above optimal_mu's range, at mu 4 and 5, the lower bound on Y1 is
    # negative and clamped
    grid = np.append(rates_module._mu_grid(0.1), [4.0, 5.0])
    flags = set()
    for p_dc in (0.0, 1e-6, 1.8e-5, 5e-3):
        for alpha_d in [*range(0, 61, 5), 150]:
            d = decoy_inputs(float(grid[-1]), 0.2, alpha_d, p_dc)
            bounds = rates_module._decoy_bounds(d, grid)
            for i, mu in enumerate(grid):
                rep = decoy_rate_report(decoy_inputs(float(mu), 0.2, alpha_d, p_dc))
                assert bounds.r_sec[i] == rep.r_sec, (p_dc, alpha_d, mu)
                row_flags = (bool(bounds.y1_clamped[i]), bool(bounds.e1_clamped[i]))
                assert row_flags == (rep.y1_clamped, rep.e1_clamped), (p_dc, alpha_d, mu)
                flags.add(row_flags)
    assert flags == {(False, False), (False, True), (True, False)}


def _decimal_gain(eta: float, y0: float, k: float) -> Decimal:
    """Q_k = Y0 + 1 - exp(-eta k) in 50-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(y0) + 1 - (-Decimal(eta) * Decimal(k)).exp()


@pytest.mark.parametrize("p_dc", [0.0, 1e-6])
@pytest.mark.parametrize("alpha_d", [40.0, 50.0, 60.0, 70.0, 80.0])
def test_decoy_gains_keep_full_precision_at_long_distance(alpha_d, p_dc):
    """At 40-80 dB, eta*k is about 2e-10 to 2e-5, where Y0 + 1 - exp(-eta k)
    keeps only 6 to 11 correct digits; the gains stay within a few ulps of
    the 50-digit value."""
    mu = np.array([0.15, 0.4, 0.8])
    d = decoy_inputs(0.5, 0.2, alpha_d, p_dc)
    bounds = rates_module._decoy_bounds(d, mu)
    for q, k in [*zip(bounds.q_mu, mu), (bounds.q_nu, d.nu)]:
        want = _decimal_gain(d.eta_bob, d.y0, float(k))
        assert abs(Decimal(float(q)) - want) <= 4 * Decimal(math.ulp(float(want))), (alpha_d, p_dc, k)


def test_optimal_mu_is_local_maximum():
    mu_star, r_star = optimal_mu(0.2, 10.0, 1.8e-5)
    assert 0.05 <= mu_star <= 1.0
    assert mu_star > 0.1
    for d in (-0.01, 0.01):
        r = decoy_rate_report(decoy_inputs(mu_star + d, 0.2, 10.0, 1.8e-5)).r_sec
        assert r <= r_star + 1e-15


def test_sifted_rate_validation():
    with pytest.raises(ValueError):
        sifted_rate(-0.1, 0.3, 10.0)
    with pytest.raises(ValueError):
        sifted_rate(0.1, 1.3, 10.0)


# grid_max on a 5-point grid whose middle point is the best, bracketed by 1 and 3.
SEARCH_GRID = [0.0, 1.0, 2.0, 3.0, 4.0]
SEARCH_FINE = np.linspace(1.0, 3.0, 20)  # misses the grid point 2.0


def recording(f):
    """f, with every argument it is called with appended to .calls."""
    def g(x):
        g.calls.append(x)
        return f(x)
    g.calls = []
    return g


def test_grid_max_unimodal_curve_raises_no_guard():
    x, fx, guard = grid_max(lambda x: 1.0 - (x - 2.3) ** 2, SEARCH_GRID, 1e-8, fine_points=20)
    assert not guard
    assert x == pytest.approx(2.3, abs=1e-6)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_grid_max_guard_takes_fine_scan_winner():
    # Golden section never lands on either spike, so it ends below the grid's best.
    spikes = {2.0: 1.0, float(SEARCH_FINE[7]): 2.0}
    x, fx, guard = grid_max(lambda x: spikes.get(x, 0.0), SEARCH_GRID, 1e-3, fine_points=20)
    assert guard
    assert (x, fx) == (float(SEARCH_FINE[7]), 2.0)


def test_grid_max_guard_falls_back_to_grid_point():
    # Neither golden section nor the fine scan reaches the one spike; with
    # fine_points=0 the fine scan is skipped.
    coarse, fine = (recording(lambda x: 1.0 if x == 2.0 else 0.0) for _ in range(2))
    assert grid_max(coarse, SEARCH_GRID, 1e-3) == (2.0, 1.0, True)
    assert grid_max(fine, SEARCH_GRID, 1e-3, fine_points=20) == (2.0, 1.0, True)
    assert fine.calls == coarse.calls + SEARCH_FINE.tolist()


def test_grid_max_returns_a_non_positive_best_unrefined():
    f = recording(lambda x: -1.0 - (x - 2.3) ** 2)
    x, fx, guard = grid_max(f, SEARCH_GRID, 1e-8, fine_points=20)
    assert f.calls == SEARCH_GRID
    assert (x, fx, guard) == (2.0, f(2.0), False)


def test_grid_max_takes_precomputed_grid_values():
    def parabola(x):
        return 1.0 - (x - 2.3) ** 2

    f, given = recording(parabola), recording(parabola)
    expected = grid_max(f, SEARCH_GRID, 1e-8)
    values = np.array([parabola(x) for x in SEARCH_GRID])
    assert grid_max(given, SEARCH_GRID, 1e-8, values=values) == expected
    assert f.calls[:len(SEARCH_GRID)] == SEARCH_GRID
    assert given.calls == f.calls[len(SEARCH_GRID):]


def test_bisect_lands_within_tol_of_the_boundary():
    edge = bisect(lambda x: x < 0.3141, 0.0, 1.0, 1e-6)
    assert abs(edge - 0.3141) <= 1e-6


def test_bisect_stops_at_the_current_bracket_on_none():
    side = recording(lambda x: None if x > 0.7 else True)
    assert bisect(side, 0.0, 1.0, 1e-6) == 0.75
    assert side.calls == [0.5, 0.75]
