import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swapkd
import swapkd.fock as fock_module
import swapkd.metrics as metrics_module
import swapkd.optimize as optimize_module
import swapkd.swap as swap_module
from swapkd.detectors import DEFAULT_CONSTRAINT, DetectorConstraint
from swapkd.errors import TruncationError
from swapkd.fock import TruncationPolicy
from swapkd.optimize import (
    CHI_SEARCH_MAX,
    CHI_SEARCH_MIN,
    CHI_TOL,
    Scenario,
    _observables,
    _pipeline_once,
    _search_chi,
    es_optimal_rate,
    evaluate,
    find_crossover,
    max_positive_alpha,
    optimize_chi,
    optimize_joint,
    sweep,
)
from swapkd.rates import decoy_inputs, decoy_rate_report, golden_max, secret_rate, sifted_rate


def test_scenario_requires_exactly_one_dark_count_source():
    with pytest.raises(ValueError):
        Scenario(alpha_d_db=10.0, chi=0.1, eta0=0.3)
    with pytest.raises(ValueError):
        Scenario(
            alpha_d_db=10.0, chi=0.1, eta0=0.3, p_dc=1e-5, constraint=DEFAULT_CONSTRAINT
        )
    s = Scenario(alpha_d_db=10.0, chi=0.1, eta0=0.3, p_dc=1e-5)
    assert s.resolved_p_dc == 1e-5
    s = Scenario(alpha_d_db=10.0, chi=0.1, eta0=0.3, constraint=DEFAULT_CONSTRAINT)
    assert s.resolved_p_dc == pytest.approx(1.000533634529401e-04, rel=1e-12)


def test_scenario_range_validation():
    with pytest.raises(ValueError):
        Scenario(alpha_d_db=-1.0, chi=0.1, eta0=0.3, p_dc=1e-5)
    with pytest.raises(ValueError):
        Scenario(alpha_d_db=1.0, chi=0.4, eta0=0.3, p_dc=1e-5)
    with pytest.raises(ValueError):
        Scenario(alpha_d_db=1.0, chi=0.1, eta0=1.3, p_dc=1e-5)
    with pytest.raises(ValueError):
        Scenario(alpha_d_db=1.0, chi=0.1, eta0=0.3, p_dc=1.0)
    for kappa in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            Scenario(alpha_d_db=1.0, chi=0.1, eta0=0.3, p_dc=1e-5, kappa=kappa)


def test_evaluate_is_deterministic():
    s = Scenario(alpha_d_db=5.0, chi=0.1, eta0=0.3, constraint=DEFAULT_CONSTRAINT)
    a = evaluate(s)
    b = evaluate(s)
    assert a.r_sec == b.r_sec
    assert a.qber == b.qber
    assert a.visibility == b.visibility
    assert a.n_max_used == b.n_max_used
    assert a.converged and b.converged


def test_evaluate_escalates_past_the_base_cutoff():
    s = Scenario(
        alpha_d_db=5.0,
        chi=0.1,
        eta0=0.3,
        p_dc=1e-5,
        policy=TruncationPolicy(n_max=3),
    )
    single = metrics_module.qber(_pipeline_once(s, 3))
    full = evaluate(s)
    assert full.converged
    assert full.n_max_used > 3
    assert full.qber == pytest.approx(single.qber, rel=1e-3)


def test_evaluate_scans_the_fringe_once(monkeypatch):
    """Visibility is scanned in Z and X at the accepted cutoff only; this
    point escalates from n_max 4 to 6."""
    scanned = []
    scan = metrics_module._extrema

    def counting(curve):
        scanned.append(len(curve.g) // 2)  # a fringe at cutoff n has 2n terms
        return scan(curve)

    monkeypatch.setattr(metrics_module, "_extrema", counting)
    rep = evaluate(Scenario(alpha_d_db=10.0, chi=0.25, eta0=0.3, p_dc=1e-4))
    assert rep.n_max_used == 6
    assert scanned == [rep.n_max_used] * 2


DARK_COUNTS = ({"p_dc": 0.0}, {"p_dc": 1e-4}, {"constraint": DEFAULT_CONSTRAINT})


@pytest.mark.parametrize("dark", DARK_COUNTS)
@pytest.mark.parametrize("chi", [1e-3, 0.1, 0.3])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
def test_base_cutoff_is_a_compression_of_the_next(n_max, chi, dark):
    """The observables evaluate() reads off the n_max+1 build, compressed to
    n_max, are those of a build at n_max."""
    s = Scenario(alpha_d_db=10.0, chi=chi, eta0=0.3, **dark)
    compressed = _pipeline_once(s, n_max + 1).compressed(n_max)
    sliced, built = (_observables(stage)[1] for stage in (compressed, _pipeline_once(s, n_max)))
    assert sliced == pytest.approx(built, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "chi, dark", [(0.25, {"p_dc": 1e-4}), (0.1, {"p_dc": 0.0}), (0.2, {"constraint": DEFAULT_CONSTRAINT})]
)
def test_evaluate_builds_each_cutoff_once(monkeypatch, chi, dark):
    """One swap and one detector-stack build (both key angles, 0 and pi/4,
    the BSM's) per cutoff built, no build at the base cutoff, and one set of
    fringe weights; the fringe V is visibility() of the accepted build."""
    runs = _record_calls(monkeypatch, "swap_conditional_state")
    counts = {"detector_pair_povms": 0, "_analyzer_weights": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(swap_module, "detector_pair_povms")
    counting(metrics_module, "detector_pair_povms")
    counting(metrics_module, "_analyzer_weights")
    s = Scenario(alpha_d_db=10.0, chi=chi, eta0=0.3, **dark)
    rep = evaluate(s)
    built = rep.n_max_used - s.policy.n_max
    assert len(runs) == built
    assert [result.n_max for _, result in runs] == list(range(s.policy.n_max + 1, rep.n_max_used + 1))
    assert counts == {"detector_pair_povms": built, "_analyzer_weights": 1}
    accepted = runs[-1][1]
    assert rep.visibility == metrics_module.visibility(accepted)


def test_es_optimal_rate_builds_two_detector_stacks(monkeypatch):
    """A brightness search builds one graded state and reads its QBER
    polynomial: both detector stacks in one call, at the key-basis angles."""
    calls = []

    def counting(module):
        real = module.detector_pair_povms

        def wrapper(n_max, thetas, det):
            calls.append(tuple(thetas))
            return real(n_max, thetas, det)

        monkeypatch.setattr(module, "detector_pair_povms", wrapper)

    counting(swap_module)
    counting(metrics_module)
    es_optimal_rate(20.0, 0.2, 1.8e-5)
    assert calls == [(0.0, math.pi / 4.0)]


@settings(max_examples=30, deadline=None)
@given(
    chi=st.floats(1e-3, 0.3),
    eta0=st.floats(0.05, 0.6),
    alpha_d=st.floats(0.0, 40.0),
    p_dc=st.floats(0.0, 1e-3),
)
def test_evaluated_rows_are_physical(chi, eta0, alpha_d, p_dc):
    """QBER in [0, 1/2], 0 <= V <= 1, and a coincidence is a heralded event:
    each basis's coincidence probability <= herald probability <= 1."""
    rep = evaluate(Scenario(alpha_d_db=alpha_d, chi=chi, eta0=eta0, p_dc=p_dc))
    assert 0.0 <= rep.qber <= 0.5
    assert 0.0 <= rep.visibility <= 1.0
    for basis in ("z", "x"):
        assert rep.diagnostics[f"p_total_{basis}"] <= rep.herald_probability <= 1.0


def test_evaluate_reports_truncation_failure():
    s = Scenario(
        alpha_d_db=0.0,
        chi=0.2,
        eta0=1.0,
        p_dc=0.0,
        policy=TruncationPolicy(n_max=1, convergence_tol=1e-10),
    )
    with pytest.raises(TruncationError) as err:
        evaluate(s)
    assert err.value.values is not None
    prev_obs, cur_obs = err.value.values
    assert len(prev_obs) == len(cur_obs) == 3


def test_golden_max_quadratic():
    x, fx = golden_max(lambda x: -(x - 1.3) ** 2, 0.0, 2.0, tol=1e-8)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_optimize_chi_finds_local_maximum():
    pt = optimize_chi(10.0, 0.2, p_dc=1e-5)
    assert CHI_SEARCH_MIN <= pt.chi_opt <= CHI_SEARCH_MAX
    assert pt.positive and pt.converged
    assert pt.report is not None
    assert pt.r_sec_at_opt == pt.report.r_sec
    for d in (-0.005, 0.005):
        s = Scenario(alpha_d_db=10.0, chi=pt.chi_opt + d, eta0=0.2, p_dc=1e-5)
        r = evaluate(s).r_sec
        assert r <= pt.r_sec_at_opt * (1.0 + 1e-9)


def test_optimize_chi_no_positive_rate():
    pt = optimize_chi(40.0, 0.1, p_dc=0.05)
    assert not pt.positive
    assert math.isnan(pt.chi_opt)
    assert pt.r_sec_at_opt == 0.0


# Synthetic rate curves for the unimodality guard of _search_chi: a 5-point
# grid whose middle point is the best, bracketed by grid points 1 and 3.
GUARD_GRID = np.logspace(math.log10(CHI_SEARCH_MIN), math.log10(CHI_SEARCH_MAX), 5)
GUARD_FINE = np.linspace(GUARD_GRID[1], GUARD_GRID[3], 201)


def spikes(points):
    """Rate 0 everywhere except the exact chi values in points."""
    return lambda chi: points.get(float(chi), 0.0)


def test_search_chi_guard_takes_fine_scan_winner():
    # Golden-section refinement never lands on either spike, so it ends below
    # the grid's best value; the fine scan finds the higher spike.
    rate = spikes({float(GUARD_GRID[2]): 1.0, float(GUARD_FINE[37]): 2.0})
    chi, r, guard = _search_chi(rate, 5, CHI_TOL)
    assert guard
    assert (chi, r) == (float(GUARD_FINE[37]), 2.0)


def test_search_chi_guard_falls_back_to_grid_point():
    rate = spikes({float(GUARD_GRID[2]): 1.0})
    chi, r, guard = _search_chi(rate, 5, CHI_TOL)
    assert guard
    assert (chi, r) == (float(GUARD_GRID[2]), 1.0)


def test_search_chi_unimodal_curve_raises_no_guard():
    chi, r, guard = _search_chi(lambda c: 1.0 - math.log(c / 0.02) ** 2, 5, CHI_TOL)
    assert not guard
    assert chi == pytest.approx(0.02, abs=1e-4)
    assert r == pytest.approx(1.0, abs=1e-5)


def test_search_chi_no_positive_grid_value():
    chi, r, guard = _search_chi(lambda c: -c, 5, CHI_TOL)
    assert math.isnan(chi)
    assert (r, guard) == (0.0, False)


def test_sweep_preserves_order_and_captures_errors():
    bad_constraint = DetectorConstraint(a=0.5, b=17.0)
    scenarios = [
        Scenario(alpha_d_db=5.0, chi=0.05, eta0=0.3, p_dc=1e-5),
        Scenario(alpha_d_db=5.0, chi=0.05, eta0=0.3, constraint=bad_constraint),
        Scenario(alpha_d_db=10.0, chi=0.05, eta0=0.3, p_dc=1e-5),
    ]
    rows = sweep(scenarios)
    assert [r.scenario.alpha_d_db for r in rows] == [5.0, 5.0, 10.0]
    assert rows[0].report is not None and rows[0].error is None
    assert rows[1].report is None
    assert "p_dc" in rows[1].error
    assert rows[2].report is not None
    # less span loss keeps more key
    assert rows[0].report.r_sec > rows[2].report.r_sec


def test_sweep_propagates_programming_errors(monkeypatch):
    """Only physics and dark-count-fit errors become row errors; a TypeError
    or a ValueError raised inside evaluate aborts the sweep."""
    scenarios = [Scenario(alpha_d_db=5.0, chi=0.05, eta0=0.3, p_dc=1e-5)]
    for error in (TypeError("unsupported operand"), ValueError("math domain error")):

        def broken(s, *args, error=error, **kwargs):
            raise error

        monkeypatch.setattr(optimize_module, "evaluate", broken)
        with pytest.raises(type(error)):
            sweep(scenarios)


def test_pipeline_never_builds_dense_state():
    """evaluate() with visibility, escalating to n_max 6, runs on pair factors only.

    One dense conditional state at n_max 6 is a complex (7^4)^2 matrix of
    16 * 7^8 bytes; the whole evaluation must peak at a tenth of that.
    """
    tracemalloc.start()
    try:
        rep = evaluate(Scenario(alpha_d_db=10.0, chi=0.25, eta0=0.3, p_dc=1e-4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 7**8 / 10
    assert rep.converged
    assert rep.n_max_used == 6
    assert 0.0 < rep.visibility < 1.0


def test_max_positive_alpha_synthetic():
    def rate(alpha):
        return max(0.0, 1e-3 * (1.0 - alpha / 17.3))

    edge = max_positive_alpha(rate, alpha_lo=0.0, alpha_hi=40.0, step=2.5, tol=0.05)
    assert edge == pytest.approx(17.3, abs=0.05)
    # a rate that is not positive even at alpha_lo has no edge
    assert max_positive_alpha(lambda alpha: 0.0) is None


def test_distance_scans_stop_at_alpha_hi(monkeypatch):
    """Both scans sample alpha_lo + k*step only up to an off-lattice alpha_hi."""
    sampled = []

    def always_positive(alpha):
        sampled.append(alpha)
        return 1.0

    assert max_positive_alpha(always_positive, 0.0, 11.0, 3.0) == 9.0
    assert sampled == [0.0, 3.0, 6.0, 9.0]

    sampled.clear()
    es_optimal_rate = optimize_module.es_optimal_rate

    def recording(alpha, *args, **kwargs):
        sampled.append(alpha)
        return es_optimal_rate(alpha, *args, **kwargs)

    monkeypatch.setattr(optimize_module, "es_optimal_rate", recording)
    find_crossover(0.2, 1.8e-5, 0.0, 11.0, 3.0, policy=TruncationPolicy(n_max=2))
    assert sampled[:4] == [0.0, 3.0, 6.0, 9.0]
    assert max(sampled) <= 11.0


def test_decoy_rate_positive_at_short_range():
    assert decoy_rate_report(decoy_inputs(0.48, 0.2, 0.0, 1.8e-5)).r_sec > 1e-2


def _record_calls(monkeypatch, name):
    """Wrap optimize.<name>; returns the list of (positional args, result) pairs."""
    calls = []
    real = getattr(optimize_module, name)

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(optimize_module, name, recording)
    return calls


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
def test_polynomial_rate_matches_pipeline(n_max):
    """The rate curve the brightness searches use equals the single-cutoff
    pipeline at every grid chi, and its Horner sums equal np.polyval's exactly."""
    policy = TruncationPolicy(n_max=n_max)
    grid = np.logspace(math.log10(CHI_SEARCH_MIN), math.log10(CHI_SEARCH_MAX), 25)
    cases = (
        (0.3, 10.0, {"p_dc": 1e-4}),
        (0.2, 25.0, {"p_dc": 1.8e-5}),
        (0.6, 0.0, {"p_dc": 0.0}),
        (0.15, 5.0, {"constraint": DEFAULT_CONSTRAINT}),
        (0.3, 20.0, {"constraint": DEFAULT_CONSTRAINT}),
    )
    for eta0, alpha_d, dark in cases:
        base = Scenario(alpha_d_db=alpha_d, chi=CHI_SEARCH_MIN, eta0=eta0, policy=policy, **dark)
        rate = optimize_module._rate_curve(base)
        graded = swap_module.graded_swap_state(eta0, alpha_d, base.resolved_p_dc, policy)
        wrong, total = metrics_module.qber_polynomial(graded)
        for chi in grid:
            s = Scenario(alpha_d_db=alpha_d, chi=float(chi), eta0=eta0, policy=policy, **dark)
            q = metrics_module.qber(_pipeline_once(s, n_max)).qber
            want = secret_rate(sifted_rate(s.chi, eta0, alpha_d), min(q, 0.5), s.kappa)[1]
            assert rate(float(chi)) == pytest.approx(want, rel=1e-12, abs=0.0), (eta0, chi)
            t = math.tanh(chi) ** 2
            q_polyval = np.polyval(wrong[::-1], t) / np.polyval(total[::-1], t)
            r_sift = sifted_rate(s.chi, eta0, alpha_d)
            assert rate(float(chi)) == secret_rate(r_sift, min(q_polyval, 0.5), s.kappa)[1]


@pytest.mark.parametrize("eta0, alpha_d", [(1.0, 0.0), (0.3, 10.0), (0.5, 20.0)])
def test_sifted_rate_convention_at_low_brightness(eta0, alpha_d):
    """At p_dc 0 the engine's sifted coincidence probability tends to 4 times
    the analytic r_sift that the secret rate uses, and the herald to
    4 chi^4 eta_BSM^2, as chi -> 0; both gaps shrink as chi^2."""
    eta_bsm = swap_module.bsm_detector(eta0, alpha_d, 0.0).eta
    gaps = []
    for chi in (1e-2, 1e-3, 1e-4):
        r = evaluate(Scenario(alpha_d_db=alpha_d, chi=chi, eta0=eta0, p_dc=0.0))
        gap = (r.coincidence_probability / (4.0 * r.r_sift) - 1.0,
               r.herald_probability / (4.0 * chi**4 * eta_bsm**2) - 1.0)
        assert np.all(np.abs(gap) <= 8.0 * chi**2), (chi, gap)
        gaps.append(gap)
    for wide, narrow in zip(gaps, gaps[1:]):
        assert np.allclose(np.divide(narrow, wide), 1e-2, rtol=0.02), (wide, narrow)


@pytest.mark.parametrize("p_dc", [1.8e-5, 1e-6])
def test_searched_rate_at_the_default_cutoff_is_within_3e_5_of_cutoff_7(p_dc):
    """compare-decoy, crossover and fig7 read the swap rate curve at the
    default n_max 4 with no convergence check; on fig7's settings its best
    rate is within 3e-5 relative of the curve at n_max 7, at the same chi."""
    for alpha_d in np.arange(0.0, 51.0, 5.0):
        chi4, r4 = es_optimal_rate(alpha_d, 0.2, p_dc, policy=TruncationPolicy(n_max=4))
        chi7, r7 = es_optimal_rate(alpha_d, 0.2, p_dc, policy=TruncationPolicy(n_max=7))
        assert r4 == pytest.approx(r7, rel=3e-5, abs=0.0), alpha_d
        assert abs(chi4 - chi7) <= CHI_TOL, alpha_d


def test_optimize_chi_runs_the_pipeline_once(monkeypatch):
    """The search runs on one graded build; only optimize_chi's reported
    point goes through the pipeline, and es_optimal_rate runs none."""
    runs = _record_calls(monkeypatch, "swap_conditional_state")
    builds = _record_calls(monkeypatch, "graded_swap_state")
    evaluations = _record_calls(monkeypatch, "evaluate")
    chi, r = es_optimal_rate(10.0, 0.2, 1e-5)
    assert r > 0.0
    assert len(runs) == 0
    assert len(builds) == 1
    pt = optimize_chi(10.0, 0.2, p_dc=1e-5)
    assert (pt.chi_opt, pt.report.chi) == (chi, chi)
    assert len(builds) == 2
    assert len(evaluations) == 1
    assert len(runs) == pt.report.n_max_used - TruncationPolicy().n_max


def test_optimize_joint_builds_once_per_eta0(monkeypatch):
    policy = TruncationPolicy(n_max=2)
    runs = _record_calls(monkeypatch, "swap_conditional_state")
    builds = _record_calls(monkeypatch, "graded_swap_state")
    pt = optimize_joint(10.0, policy=policy)
    eta0s = [args[0] for args, _ in builds]
    assert len(set(eta0s)) == len(eta0s)
    assert pt.eta0_opt in eta0s
    # only the reported point runs the pipeline, escalating from n_max
    assert len(runs) == pt.report.n_max_used - policy.n_max


def test_optimize_joint_no_positive_rate():
    """Past every seed's positive-rate range the joint search reports no optimum."""
    pt = optimize_joint(120.0)
    assert not pt.positive
    assert math.isnan(pt.eta0_opt) and math.isnan(pt.chi_opt)
    assert pt.r_sec_at_opt == 0.0


def test_optimize_joint_guard_keeps_the_best_seed(monkeypatch):
    """A rate that is positive only at one seed eta0 defeats the outer golden
    section; the guard flag goes up and the best seed is reported."""
    seeds = np.linspace(*optimize_module.ETA0_SEARCH_RANGE, optimize_module.ETA0_SEED_POINTS)
    spike = float(seeds[5])

    def spiky_curve(s):
        height = 1.0 if s.eta0 == spike else 0.0
        return lambda chi: height * (1.0 - math.log(chi / 0.02) ** 2)

    monkeypatch.setattr(optimize_module, "_rate_curve", spiky_curve)
    pt = optimize_joint(10.0, policy=TruncationPolicy(n_max=2))
    assert pt.guard_flag
    assert pt.eta0_opt == spike
    assert pt.chi_opt == pytest.approx(0.02, abs=1e-3)


def _scan_with_differences(monkeypatch, difference):
    """Run _crossover_scan on alphas 0..4 with R_decoy - R_es = difference(alpha);
    None means both rates are zero.  Returns (result, sampled distances)."""
    sampled = []

    def r_es(alpha, *args, **kwargs):
        sampled.append(alpha)
        g = difference(alpha)
        return 0.0, (0.0 if g is None else 1.0)

    def r_dk(eta0, alpha, *args, **kwargs):
        g = difference(alpha)
        return 0.5, (0.0 if g is None else 1.0 + g)

    monkeypatch.setattr(optimize_module, "es_optimal_rate", r_es)
    monkeypatch.setattr(optimize_module, "optimal_mu", r_dk)
    result, rows = optimize_module._crossover_scan(
        0.2, 1e-5, [0.0, 1.0, 2.0, 3.0, 4.0], 0.01, 1.22, TruncationPolicy(), 0.1
    )
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    return result, sampled


def test_crossover_scan_returns_a_grid_distance_of_zero_difference(monkeypatch):
    result, sampled = _scan_with_differences(monkeypatch, lambda a: 2.0 - a if a >= 2.0 else 1.0)
    assert result == 2.0
    assert len(sampled) == 5


def test_crossover_scan_skips_pairs_with_undefined_difference(monkeypatch):
    # Sign changes across the undefined point at 1 dB are no bracket; the
    # crossover is the one between 2 and 3 dB.
    differences = {0.0: -1.0, 1.0: None, 2.0: 1.0}
    result, _ = _scan_with_differences(monkeypatch, lambda a: differences.get(a, 2.5 - a))
    assert result == pytest.approx(2.5, abs=0.01)


def test_crossover_scan_stops_at_an_undefined_midpoint(monkeypatch):
    # The bracket is (3, 4); its midpoint's difference is undefined, so the
    # bisection stops there without sampling further.
    result, sampled = _scan_with_differences(
        monkeypatch, lambda a: None if a == 3.5 else (1.0 if a <= 3.0 else -1.0)
    )
    assert result == 3.5
    assert sampled == [0.0, 1.0, 2.0, 3.0, 4.0, 3.5]


def test_new_detector_efficiencies_reuse_the_rotation_blocks():
    """Detector POVMs are polynomials in 1-eta over a block basis cached
    per (n_max, theta): once each cutoff's bases exist, new efficiencies
    (an alpha_d scan) build no basis."""
    def scenario(alpha_d_db):
        return Scenario(alpha_d_db=alpha_d_db, chi=0.1, eta0=0.2,
                        constraint=DEFAULT_CONSTRAINT, policy=TruncationPolicy(n_max=3))

    evaluate(scenario(0.0))  # warm-up: matrices of every cutoff the escalation reaches
    misses = fock_module._povm_basis.cache_info().misses
    cutoffs = {evaluate(scenario(alpha_d)).n_max_used for alpha_d in (5.0, 10.0, 15.0, 20.0, 25.0)}
    assert cutoffs == {evaluate(scenario(0.0)).n_max_used}
    assert fock_module._povm_basis.cache_info().misses == misses


def _fresh_python(code):
    """Standard output of code run in a new interpreter that imports this swapkd."""
    env = dict(os.environ)
    src = str(Path(swapkd.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    return result.stdout


def test_importing_the_cli_builds_no_rotation_blocks():
    """The rotation blocks, the stacks' block bases and the photon-number
    sector and block positions are built on first use, so start-up pays
    nothing for them."""
    code = ("import swapkd.cli, swapkd.fock as f, swapkd.metrics as m; "
            "caches = (f._povm_basis, f.rotation_blocks, m._sector_gathers, f.block_positions); "
            "print(*(n for c in caches for n in (c.cache_info().misses, c.cache_info().currsize)))")
    assert _fresh_python(code).split() == ["0"] * 8


def test_importing_the_cli_loads_no_process_pool():
    """Commands run serially, so the CLI never imports the pool machinery."""
    code = "import sys, swapkd.cli; print('multiprocessing' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_workers_key_is_inert_on_replay(tmp_path):
    """--workers and a manifest's "workers" select nothing: a manifest edited
    to 4 workers replays to the same bytes, and a run with --workers 4 writes
    them too without loading a process pool."""
    from swapkd.cli import main

    args = ["sweep", "--chi-grid", "0.05,0.1", "--eta0-grid", "0.3", "--alpha-d-grid", "0,10",
            "--pdc", "1e-5", "--n-max", "2"]
    assert main(args + ["--workers", "1", "--output-dir", str(tmp_path / "w1")]) == 0
    manifest_path = tmp_path / "w1" / "sweep_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["config"]["workers"] == 1
    manifest["config"]["workers"] = 4
    manifest_path.write_text(json.dumps(manifest))
    assert main(["sweep", "--config", str(manifest_path),
                 "--output-dir", str(tmp_path / "replay")]) == 0

    fresh = args + ["--workers", "4", "--output-dir", str(tmp_path / "w4")]
    code = ("import sys; from swapkd.cli import main; "
            f"code = main({fresh!r}); print(code, 'multiprocessing' in sys.modules)")
    assert _fresh_python(code).split()[-2:] == ["0", "False"]
    serial = (tmp_path / "w1" / "sweep.csv").read_bytes()
    for out in ("replay", "w4"):
        assert (tmp_path / out / "sweep.csv").read_bytes() == serial
