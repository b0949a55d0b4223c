import math
import tracemalloc

import pytest

import swapkd.optimize as optimize_module
from swapkd.detectors import DEFAULT_CONSTRAINT, DetectorConstraint
from swapkd.errors import TruncationError
from swapkd.fock import TruncationPolicy
from swapkd.optimize import (
    CHI_SEARCH_MAX,
    CHI_SEARCH_MIN,
    Scenario,
    evaluate,
    max_positive_alpha,
    optimize_chi,
    sweep,
)
from swapkd.rates import decoy_inputs, decoy_secret_rate, golden_max


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


def test_evaluate_is_deterministic():
    s = Scenario(alpha_d_db=5.0, chi=0.1, eta0=0.3, constraint=DEFAULT_CONSTRAINT)
    a = evaluate(s)
    b = evaluate(s)
    assert a.r_sec == b.r_sec
    assert a.qber == b.qber
    assert a.visibility == b.visibility
    assert a.n_max_used == b.n_max_used
    assert a.converged and b.converged


def test_evaluate_fast_path_skips_escalation():
    s = Scenario(
        alpha_d_db=5.0,
        chi=0.1,
        eta0=0.3,
        p_dc=1e-5,
        policy=TruncationPolicy(n_max=3),
    )
    rep = evaluate(s, with_visibility=False, escalate=False)
    assert rep.n_max_used == 3
    assert not rep.converged
    assert math.isnan(rep.visibility)
    assert math.isnan(rep.qber_from_v)
    full = evaluate(s, with_visibility=True, escalate=True)
    assert full.converged
    assert full.n_max_used > 3
    assert full.qber == pytest.approx(rep.qber, rel=1e-3)


def test_evaluate_reports_truncation_failure():
    s = Scenario(
        alpha_d_db=0.0,
        chi=0.2,
        eta0=1.0,
        p_dc=0.0,
        policy=TruncationPolicy(n_max=1, convergence_tol=1e-10),
    )
    with pytest.raises(TruncationError) as err:
        evaluate(s, with_visibility=False)
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
        r = evaluate(s, with_visibility=False).r_sec
        assert r <= pt.r_sec_at_opt * (1.0 + 1e-9)


def test_optimize_chi_no_positive_rate():
    pt = optimize_chi(40.0, 0.1, p_dc=0.05, grid_points=8)
    assert not pt.positive
    assert math.isnan(pt.chi_opt)
    assert pt.r_sec_at_opt == 0.0


def test_sweep_preserves_order_and_captures_errors():
    bad_constraint = DetectorConstraint(a=0.5, b=17.0)
    scenarios = [
        Scenario(alpha_d_db=5.0, chi=0.05, eta0=0.3, p_dc=1e-5),
        Scenario(alpha_d_db=5.0, chi=0.05, eta0=0.3, constraint=bad_constraint),
        Scenario(alpha_d_db=10.0, chi=0.05, eta0=0.3, p_dc=1e-5),
    ]
    rows = sweep(scenarios, workers=1)
    assert [r.scenario.alpha_d_db for r in rows] == [5.0, 5.0, 10.0]
    assert rows[0].report is not None and rows[0].error is None
    assert rows[1].report is None
    assert "p_dc" in rows[1].error
    assert rows[2].report is not None
    # less span loss keeps more key
    assert rows[0].report.r_sec > rows[2].report.r_sec


def test_sweep_propagates_programming_errors(monkeypatch):
    """Only physics and parameter errors become row errors; a TypeError aborts."""

    def broken(s, *args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(optimize_module, "evaluate", broken)
    scenarios = [Scenario(alpha_d_db=5.0, chi=0.05, eta0=0.3, p_dc=1e-5)]
    with pytest.raises(TypeError):
        sweep(scenarios, workers=1)


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


def test_sweep_parallel_matches_serial():
    scenarios = [
        Scenario(alpha_d_db=a, chi=0.08, eta0=0.25, p_dc=1e-5) for a in (0.0, 5.0)
    ]
    serial = sweep(scenarios, workers=1)
    parallel = sweep(scenarios, workers=2)
    for srow, prow in zip(serial, parallel):
        assert srow.report.r_sec == prow.report.r_sec
        assert srow.report.qber == prow.report.qber


def test_max_positive_alpha_synthetic():
    def rate(alpha):
        return max(0.0, 1e-3 * (1.0 - alpha / 17.3))

    edge = max_positive_alpha(rate, alpha_lo=0.0, alpha_hi=40.0, step=2.5, tol=0.05)
    assert edge == pytest.approx(17.3, abs=0.05)


def test_decoy_rate_positive_at_short_range():
    assert decoy_secret_rate(decoy_inputs(0.48, 0.2, 0.0, 1.8e-5)) > 1e-2
