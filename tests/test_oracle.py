"""Engine vs the independent perturbative oracle.

The two-pair oracle is blind to three-pair emission events, so its gap to the
full engine is O(chi^2) relative with a loss-dependent prefactor: a few times
1e-3 at chi = 0.05 for moderate efficiencies, shrinking fourfold when chi is
halved.  Raising max_pairs to 3 closes the gap by two further orders and
independently confirms the engine's multi-pair error term.
"""

import pytest

import oracle
from swapkd.optimize import Scenario, evaluate


def engine_qber(chi, eta0, alpha_d_db, p_dc):
    s = Scenario(alpha_d_db=alpha_d_db, chi=chi, eta0=eta0, p_dc=p_dc)
    return evaluate(s).qber


@pytest.mark.parametrize(
    "chi,eta0,alpha_d_db,p_dc,tol",
    [
        (0.05, 0.5, 2.0, 1e-5, 5e-3),
        (0.05, 1.0, 0.0, 1e-4, 5e-3),
        (0.02, 0.5, 2.0, 1e-5, 1e-3),
    ],
)
def test_engine_matches_two_pair_oracle(chi, eta0, alpha_d_db, p_dc, tol):
    q_engine = engine_qber(chi, eta0, alpha_d_db, p_dc)
    q_oracle = oracle.qber_oracle(chi, eta0, alpha_d_db, p_dc)
    assert abs(q_engine - q_oracle) < tol


def test_oracle_gap_shrinks_as_chi_squared():
    gaps = []
    for chi in (0.05, 0.025):
        q_engine = engine_qber(chi, 0.5, 2.0, 1e-5)
        q_oracle = oracle.qber_oracle(chi, 0.5, 2.0, 1e-5)
        gaps.append(abs(q_engine - q_oracle))
    assert gaps[1] / gaps[0] < 0.35


def test_three_pair_oracle_confirms_multipair_errors():
    """At a lossy working point the chi^2 error term must match too."""
    q_engine = engine_qber(0.05, 0.3, 5.0, 1e-5)
    q_oracle = oracle.qber_oracle(0.05, 0.3, 5.0, 1e-5, max_pairs=3)
    assert abs(q_engine - q_oracle) < 5e-4


def test_oracle_tables_internal_consistency():
    tables = oracle.coincidence_tables(0.05, 0.3, 5.0, 1e-5)
    for basis in ("Z", "X"):
        t = tables[basis]
        assert t["total"] == pytest.approx(t["right"] + t["wrong"], rel=1e-12)
        assert 0.0 < t["wrong"] < t["right"]
    # pooled QBER sits between the per-basis ratios
    qz = tables["Z"]["wrong"] / tables["Z"]["total"]
    qx = tables["X"]["wrong"] / tables["X"]["total"]
    q = oracle.qber_oracle(0.05, 0.3, 5.0, 1e-5)
    assert min(qz, qx) <= q <= max(qz, qx)


def test_oracle_ideal_limit_is_clean():
    """Tiny brightness, perfect detectors: errors stay at the chi^2 scale."""
    q = oracle.qber_oracle(0.01, 1.0, 0.0, 0.0)
    assert q < 1e-3


def test_oracle_state_normalization():
    state = oracle.two_source_state(0.03, max_pairs=2)
    total = sum(abs(a) ** 2 for a in state.values())
    assert total == pytest.approx(1.0, abs=5e-5)
