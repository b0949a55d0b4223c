"""Engine vs the independent perturbative oracle.

The two-pair oracle is blind to three-pair emission events, so its gap to the
full engine is O(chi^2) relative with a loss-dependent prefactor: a few times
1e-3 at chi = 0.05 for moderate efficiencies, shrinking fourfold when chi is
halved.  Raising max_pairs to 3 closes the gap by two further orders and
independently confirms the engine's multi-pair error term.
"""

import math

import numpy as np
import pytest

import oracle
from swapkd.metrics import _sector_table, qber_polynomial
from swapkd.optimize import Scenario, evaluate
from swapkd.swap import graded_swap_state


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


@pytest.mark.parametrize(
    "eta0,alpha_d_db,p_dc",
    [(0.3, 10.0, 1e-4), (0.1, 30.0, 1e-6), (1.0, 0.0, 0.0)],
    ids=["dark-count-wall", "high-loss", "ideal"],
)
def test_oracle_pins_every_sector_up_to_three_pairs(eta0, alpha_d_db, p_dc):
    """The chi-free sector tables of the graded engine are the oracle's
    N-pair contributions with (1-t)^4 t^N divided out, N = N_A + N_B <= 3.

    One oracle pass at max_pairs 3, binned by each component's pairs per
    source (oracle.coincidence_sectors), gives every (N_A, N_B) at once.
    Compared: the h/v coincidence tables p[a, N_A, b, N_B] of each key basis
    (metrics._sector_table), their wrong and total sums W_N and T_N, and the
    Z+X pooled polynomials that the brightness searches read
    (metrics.qber_polynomial).  The coefficients do not depend on chi, so
    this checks the engine at every brightness in these sectors.
    Tolerance: 1e-13 relative, plus 1e-15 of the sector's total
    coincidences, the scale at which a value that cancels within its sector
    rounds.  That floor covers the model's zeros (the ideal detector's wrong
    counts, a side with no photons) and the X wrong count at (1, 1) at high
    loss, 1.7e-4 of its sector, which reads 5e-14 to 2.3e-13 relative from
    the oracle depending on the cutoff and the order of the engine's sums.
    """
    chi, n_top = 0.05, 3
    t = math.tanh(chi) ** 2
    sectors = oracle.coincidence_sectors(chi, eta0, alpha_d_db, p_dc, max_pairs=n_top)
    graded = graded_swap_state(eta0, alpha_d_db, p_dc)
    n_pairs = np.add.outer(np.arange(n_top + 1), np.arange(n_top + 1))  # N_A + N_B
    kept = n_pairs <= n_top

    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-15 * scale), (got, want)

    def wrong_and_total(p):
        """(W_N, T_N) for N <= n_top of a table p[a, N_A, b, N_B]."""
        return np.array([np.bincount(n_pairs[kept], q[kept], n_top + 1)
                         for q in (p[0, :, 0] + p[1, :, 1], p.sum(axis=(0, 2)))])

    pooled = 0.0
    for basis, povms in zip(("Z", "X"), graded.povms):  # swap.KEY_ANGLES order
        want = np.zeros((2, n_top + 1, 2, n_top + 1))
        for (a_out, b_out, n_a, n_b), p in sectors[basis].items():
            want["HV".index(a_out), n_a, "HV".index(b_out), n_b] = p / ((1 - t) ** 4 * t ** (n_a + n_b))
        got = _sector_table(graded, povms, povms)[:, : n_top + 1, :, : n_top + 1]
        close(np.where(kept[:, None, :], got, 0.0), want, want.sum(axis=(0, 2))[:, None, :])
        by_n = wrong_and_total(want)
        close(wrong_and_total(got), by_n, by_n[1])
        pooled = pooled + by_n
    close(np.array([c[: n_top + 1] for c in qber_polynomial(graded)]), pooled, pooled[1])
