"""Acceptance suite: the eleven checks that gate a release.

Each test prints one `[criterion NN] PASS|FAIL` line (visible with -s or -rP)
and asserts the same condition, so `pytest -v` shows one verdict per
criterion.  The slow entries are criterion 6 (six joint optimizations) and
criterion 9 (two crossover searches); the whole file runs in a few minutes on
one core.
"""

import math

import numpy as np
import pytest

import oracle
from conftest import single_pair_herald_budget
from swapkd.detectors import DEFAULT_CONSTRAINT, constraint_pdc
from swapkd.optimize import (
    Scenario,
    evaluate,
    find_crossover,
    es_optimal_rate,
    decoy_optimal_rate,
    max_positive_alpha,
    optimize_joint,
)
from swapkd.rates import decoy_inputs, decoy_rate_report, qber_threshold

FIG3_ALPHAS = (0.0, 5.0, 10.0, 25.0, 50.0)
FIG3_CHIS = np.geomspace(1e-4, 0.25, 11)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fig3_rows():
    """Full-pipeline reports over the brightness scan at eta0 = 0.1, tied dark counts."""
    rows = {}
    for alpha in FIG3_ALPHAS:
        reports = []
        for chi in FIG3_CHIS:
            s = Scenario(
                alpha_d_db=alpha, chi=float(chi), eta0=0.1, constraint=DEFAULT_CONSTRAINT
            )
            reports.append(evaluate(s))
        rows[alpha] = reports
    return rows


def test_criterion_01_constraint_values():
    targets = {0.1: 3e-6, 0.2: 1.8e-5, 0.3: 1e-4}
    devs = {e: abs(constraint_pdc(e) - t) / t for e, t in targets.items()}
    ok = all(d <= 0.15 for d in devs.values())
    verdict(
        1,
        ok,
        "constraint p_dc within 15% of caption values: "
        + ", ".join(f"eta0={e}: {d * 100:.1f}%" for e, d in sorted(devs.items())),
    )


def test_criterion_02_qber_thresholds():
    q122 = qber_threshold(1.22)
    q100 = qber_threshold(1.0)
    ok = abs(q122 - 0.094) <= 1e-3 and abs(q100 - 0.110) <= 1e-3
    verdict(2, ok, f"thresholds: kappa=1.22 -> {q122:.6f}, kappa=1.0 -> {q100:.6f}")


def test_criterion_03_ideal_limit():
    reports = {}
    for chi in (0.04, 0.02, 0.01):
        s = Scenario(alpha_d_db=0.0, chi=chi, eta0=1.0, p_dc=0.0)
        reports[chi] = evaluate(s)
    r = reports[0.01]
    qbers = [reports[c].qber for c in (0.04, 0.02, 0.01)]
    monotone = qbers[0] > qbers[1] - 1e-12 and qbers[1] > qbers[2] - 1e-12
    ok = r.visibility > 0.998 and r.qber < 1e-3 and monotone
    verdict(
        3,
        ok,
        f"ideal chi=0.01: V={r.visibility:.6f}, QBER={r.qber:.2e}; "
        f"QBER over chi=(0.04,0.02,0.01): " + ", ".join(f"{q:.2e}" for q in qbers),
    )


def test_criterion_04_rate_scaling():
    chis = (0.01, 0.02, 0.04)
    joint = []
    for chi in chis:
        s = Scenario(alpha_d_db=0.0, chi=chi, eta0=0.3, p_dc=0.0)
        joint.append(evaluate(s, with_visibility=False).coincidence_probability)
    slope_chi = np.polyfit(np.log(chis), np.log(joint), 1)[0]

    alphas = (0.0, 5.0, 10.0)
    joint_a = []
    for alpha in alphas:
        s = Scenario(alpha_d_db=alpha, chi=0.02, eta0=0.3, p_dc=0.0)
        joint_a.append(evaluate(s, with_visibility=False).coincidence_probability)
    slope_db = np.polyfit(alphas, np.log10(joint_a), 1)[0]

    ok = abs(slope_chi - 4.0) <= 0.02 and abs(slope_db + 0.1) <= 0.001
    verdict(
        4,
        ok,
        f"herald*coincidence scaling: chi-slope {slope_chi:.4f} (want 4.00 +- 0.02), "
        f"loss slope {slope_db:.5f}/dB (want -0.100 +- 1%)",
    )


def test_criterion_05_bsm_budget():
    worst = max(
        abs(single_pair_herald_budget(eta) - 0.5 * eta * eta) for eta in (0.3, 0.7, 1.0)
    )
    ok = worst < 1e-8
    verdict(5, ok, f"single-pair BSM herald vs eta^2/2: max deviation {worst:.2e}")


def test_criterion_06_joint_optimum_ranges():
    points = [optimize_joint(a) for a in (0.0, 5.0, 10.0, 25.0, 40.0, 50.0)]
    chi_ok = all(0.11 < p.chi_opt < 0.20 for p in points)
    eta_ok = all(0.24 < p.eta0_opt < 0.49 for p in points)
    pos_ok = all(p.positive for p in points)
    ok = chi_ok and eta_ok and pos_ok
    detail = "; ".join(
        f"ad={p.alpha_d_db:g}: chi={p.chi_opt:.3f}, eta0={p.eta0_opt:.3f}" for p in points
    )
    verdict(6, ok, "joint optima in published ranges: " + detail)


def test_criterion_07_brightness_scan_shape(fig3_rows):
    problems = []
    for alpha in FIG3_ALPHAS:
        q = np.array([r.qber for r in fig3_rows[alpha]])
        k = int(np.argmin(q))
        if not (q[0] > q[k] + 0.05):
            problems.append(f"ad={alpha:g}: no dark-count wall at chi=1e-4")
        if k in (0, len(q) - 1):
            problems.append(f"ad={alpha:g}: minimum not interior (k={k})")
        if not (q[-1] > q[k]):
            problems.append(f"ad={alpha:g}: no multi-pair rise at chi=0.25")
    for lo, hi in zip(FIG3_ALPHAS[:-1], FIG3_ALPHAS[1:]):
        qlo = np.array([r.qber for r in fig3_rows[lo]])
        qhi = np.array([r.qber for r in fig3_rows[hi]])
        if not np.all(qhi >= qlo - 1e-9):
            problems.append(f"curve ad={hi:g} dips below ad={lo:g}")
    ok = not problems
    verdict(7, ok, "QBER(chi) curve shape and loss ordering" + (
        "" if ok else ": " + "; ".join(problems)
    ))


def test_criterion_08_decoy_degenerate_case():
    rep = decoy_rate_report(decoy_inputs(0.5, 0.3, 15.0, 0.0))
    exact = rep.r_sec == rep.q1_lower / 2.0
    alphas = (0.0, 10.0, 20.0, 30.0)
    rates = [decoy_rate_report(decoy_inputs(0.5, 0.3, a, 0.0)).r_sec for a in alphas]
    slopes = np.diff(np.log10(rates)) / np.diff(alphas)
    affine = all(abs(s + 0.1) <= 1e-3 for s in slopes)
    ok = exact and affine
    verdict(
        8,
        ok,
        f"p_dc=0 decoy: R == Q1/2 exactly ({exact}), "
        f"log10 slope per dB {[f'{s:.5f}' for s in slopes]}",
    )


def test_criterion_09_crossover_behavior():
    a1 = find_crossover(0.2, 1.8e-5)
    a2 = find_crossover(0.2, 1e-6)
    exists = a1 is not None and a2 is not None
    ordered = exists and a2 > a1
    below_ok = False
    range_ok = False
    if exists:
        probe = a1 - 5.0
        r_dk = decoy_optimal_rate(probe, 0.2, 1.8e-5)[1]
        r_es = es_optimal_rate(probe, 0.2, 1.8e-5)[1]
        below_ok = r_dk > r_es > 0.0
        decoy_edge = max_positive_alpha(
            lambda a: decoy_optimal_rate(a, 0.2, 1.8e-5)[1], alpha_hi=60.0
        )
        es_beyond = es_optimal_rate(decoy_edge + 5.0, 0.2, 1.8e-5)[1]
        range_ok = es_beyond > 0.0
    ok = exists and ordered and below_ok and range_ok
    verdict(
        9,
        ok,
        f"crossovers: ad*(1.8e-5)={a1 and f'{a1:.2f}'} dB, ad*(1e-6)={a2 and f'{a2:.2f}'} dB, "
        f"decoy>ES below ({below_ok}), ES outlasts decoy ({range_ok})",
    )


def test_criterion_10_oracle_equivalence():
    gaps = []
    for eta0, alpha, p_dc in ((0.5, 2.0, 1e-5), (1.0, 0.0, 1e-4)):
        s = Scenario(alpha_d_db=alpha, chi=0.05, eta0=eta0, p_dc=p_dc)
        q_engine = evaluate(s, with_visibility=False).qber
        q_oracle = oracle.qber_oracle(0.05, eta0, alpha, p_dc)
        gaps.append(abs(q_engine - q_oracle))
    ok = max(gaps) < 5e-3
    verdict(
        10,
        ok,
        f"two-pair oracle vs engine at chi=0.05: gaps {[f'{g:.2e}' for g in gaps]} (< 5e-3)",
    )


def test_criterion_11_consistency(fig3_rows):
    worst = 0.0
    all_converged = True
    for alpha in FIG3_ALPHAS:
        for rep in fig3_rows[alpha]:
            worst = max(worst, abs(rep.qber - rep.qber_from_v))
            all_converged = all_converged and rep.converged
    ok = worst <= 5e-4 and all_converged
    verdict(
        11,
        ok,
        f"QBER vs (1-V)/2: max gap {worst:.2e} (<= 5e-4); all rows converged: {all_converged}",
    )
