import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dense_reference import pattern_weight, pattern_weight_table, with_extra_loss
from swapkd.detectors import DEFAULT_CONSTRAINT, DetectorConstraint, ThresholdDetector
from swapkd.errors import ConstraintViolationError


def test_click_probabilities():
    det = ThresholdDetector(eta=0.3, p_dc=0.01)
    assert det.click_weight(0) == pytest.approx(0.01)
    assert det.no_click_weight(0) == pytest.approx(0.99)
    for n in range(5):
        expect = (1.0 - 0.01) * 0.7 ** n
        assert det.no_click_weight(n) == pytest.approx(expect, abs=1e-15)
        assert det.click_weight(n) == pytest.approx(1.0 - expect, abs=1e-15)


@pytest.mark.parametrize("p_dc", [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
def test_click_weight_keeps_its_digits(p_dc):
    """click = 1 - (1 - p_dc)(1 - eta)^n within 2 ulp of its 50-digit value
    for n up to 2 n_max at n_max 8, small click probabilities included; at
    eta = 1, no photon clicks with p_dc and any photon with 1 exactly.  No
    weight is nan or -0.0."""
    n = np.arange(2 * 8 + 1)
    with localcontext() as ctx:
        ctx.prec = 50
        for eta in (0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.9, 0.999999, 1.0):
            got = ThresholdDetector(eta, p_dc).click_weight(n)
            assert not np.signbit(got).any() and not np.isnan(got).any(), eta
            for k, w in zip(n.tolist(), got.tolist()):
                silent = (1 - Decimal(eta)) ** k if k else 1  # Decimal 0 ** 0 is undefined
                want = 1 - (1 - Decimal(p_dc)) * silent
                assert abs(Decimal(w) - want) <= 2 * Decimal(math.ulp(float(want))), (eta, k)
    assert ThresholdDetector(1.0, p_dc).click_weight(0) == p_dc
    assert ThresholdDetector(1.0, p_dc).click_weight(n[1:]).tolist() == [1.0] * (len(n) - 1)


def test_weight_vector_and_extra_loss():
    det = ThresholdDetector(eta=0.5, p_dc=0.0)
    wc = det.weight_vector(True, 3)
    wn = det.weight_vector(False, 3)
    assert np.allclose(wc + wn, 1.0)
    lossy = with_extra_loss(det, 0.2)
    assert lossy.eta == pytest.approx(0.1)
    assert lossy.p_dc == det.p_dc


def test_detector_validation():
    with pytest.raises(ValueError):
        ThresholdDetector(eta=1.5, p_dc=0.0)
    with pytest.raises(ValueError):
        ThresholdDetector(eta=0.5, p_dc=1.0)


def test_constraint_frozen_values():
    """Dark-count floor at the three working-point efficiencies."""
    assert DEFAULT_CONSTRAINT.p_dc(0.1) == pytest.approx(3.339107908953592e-06, rel=1e-12)
    assert DEFAULT_CONSTRAINT.p_dc(0.2) == pytest.approx(1.827810102891218e-05, rel=1e-12)
    assert DEFAULT_CONSTRAINT.p_dc(0.3) == pytest.approx(1.000533634529401e-04, rel=1e-12)


def test_constraint_violation():
    with pytest.raises(ConstraintViolationError):
        DEFAULT_CONSTRAINT.p_dc(1.0)
    with pytest.raises(ValueError):
        DEFAULT_CONSTRAINT.p_dc(-0.1)
    loose = DetectorConstraint(a=1e-9, b=1.0)
    assert loose.p_dc(1.0) == pytest.approx(1e-9 * np.e)


def test_constraint_beyond_float_range():
    """exp(b * eta0) past the float range is an infinite dark-count floor, a
    constraint violation, or no floor at all when a is 0."""
    with pytest.raises(ConstraintViolationError, match="p_dc = inf >= 1 at eta0 = 0.3"):
        DetectorConstraint(a=6.1e-7, b=1e4).p_dc(0.3)
    assert DetectorConstraint(a=0.0, b=1e4).p_dc(0.5) == 0.0


def test_subnormal_prefactor_beyond_float_range():
    """A subnormal a can bring an overflowing exp(b * eta0) back into range:
    p_dc is a exp(b eta0) = exp(log(a) + b eta0), not inf.  A normal a whose
    product overflows too stays a violation."""
    exact = Decimal(1e-320) * Decimal(710).exp()  # the float a, exactly
    assert DetectorConstraint(a=1e-320, b=710.0).p_dc(1.0) == pytest.approx(float(exact), rel=1e-12)
    with pytest.raises(ConstraintViolationError, match="p_dc = inf >= 1"):
        DetectorConstraint(a=1e-7, b=1e4).p_dc(1.0)


def test_pattern_weight_completeness():
    """Click/no-click weights over all patterns sum to one for any occupation."""
    dets = [
        ThresholdDetector(0.3, 0.01),
        ThresholdDetector(0.9, 0.0),
        ThresholdDetector(0.0, 0.05),
    ]
    for occ in [(0, 0, 0), (1, 2, 0), (3, 1, 4)]:
        total = sum(
            pattern_weight(dets, clicks, occ)
            for clicks in itertools.product([False, True], repeat=3)
        )
        assert total == pytest.approx(1.0, abs=1e-14)


def test_pattern_weight_table_matches_scalar():
    dets = [ThresholdDetector(0.4, 0.02), ThresholdDetector(0.7, 0.0)]
    clicks = (True, False)
    table = pattern_weight_table(dets, clicks, 3)
    assert table.shape == (4, 4)
    for occ in np.ndindex(4, 4):
        assert table[occ] == pytest.approx(pattern_weight(dets, clicks, occ), abs=1e-15)


def test_pattern_weight_length_mismatch():
    dets = [ThresholdDetector(0.4, 0.0)]
    with pytest.raises(ValueError):
        pattern_weight(dets, (True, False), (1,))
    with pytest.raises(ValueError):
        pattern_weight_table(dets, (True, False), 2)
