"""Threshold (click / no-click) detectors with dark counts, and the dark-count
vs efficiency trade-off constraint used for constraint-mode scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, InvalidInputError

CONSTRAINT_A = 6.1e-7
CONSTRAINT_B = 17.0


@dataclass(frozen=True)
class ThresholdDetector:
    """Unit-or-nothing detector: efficiency eta, dark-count probability p_dc per gate.

    no_click(n) = (1 - p_dc) * (1 - eta)^n for n incident photons; click is the
    complement, computed as -expm1(log1p(-p_dc) + n log1p(-eta)) so that a
    small click probability, such as click(0) = p_dc, keeps its digits.
    """

    eta: float
    p_dc: float

    def __post_init__(self):
        if not (0.0 <= self.eta <= 1.0):
            raise InvalidInputError(f"eta must be in [0, 1], got {self.eta!r}")
        if not (0.0 <= self.p_dc < 1.0):
            raise InvalidInputError(f"p_dc must be in [0, 1), got {self.p_dc!r}")

    def no_click_weight(self, n) -> np.ndarray | float:
        n = np.asarray(n)
        w = (1.0 - self.p_dc) * (1.0 - self.eta) ** n
        return w if w.shape else float(w)

    def click_weight(self, n) -> np.ndarray | float:
        n = np.asarray(n)
        if self.eta == 1.0:  # any photon clicks; log1p(-eta) would be -inf
            w = np.where(n > 0, 1.0, self.p_dc)
        else:  # log1p(-0.0) = -0.0, so no click weight is -0.0
            w = -np.expm1(math.log1p(-self.p_dc) + n * math.log1p(-self.eta))
        return w if w.shape else float(w)

    def weight_vector(self, click: bool, max_n: int) -> np.ndarray:
        """Outcome weights over occupations 0..max_n."""
        n = np.arange(max_n + 1)
        return self.click_weight(n) if click else self.no_click_weight(n)


@dataclass(frozen=True)
class DetectorConstraint:
    """Empirical dark-count floor p_dc = a * exp(b * eta0) tying noise to efficiency."""

    a: float = CONSTRAINT_A
    b: float = CONSTRAINT_B

    def __post_init__(self):
        if not (0.0 <= self.a < math.inf and math.isfinite(self.b)):
            raise InvalidInputError(
                f"need finite a >= 0 and finite b, got a={self.a!r}, b={self.b!r}"
            )

    def p_dc(self, eta0: float) -> float:
        if not (0.0 <= eta0 <= 1.0):
            raise InvalidInputError(f"eta0 must be in [0, 1], got {eta0!r}")
        try:
            value = self.a * math.exp(self.b * eta0)
        except OverflowError:  # exp(b * eta0) beyond float range; a subnormal a may bring it back
            try:
                value = math.exp(math.log(self.a) + self.b * eta0) if self.a > 0.0 else 0.0
            except OverflowError:
                value = math.inf
        if value >= 1.0:
            raise ConstraintViolationError(
                f"constraint p_dc = {value:.3e} >= 1 at eta0 = {eta0!r}"
            )
        return value


DEFAULT_CONSTRAINT = DetectorConstraint()
