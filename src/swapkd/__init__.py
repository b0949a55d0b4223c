"""Simulator and optimizer for entanglement-swapping QKD with realistic
down-conversion sources and noisy threshold detectors, plus a decoy-state
BB84 baseline for comparison."""

__version__ = "0.1.0"

from .detectors import DEFAULT_CONSTRAINT, DetectorConstraint, ThresholdDetector
from .errors import (
    ConstraintViolationError,
    InvalidInputError,
    NoCoincidenceError,
    TruncationError,
    UndefinedVisibilityError,
)
from .fock import TruncationPolicy
from .metrics import (
    AnalyzerSetting,
    CoincidenceTable,
    QberReport,
    X_BASIS,
    Z_BASIS,
    fourfold_coincidence,
    qber,
    qber_polynomial,
    visibility,
    visibility_scan,
)
from .optimize import (
    OptimumPoint,
    Scenario,
    SweepRow,
    es_optimal_rate,
    evaluate,
    find_crossover,
    max_positive_alpha,
    optimize_chi,
    optimize_joint,
    sweep,
)
from .rates import (
    DecoyInputs,
    DecoyRateReport,
    KeyRateReport,
    decoy_inputs,
    decoy_rate_report,
    h2,
    optimal_mu,
    qber_threshold,
    secret_rate,
    sifted_rate,
)
from .sources import pair_amplitudes
from .swap import (
    SwapResult,
    bsm_detector,
    graded_swap_state,
    swap_conditional_state,
)

__all__ = [
    "__version__",
    "AnalyzerSetting",
    "CoincidenceTable",
    "ConstraintViolationError",
    "DecoyInputs",
    "DecoyRateReport",
    "DEFAULT_CONSTRAINT",
    "DetectorConstraint",
    "InvalidInputError",
    "KeyRateReport",
    "NoCoincidenceError",
    "OptimumPoint",
    "QberReport",
    "Scenario",
    "SwapResult",
    "SweepRow",
    "ThresholdDetector",
    "TruncationError",
    "TruncationPolicy",
    "UndefinedVisibilityError",
    "X_BASIS",
    "Z_BASIS",
    "bsm_detector",
    "decoy_inputs",
    "decoy_rate_report",
    "es_optimal_rate",
    "evaluate",
    "find_crossover",
    "fourfold_coincidence",
    "graded_swap_state",
    "h2",
    "max_positive_alpha",
    "optimal_mu",
    "optimize_chi",
    "optimize_joint",
    "pair_amplitudes",
    "qber",
    "qber_polynomial",
    "qber_threshold",
    "secret_rate",
    "sifted_rate",
    "sweep",
    "swap_conditional_state",
    "visibility",
    "visibility_scan",
]
