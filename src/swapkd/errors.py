"""Exception types shared across the package."""


class TruncationError(RuntimeError):
    """evaluate()'s observables failed to converge under n_max escalation."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values


class ConstraintViolationError(ValueError):
    """A detector parameter constraint produced a non-physical value."""


class NoCoincidenceError(RuntimeError):
    """Total coincidence probability is zero; error fractions are undefined."""


class UndefinedVisibilityError(RuntimeError):
    """Max+Min of the coincidence scan is zero; visibility is undefined."""


# A point whose physics is undefined or unconverged.
NUMERICAL_ERRORS = (TruncationError, NoCoincidenceError, UndefinedVisibilityError)
