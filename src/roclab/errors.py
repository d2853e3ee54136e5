"""Exception and warning types shared across the package.

Validation problems (bad arguments, malformed samples, out-of-domain
evaluation points) are ``ValueError`` subclasses; failures of an otherwise
well-posed computation (non-finite posterior state, divergent iterative
fits) are ``RuntimeError`` subclasses.  The split matters to the command
line interface, which maps the two families to different exit codes.
"""


class InvalidInputError(ValueError):
    """Arguments fail a precondition (shape, domain, emptiness)."""


class DegenerateSampleError(InvalidInputError):
    """A sample is constant (or effectively so) where spread is required."""


class SingularDesignError(InvalidInputError):
    """A regression design matrix is rank deficient."""


class ExtrapolationError(InvalidInputError):
    """Evaluation point lies outside the supported covariate range."""


class TimeOutOfRangeError(InvalidInputError):
    """Requested horizon leaves a survival-based quantity undefined."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class UndefinedPredictiveValueError(InvalidInputError):
    """A predictive value has zero denominator.

    ``which`` names the offending quantity, ``"ppv"`` or ``"npv"``.
    """

    def __init__(self, message, which):
        super().__init__(message)
        self.which = which


class NumericError(RuntimeError):
    """A numeric routine produced a non-finite or impossible state."""


class ConvergenceError(NumericError):
    """An iterative fit hit its iteration cap before converging."""


class SeparationWarning(UserWarning):
    """Binary-regression likelihood appears monotone (separated data)."""


class AllCensoredWarning(UserWarning):
    """No events observed; survival estimate is identically one."""


class NegativeYoudenWarning(UserWarning):
    """The reported AUC is below 0.5: the marker orders the groups the other way.

    The CLI issues it from the data, for every estimator alike; library
    functions return a negative or trivial Youden index without it.
    """
