"""Exception hierarchy.

Validation errors signal ill-formed inputs (CLI exit code 2); numerical
errors signal a computation that could not be completed at the requested
parameters (CLI exit code 1).
"""


class DensgeoError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(DensgeoError):
    """Input violates a documented precondition."""

    exit_code = 2


class NumericalError(DensgeoError):
    """Computation failed at the requested resolution or time."""

    exit_code = 1


class InvalidGrid(ValidationError, ValueError):
    pass


class GridMismatch(ValidationError, ValueError):
    pass


class MassMismatch(ValidationError):
    pass


class NegativeDensity(ValidationError):
    pass


class NonPositiveInput(ValidationError):
    pass


class NonFiniteInput(ValidationError):
    pass


class NonZeroMean(ValidationError):
    pass


class NotTangent(ValidationError):
    pass


class OffSphere(ValidationError, ValueError):
    """A sphere point's squared norm is not its radius squared."""


class NonPositiveJacobian(ValidationError):
    pass


class MassDrift(ValidationError):
    pass


class InconsistentZeroKappa(ValidationError):
    pass


class BeyondBlowup(NumericalError):
    pass


class StepTooLarge(NumericalError):
    pass


class InversionDiverged(NumericalError):
    pass


class NonFiniteResult(NumericalError):
    """A result to be reported is NaN or infinite."""


class InternalError(DensgeoError):
    """An unforeseen failure, reported by the CLI's last-resort handler."""
