"""Exception types shared across the package.

Input validation failures raise plain ``ValueError`` (or ``ConfigError`` for
run-configuration problems, which the CLI maps to exit code 2).  Failures of
the numerics themselves derive from ``NumericalError`` and map to exit code 3.
"""


class ConfigError(ValueError):
    """A run configuration or CLI input is malformed."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerical machinery."""


class SingularFisherError(NumericalError):
    """A feature covariance stayed singular after jitter escalation."""


class SolverError(NumericalError):
    """A drift system could not be factorized."""


class StepFailureError(NumericalError):
    """A parameter update left the valid domain and halving did not recover."""


class DivergenceError(NumericalError):
    """Particles became non-finite, or too spread for finite distances, during a flow."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration
