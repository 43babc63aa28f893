"""Exception types shared across the package.

ConfigError covers bad user input (CLI exit code 2); NumericalValidityError
and its subclasses cover runs that are outside the model's validity range
(CLI exit code 3).
"""


class ConfigError(ValueError):
    """Invalid parameter or configuration value."""


class DegenerateStateError(RuntimeError):
    """State trace collapsed below the recoverable floor (truncation leakage)."""


class NumericalValidityError(RuntimeError):
    """Requested computation is outside the discretization's validity range."""


class StepValidityError(NumericalValidityError):
    """Per-step decoherence rates too large for the first-order step."""


class PerturbationInvalidError(NumericalValidityError):
    """A vanishing transition rate makes the perturbative recurrence invalid."""


class AmbiguousSteadyStateError(NumericalValidityError):
    """No certified stationary vector: the leading eigenvalue of the cycle
    matrix is not separated from the rest of its spectrum, or its eigenvector
    fails the sign or residual check."""
