"""Exception types shared across the package."""


class PqsllnError(Exception):
    """Base class for all package errors."""


class NonMonotoneTail(PqsllnError):
    """A survival function increases at a piece edge or inside a piece, or
    never falls below the level to invert."""


class QuadratureFailure(PqsllnError):
    """Adaptive refinement exhausted its subdivision budget before meeting tolerance."""


class InversionFailure(PqsllnError):
    """A monotone transform could not be bracketed for inversion."""


class StateSpaceExceeded(PqsllnError):
    """An exact convolution would exceed the enumerable state-space cap."""


class PreconditionViolated(PqsllnError):
    """An oracle was invoked outside the hypotheses of the inequality it checks."""


class ConfigError(PqsllnError):
    """A run configuration failed validation."""
