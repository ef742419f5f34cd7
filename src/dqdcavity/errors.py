"""Exception types shared across the package."""


class BasisMismatchError(ValueError):
    """Two objects built on different composite bases were combined."""


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian kernel is more than one-dimensional."""


class SteadyStateConvergenceError(RuntimeError):
    """No steady state could be extracted to the requested tolerance."""


class DiagonalizationError(RuntimeError):
    """A generator eigenbasis failed or missed its t = 0 value; no other route is tried."""


class UndefinedObservableError(RuntimeError):
    """An observable is undefined at this parameter point (e.g. g2 with an empty cavity)."""
