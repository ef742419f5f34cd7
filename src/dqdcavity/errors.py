"""Exception types shared across the package.

A NumericalError fails one parameter point: the CLI exits 2 on it, and a sweep writes it, or a
ValueError, as that point's error row. Any other exception is a bug and propagates.
"""


class BasisMismatchError(ValueError):
    """Two objects built on different composite bases were combined."""


class NumericalError(RuntimeError):
    """A valid parameter point whose result could not be computed, or is undefined."""


class DegenerateSteadyStateError(NumericalError):
    """The Liouvillian kernel is more than one-dimensional."""


class SteadyStateConvergenceError(NumericalError):
    """No steady state could be extracted to the requested tolerance."""


class DiagonalizationError(NumericalError):
    """A generator eigenbasis failed or missed its t = 0 value; no other route is tried."""


class UndefinedObservableError(NumericalError):
    """An observable is undefined at this parameter point (e.g. g2 with an empty cavity)."""
