"""Exception hierarchy for the monitor.

Every certification failure below maps to an Unknown verdict at the top
level, and its class determines the reported cause.  ModelError is not
one: bad model or formula text is a usage error (exit code 64).  The
time-set propagation raises nothing: an Unknown with the cause
PropagationError has no exception class, and means that every search
completed and still no certified prefix decides.
"""


class StlmonError(Exception):
    """Base class for all certification failures."""


class IntegrationError(StlmonError):
    """Validated integration could not certify a step (blow-up or step size underflow)."""


class TangencyError(StlmonError):
    """Root certification failed: derivative straddles zero or contraction stalled."""


class InitialSignError(StlmonError):
    """An atom's truth at t = 0 is undecidable over the initial box."""


class NumericError(StlmonError, ValueError):
    """Interval arithmetic produced a NaN bound."""


class ModelError(StlmonError):
    """Model or formula text failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column
