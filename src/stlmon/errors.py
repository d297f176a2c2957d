"""Exception hierarchy for the monitor.

Every exception below maps to an Unknown verdict at the top level; the
class determines the reported cause.
"""


class StlmonError(Exception):
    """Base class for all certification failures."""


class IntegrationError(StlmonError):
    """Validated integration could not certify a step (blow-up or h < t_min)."""

    def __init__(self, message: str, horizon_reached: float = 0.0):
        super().__init__(message)
        self.horizon_reached = horizon_reached


class TangencyError(StlmonError):
    """Root certification failed: derivative straddles zero or contraction stalled."""


class InitialSignError(StlmonError):
    """An atom's sign at t = 0 is undecidable over the initial box."""


class AmbiguityError(StlmonError):
    """Overlapping boundary enclosures made an approximated set non-canonical."""


class NumericError(StlmonError, ValueError):
    """Interval arithmetic produced a NaN bound."""


class ModelError(StlmonError):
    """Model or formula text failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column
