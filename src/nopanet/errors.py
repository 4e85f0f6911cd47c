"""Exception hierarchy shared by all nopanet modules."""


class NopanetError(Exception):
    """Base class for all nopanet errors."""


class DimensionError(NopanetError):
    """Matrix arguments have incompatible or invalid dimensions."""


class SingularMatrixError(NopanetError):
    """Matrix is singular (or numerically indistinguishable from singular).

    ``rcond`` is the reciprocal 1-norm condition estimate that failed the
    check (0 when the factorisation broke down) and ``index`` the position
    of the rejected matrix in a stack (None for a single matrix).
    """

    def __init__(self, message, rcond=None, index=None):
        super().__init__(message)
        self.rcond = rcond
        self.index = index


class NumericalError(NopanetError):
    """An iterative numerical routine failed to converge or lost accuracy."""


class UnitarityError(NopanetError):
    """A matrix expected to be unitary is not, within tolerance."""

    def __init__(self, message, deviation=None, worst_index=None):
        super().__init__(message)
        self.deviation = deviation
        self.worst_index = worst_index


class WellPosednessError(NopanetError):
    """The closed loop is ill-posed: the feedback elimination is singular."""


class StabilityError(NopanetError):
    """Operation requires a stable system but the system is unstable."""


class PoleError(NopanetError):
    """Transfer coefficients are evaluated at (or too close to) a pole."""


class DegenerateRecurrenceError(NopanetError):
    """A recurrence denominator vanished at step k."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class StructureError(NopanetError):
    """A matrix does not have the structural pattern required by the caller."""


class ConfigError(NopanetError):
    """Invalid experiment configuration."""
