"""Error taxonomy shared across the package."""

from __future__ import annotations

__all__ = [
    "InvalidParameterError",
    "InvalidProblemError",
    "ConvergenceFailureError",
    "DivergenceError",
    "InsufficientDataError",
]


class InvalidParameterError(ValueError):
    """A scalar or configuration argument is outside its admissible range."""


class InvalidProblemError(ValueError):
    """A problem definition is internally inconsistent (shape, definiteness,
    or serialized constants that do not match a recomputation)."""


class ConvergenceFailureError(RuntimeError):
    """A reference solver exhausted its iteration budget.

    Carries the residual that was actually achieved so callers can decide
    whether the partial answer is usable.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(RuntimeError):
    """An optimization run produced a nonfinite iterate or reference.

    ``iteration`` is the index of the step that produced it, or of the trace
    row whose reference overflowed, and ``state`` the last finite
    ``SSAIDState`` before it (``state.k == iteration``), from the runners
    and the verifier's history replay alike.  The runners attach ``trace``,
    the rows recorded before the abort.  There is no gradient ceiling: a run
    that grows without overflowing goes on until its horizon.  Sweep cells
    report a diverged run as censored.
    """

    def __init__(self, message: str, iteration: int, state=None, trace=None):
        super().__init__(message)
        self.iteration = iteration
        self.state = state
        self.trace = trace


class InsufficientDataError(ValueError):
    """A fit was requested over a window with too few usable points."""
