"""Exception types shared across the pipeline."""


class StepworkError(Exception):
    """Base class for all stepwork failures."""


class GridTooNarrow(StepworkError):
    """A density carries non-negligible mass at the grid boundary, or its grid
    is too coarse to hold it (the grid's quadrature misses its known mass)."""


class GridTooLarge(StepworkError):
    """A schedule's grids would need more memory than the grid budget allows."""


class MassLeak(StepworkError):
    """A work distribution lost probability mass to grid truncation."""


class NonFiniteResult(StepworkError):
    """A result left the float64 range (an overflow, or a NaN from one)."""


class WorkerLost(StepworkError):
    """A worker process formatting output rows ended before returning them."""
