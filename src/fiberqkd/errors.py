"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class FitConvergenceError(RuntimeError):
    """An iterative fit failed to reach a usable solution."""

