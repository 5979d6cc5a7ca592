"""Exception types shared across the package."""


class CRPolicyError(Exception):
    """Base class for errors raised by this package."""


class DatasetError(CRPolicyError, ValueError):
    """Raised for malformed input files or inconsistent dataset fields."""


class CovariateOverflowError(DatasetError):
    """A covariate so large in magnitude that the propensity model's Newton
    system overflows. Carries the covariate's column index in X."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"covariate column {column} is too large in magnitude for the propensity model")


class DatasetWarning(UserWarning):
    """Non-fatal dataset issues, e.g. treatment labels absent from the data."""


class EmptyArmError(CRPolicyError, ValueError):
    """Raised when an operation needs observations for a treatment arm that has none."""

    def __init__(self, arm: int, context: str = ""):
        self.arm = arm
        msg = f"treatment arm {arm} has no observations"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ConvergenceError(CRPolicyError, RuntimeError):
    """Iterative fit did not converge. Carries the final gradient norm."""

    def __init__(self, message: str, gradient_norm: float):
        self.gradient_norm = gradient_norm
        super().__init__(f"{message} (final gradient norm {gradient_norm:.3e})")


class SolverError(CRPolicyError, RuntimeError):
    """Numerical failure inside an exact subproblem solver."""


class UnsupportedPolicyError(CRPolicyError, TypeError):
    """Raised when an operation receives a policy variant it does not support."""
