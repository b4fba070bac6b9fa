"""Exception types shared across the toolkit."""


class FinslerError(Exception):
    """Base class for all toolkit errors."""


class DegenerateVector(FinslerError):
    """A tangent vector is too close to zero for derivative-based operations."""


class ConvexityViolation(FinslerError):
    """A fundamental tensor failed the positive-definiteness requirement.

    Carries the offending eigenvalue in ``eigenvalue``.
    """

    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = float(eigenvalue)
        super().__init__(message or f"fundamental tensor not positive definite (eigenvalue {eigenvalue:.3e})")


class InadmissibleNorm(FinslerError):
    """Norm parameters violate an admissibility constraint (e.g. Randers drift too large)."""


class HypothesisViolation(FinslerError):
    """The sampled precondition of a verification routine does not hold."""


class InvalidSettings(FinslerError, ValueError):
    """Settings that no run can honour, such as an unsupported ansatz degree."""


class UnderdeterminedSystem(InvalidSettings):
    """A collocation system has too few rows for its unknown count."""


class ClosureFailure(FinslerError):
    """A bracket or span re-expansion exceeded its residual tolerance.

    Carries the residual in ``residual``.
    """

    def __init__(self, residual, message=None):
        self.residual = float(residual)
        super().__init__(message or f"re-expansion residual {residual:.3e} exceeds tolerance")


class IdealCheckError(FinslerError):
    """A subspace expected to be an ideal is not closed under bracketing."""
