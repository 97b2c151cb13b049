"""Exception types shared across the package."""

from typing import Optional


class SizeLimitError(ValueError):
    """Combinatorial input exceeds the supported size cap."""


class ConfigurationError(ValueError):
    """A run configuration is inconsistent or under-resolved."""


class LatticeMismatchError(ValueError):
    """Two lattice objects that must match do not."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularConfigurationError(DomainError):
    """Evaluation point sits on a singular manifold (coincident points, shell hits)."""


class PreconditionError(ValueError):
    """A documented precondition (ordering, support margin, ...) is violated."""


class InvalidMajorantError(ValueError):
    """Candidate majorant Gram matrix is not positive definite."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the residual estimate from the last refinement step and, when
    raised by ``quadrature.refine``, the [p, real, imag] row of every round
    it evaluated (empty otherwise).
    """

    def __init__(self, message: str, residual: float = float("nan"),
                 history: Optional[list] = None):
        super().__init__(message)
        self.residual = residual
        self.history = [] if history is None else history
