"""Exception types shared across the package."""


class SingularSystem(Exception):
    """The kernel's 2m x 2m boundary-condition system is singular.

    ``SpaceSpec`` already rejects terms outside the boundary values, so this
    means a degenerate form, such as one with no discrete terms.
    """


class NotPositiveDefinite(Exception):
    """A Gram matrix failed Cholesky factorization.

    The ``index`` attribute holds the 0-based pivot where the leading minor
    stopped being positive definite, which for collocation Gram matrices
    points at the first degenerate (duplicate or dead) point.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"leading minor of order {index + 1} is not positive definite")


class NonFiniteValue(Exception):
    """A source-term evaluation produced NaN or infinity."""


class IncompatibleCorners(ValueError):
    """Initial and boundary data disagree at a domain corner."""


class DegenerateDomain(ValueError):
    """Space-time rectangle is not finite or has non-positive width or duration."""


class OutOfDomain(ValueError):
    """Evaluation point lies outside the problem's rectangle."""


class ConfigError(Exception):
    """A run configuration failed to parse or validate."""
