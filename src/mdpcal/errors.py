"""Exception types shared across the calibration toolkit, and the input checks
that raise them."""

import math


class DomainError(ValueError):
    """An input falls outside the mathematical domain of an operation."""


class BracketError(DomainError):
    """A numeric minimiser found its optimum on the boundary of the search bracket."""


class DegenerateSampleError(DomainError):
    """A sample has no dispersion where a scale estimate is required."""


def require_positive(name: str, x: float) -> None:
    """Raise DomainError unless 0 < x < inf, so NaN and inf fail too."""
    if not 0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {x}")


def require_count(name: str, n, least: int) -> int:
    """Return ``n`` as an int if it is an integer >= ``least``.

    NaN, inf and fractional values raise DomainError.  The comparisons are
    exact, so an int beyond float range (10**400) passes unchanged.
    """
    if not (n >= least and n != math.inf and int(n) == n):
        raise DomainError(f"{name} must be an integer >= {least}, got {n}")
    return int(n)
