"""The shared input checks: require_positive and require_count."""

import math

import pytest

from mdpcal.errors import DomainError, require_count, require_positive


def test_require_positive_passes_positive_finite_values():
    require_positive("x", 1e-300)
    require_positive("x", 3)
    require_positive("x", 1.7e308)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_require_positive_rejects(x):
    with pytest.raises(DomainError, match="x must be positive and finite"):
        require_positive("x", x)


@pytest.mark.parametrize("n", [2, 2.0, 10**400])
def test_require_count_passes_integers(n):
    assert require_count("n", n, 2) == n
    assert type(require_count("n", n, 2)) is int


@pytest.mark.parametrize("n", [1, 1.0, 2.5, math.nan, math.inf, -math.inf, -10**400])
def test_require_count_rejects(n):
    with pytest.raises(DomainError, match="n must be an integer >= 2"):
        require_count("n", n, 2)
