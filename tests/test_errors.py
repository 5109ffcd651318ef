"""The shared checks: require_positive, require_count and require_finite."""

import math

import pytest

from mdpcal.errors import (NUMBER, REAL, REALS, DomainError, require_count, require_fields,
                           require_finite, require_positive)


def test_require_positive_passes_positive_finite_values():
    require_positive("x", 1e-300)
    require_positive("x", 3)
    require_positive("x", 1.7e308)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, -math.inf, 10**309, 10**400])
def test_require_positive_rejects(x):
    with pytest.raises(DomainError, match="x must be positive and finite"):
        require_positive("x", x)


@pytest.mark.parametrize("n", [2, 2.0, 10**308, 1.7e308])
def test_require_count_passes_integers(n):
    assert require_count("n", n, 2) == n
    assert type(require_count("n", n, 2)) is int


@pytest.mark.parametrize("n", [10**309, 10**400, 10**5000], ids=["1e309", "1e400", "1e5000"])
def test_require_count_rejects_counts_past_float_range(n):
    with pytest.raises(DomainError, match="n must be at most 1.798e\\+308$"):
        require_count("n", n, 2)


@pytest.mark.parametrize("seed", [10**400, -10**400])
def test_require_count_without_floor_passes_any_integer(seed):
    assert require_count("seed", seed) == seed


@pytest.mark.parametrize("n", [1, 1.0, 2.5, math.nan, math.inf, -math.inf, -10**400])
def test_require_count_rejects(n):
    with pytest.raises(DomainError, match="n must be an integer >= 2"):
        require_count("n", n, 2)


@pytest.mark.parametrize("x", [0.0, -1.7e308, 5e-324, 1.7e308])
def test_require_finite_returns_finite_values_unchanged(x):
    assert require_finite("t", x) is x


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_require_finite_rejects(x):
    with pytest.raises(DomainError, match="t is not finite"):
        require_finite("t", x)


@pytest.mark.parametrize("kind, good, bad", [
    (REAL, [0, -2.5, 10**308, math.inf], [10**400, -10**309, True, "1", None, [1.0]]),
    (REALS, [[], [1, 2.5], [10**308]], [[1.0, 10**400], [True], 1.0, None]),
    (NUMBER, [1, 2.5, 10**400], [True, "1", None]),
])
def test_require_fields_kinds(kind, good, bad):
    for value in good:
        assert require_fields({"x": value}, "cfg", {"x": kind}) == {"x": value}
    for value in bad:
        with pytest.raises(DomainError, match=f"^cfg field 'x' must be {kind}$"):
            require_fields({"x": value}, "cfg", {"x": kind})
