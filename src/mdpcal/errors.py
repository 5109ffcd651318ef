"""Exception types shared across the calibration toolkit, and the input checks
that raise them, including the one reader of JSON input files."""

import json
import math
import sys

# The largest float.  A real or a count past it (an int such as 10**400) is
# rejected, as every formula that uses it converts it to float.
_FLOAT_MAX = sys.float_info.max


class DomainError(ValueError):
    """An input falls outside the mathematical domain of an operation."""


class BracketError(DomainError):
    """A numeric minimiser found its optimum on the boundary of the search bracket."""


class DegenerateSampleError(DomainError):
    """A sample has no dispersion where a scale estimate is required."""


def _shown(x) -> str:
    # An int past float range would print with hundreds of digits.
    return "an int beyond float range" if type(x) is int and abs(x) > _FLOAT_MAX else repr(x)


def is_real(x) -> bool:
    """The one type rule: a real is an int, float or other numbers.Real (a numpy
    float, a Fraction), never a bool, np.bool_, str, bytes or None.  So is a count."""
    return type(x) is float or type(x) is int or all_real((x,))


def all_real(values) -> bool:
    """``is_real`` for every element of ``values``, in one pass over their types."""
    # numbers loads only for other types: the closed-form paths never load it.
    other = set(map(type, values)) - {float, int}
    if not other:
        return True
    import numbers
    return all(issubclass(t, numbers.Real) and t is not bool for t in other)


def require_reals(name: str, values) -> tuple[float, ...]:
    """Return ``values`` as floats if each is a real (``is_real``) in float
    range and finite; raise DomainError otherwise."""
    values = tuple(values)
    try:
        floats = tuple(map(float, values)) if all_real(values) else None
    except OverflowError:  # an int such as 10**400
        floats = None
    if floats is None:
        raise DomainError(f"{name} must be reals in float range")
    # A finite sum proves every value finite at C speed; else check each one.
    if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
        raise DomainError(f"{name} must be finite")
    return floats


def require_positive(name: str, x: float) -> None:
    """Raise DomainError unless x is a real with 0 < x <= _FLOAT_MAX, so NaN,
    inf, ints past float range and bools fail too."""
    if not ((type(x) is float or is_real(x)) and 0 < x <= _FLOAT_MAX):  # floats skip a call
        raise DomainError(f"{name} must be positive and finite, got {_shown(x)}")


def require_finite(name: str, x: float) -> float:
    """Return the computed value ``x`` if it is finite; raise DomainError if it
    overflowed to inf (or is NaN), so no result is reported as "inf"."""
    if not math.isfinite(x):
        raise DomainError(f"{name} is not finite ({x}): the inputs overflow float range")
    return x


def require_count(name: str, n, least: int | None = None) -> int:
    """Return ``n`` as an int if it is an integer >= ``least`` and at most
    _FLOAT_MAX (any integer when ``least`` is None, as for a seed).

    NaN, inf, fractions and non-reals (None, "7", True) raise DomainError.
    """
    try:
        ok = is_real(n) and int(n) == n and (least is None or n >= least)
    except (ValueError, OverflowError):  # NaN, inf
        ok = False
    if not ok:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an integer{bound}, got {_shown(n)}")
    if least is not None and n > _FLOAT_MAX:
        raise DomainError(f"{name} must be at most {_FLOAT_MAX:.4g}")
    return int(n)


NUMBER = "a number"
REAL = "a number in float range"
REALS = "an array of numbers in float range"
OBJECT = "an object"
STRING = "a string"


def _is_json_real(v) -> bool:
    # An int such as 10**400 is a JSON number but no float.
    return type(v) is float or type(v) is int and abs(v) <= _FLOAT_MAX


_IS_KIND = {
    NUMBER: lambda v: type(v) in (int, float),
    REAL: _is_json_real,
    REALS: lambda v: type(v) is list and all(map(_is_json_real, v)),
    OBJECT: lambda v: type(v) is dict,
    STRING: lambda v: type(v) is str,
}


def require_fields(payload, what: str, fields: dict[str, str], optional=()) -> dict:
    """Return ``payload`` if it is a JSON object whose ``fields`` have the given
    kinds (NUMBER, REAL, REALS, OBJECT or STRING).  A count or seed is
    a NUMBER, checked further by ``require_count``; a field converted to float
    is a REAL.

    A field named in ``optional`` may be absent; every other one must be present.
    """
    if type(payload) is not dict:
        raise DomainError(f"{what} must be a JSON object, got {type(payload).__name__}")
    for name, kind in fields.items():
        if name not in payload:
            if name in optional:
                continue
            raise DomainError(f"{what} missing field {name!r}")
        if not _IS_KIND[kind](payload[name]):
            raise DomainError(f"{what} field {name!r} must be {kind}")
    return payload


def load_json_object(path, what: str, fields: dict[str, str], optional=()) -> dict:
    """Read the JSON file at ``path`` and check it with ``require_fields``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return require_fields(payload, what, fields, optional)
