"""Exception types shared across the calibration toolkit, and the input checks
that raise them, including the one reader of JSON input files."""

import json
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


def require_count(name: str, n, least: int | None = None) -> int:
    """Return ``n`` as an int if it is an integer >= ``least`` (any integer
    when ``least`` is None).

    NaN, inf, fractional and non-numeric values (None, "7") raise DomainError.
    The comparisons are exact, so an int beyond float range (10**400) passes
    unchanged.
    """
    try:
        ok = int(n) == n and (least is None or n >= least)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an integer{bound}, got {n!r}")
    return int(n)


NUMBER = "a number"
NUMBERS = "an array of numbers"
OBJECT = "an object"
STRING = "a string"

_IS_KIND = {
    NUMBER: lambda v: type(v) in (int, float),
    NUMBERS: lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
    OBJECT: lambda v: type(v) is dict,
    STRING: lambda v: type(v) is str,
}


def require_fields(payload, what: str, fields: dict[str, str], optional=()) -> dict:
    """Return ``payload`` if it is a JSON object whose ``fields`` have the given
    kinds (NUMBER, NUMBERS, OBJECT or STRING).

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
