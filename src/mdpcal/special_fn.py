"""Special-function kernels backing the threshold calibrators.

Everything here is scalar, deterministic and dependency-free: the Kolmogorov
distribution and its inverse, the chi-squared CDF/quantile through the
regularized lower incomplete gamma, the normal CDF, and the Kullback-Leibler
divergence primitives.  Infinite KL is a legitimate value (unreachable Sanov
sets), so it is returned as ``math.inf`` rather than raised.  The numeric
primitives the rest of the package shares live here too: the one
golden-section search, the one bisection and the one simplex check.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import DomainError, require_count, require_positive

KOLMOGOROV_SERIES_TOL = 1e-12
# Below this point the alternating series converges too slowly to be worth
# summing and no calibration evaluates there; K(0.2) < 1e-7.
_KOLMOGOROV_SMALL_T = 0.2

_GAMMA_REL_TOL = 1e-14
_GAMMA_MAX_ITER = 10_000

_SIMPLEX_TOL = 1e-8

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_min(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the minimum of a unimodal ``f`` on [lo, hi],
    stopped once the bracket is narrower than ``tol``; returns its midpoint."""
    h = hi - lo
    if h <= tol:
        return 0.5 * (lo + hi)
    x1 = lo + _INV_PHI_SQ * h
    x2 = lo + _INV_PHI * h
    f1, f2 = f(x1), f(x2)
    steps = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    for _ in range(steps):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            h = _INV_PHI * h
            x1 = lo + _INV_PHI_SQ * h
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            h = _INV_PHI * h
            x2 = lo + _INV_PHI * h
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _bisect(cdf: Callable[[float], float], p: float, lo: float, hi: float) -> float:
    # Solve cdf(x) = p on [lo, hi] to a width of max(1e-9, 1e-15 * hi): the
    # relative floor keeps the width above float spacing once hi passes ~1e6,
    # where an absolute 1e-9 can never be reached.
    while hi - lo > max(1e-9, 1e-15 * hi):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_simplex(probs: Sequence[float]) -> tuple[float, ...]:
    """Return null probabilities as floats after checking that each is
    positive and finite and that they sum to 1 within ``_SIMPLEX_TOL``."""
    probs = tuple(float(v) for v in probs)
    if not all(0 < v < math.inf for v in probs):
        raise DomainError("null probabilities must be strictly positive and finite")
    if abs(sum(probs) - 1.0) > _SIMPLEX_TOL:
        raise DomainError(f"null probabilities must sum to 1, got {sum(probs)}")
    return probs


def kolmogorov_sf(t: float) -> float:
    """Survival function 1 - K(t) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 t^2).

    Summed directly so the deep tail keeps full relative accuracy.
    """
    # Written as "not t >= 0": a NaN t would otherwise never end the series.
    if not t >= 0:
        raise DomainError(f"Kolmogorov statistic must be nonnegative, got {t}")
    if t < _KOLMOGOROV_SMALL_T:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * t * t)
        if term < KOLMOGOROV_SERIES_TOL:
            break
        total += sign * term
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def kolmogorov_cdf(t: float) -> float:
    """Kolmogorov distribution K(t), the null limit law of sqrt(n) * KS."""
    return 1.0 - kolmogorov_sf(t)


def kolmogorov_quantile(p: float) -> float:
    """Inverse of ``kolmogorov_cdf`` by bisection on [0.05, 5] to 1e-9."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    return _bisect(kolmogorov_cdf, p, 0.05, 5.0)


def _gamma_p_series(a: float, x: float) -> float:
    # Power series for P(a, x); reliable for x < a + 1.
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_GAMMA_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_REL_TOL:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise DomainError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _gamma_q_cf(a: float, x: float) -> float:
    # Modified Lentz continued fraction for Q(a, x); reliable for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    if b == 0.0:  # a + 1 == a: the shape is past float resolution
        raise DomainError(f"shape parameter {a} is too large for the incomplete gamma")
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_REL_TOL:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise DomainError(f"incomplete gamma continued fraction failed (a={a}, x={x})")


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), split series/continued fraction."""
    require_positive("shape parameter", a)
    if not x >= 0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_cf(a, x)


def chi2_cdf(x: float, df: int) -> float:
    """Chi-squared CDF with ``df`` degrees of freedom."""
    require_count("degrees of freedom", df, 1)
    if not x >= 0:
        raise DomainError(f"chi-squared argument must be nonnegative, got {x}")
    return regularized_gamma_p(df / 2.0, x / 2.0)


def chi2_quantile(p: float, df: int) -> float:
    """Inverse chi-squared CDF by bisection to max(1e-9, 1e-15 * hi)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    require_count("degrees of freedom", df, 1)
    hi = float(df) + 10.0
    while chi2_cdf(hi, df) < p:
        hi *= 2.0
    return _bisect(lambda x: chi2_cdf(x, df), p, 0.0, hi)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _xlogx_ratio(p: float, q: float) -> float:
    # p * log(p/q) with the 0 * log 0 = 0 convention; +inf when q = 0 < p.
    if p == 0.0:
        return 0.0
    if q <= 0.0:
        return math.inf
    return p * math.log(p / q)


def _clamp_rounding(kl: float) -> float:
    # Rounding can leave a sum like -1.1e-16 where p and q (nearly) agree;
    # KL is nonnegative.  NaN passes through.
    return 0.0 if kl < 0.0 else kl


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be a probability, got {p}")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must be a probability, got {q}")
    return _clamp_rounding(_xlogx_ratio(p, q) + _xlogx_ratio(1.0 - p, 1.0 - q))


def kl_multinomial(p, q) -> float:
    """KL divergence sum_j p_j log(p_j / q_j) between simplex vectors.

    Returns ``math.inf`` when some q_j = 0 carries p_j > 0.
    """
    p = tuple(float(v) for v in p)
    q = tuple(float(v) for v in q)
    if len(p) != len(q):
        raise DomainError(f"dimension mismatch: {len(p)} vs {len(q)}")
    if any(v < 0 for v in p) or any(v < 0 for v in q):
        raise DomainError("probability vectors must be nonnegative")
    if abs(sum(p) - 1.0) > _SIMPLEX_TOL:
        raise DomainError(f"p must lie on the simplex, sums to {sum(p)}")
    return _clamp_rounding(sum(_xlogx_ratio(pj, qj) for pj, qj in zip(p, q)))
