"""Special-function kernels backing the threshold calibrators.

Everything here is scalar, deterministic and dependency-free: the Kolmogorov
distribution and its inverse, the chi-squared CDF/quantile through the
regularized lower incomplete gamma, the normal CDF, and the Kullback-Leibler
divergence primitives.  Infinite KL is a legitimate value (unreachable Sanov
sets), so it is returned as ``math.inf`` rather than raised.
"""

from __future__ import annotations

import math

from .errors import DomainError

KOLMOGOROV_SERIES_TOL = 1e-12
# Below this point the alternating series converges too slowly to be worth
# summing and no calibration evaluates there; K(0.2) < 1e-7.
_KOLMOGOROV_SMALL_T = 0.2

_GAMMA_REL_TOL = 1e-14
_GAMMA_MAX_ITER = 10_000

_SIMPLEX_TOL = 1e-8


def kolmogorov_sf(t: float, series_tol: float = KOLMOGOROV_SERIES_TOL) -> float:
    """Survival function 1 - K(t) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 t^2).

    Summed directly so the deep tail keeps full relative accuracy.
    """
    if t < 0:
        raise DomainError(f"Kolmogorov statistic must be nonnegative, got {t}")
    if t < _KOLMOGOROV_SMALL_T:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * t * t)
        if term < series_tol:
            break
        total += sign * term
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


def kolmogorov_cdf(t: float, series_tol: float = KOLMOGOROV_SERIES_TOL) -> float:
    """Kolmogorov distribution K(t), the null limit law of sqrt(n) * KS."""
    if t < 0:
        raise DomainError(f"Kolmogorov statistic must be nonnegative, got {t}")
    if t < _KOLMOGOROV_SMALL_T:
        return 0.0
    return 1.0 - kolmogorov_sf(t, series_tol)


def kolmogorov_quantile(p: float) -> float:
    """Inverse of ``kolmogorov_cdf`` by bisection on [0.05, 5] to 1e-9."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    lo, hi = 0.05, 5.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if kolmogorov_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    if a <= 0:
        raise DomainError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_cf(a, x)


def chi2_cdf(x: float, df: int) -> float:
    """Chi-squared CDF with ``df`` degrees of freedom."""
    if df < 1 or int(df) != df:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df}")
    if x < 0:
        raise DomainError(f"chi-squared argument must be nonnegative, got {x}")
    return regularized_gamma_p(df / 2.0, x / 2.0)


def chi2_quantile(p: float, df: int) -> float:
    """Inverse chi-squared CDF by bisection to max(1e-9, 1e-15 * hi).

    The relative floor keeps the width above float spacing for df beyond ~1e6,
    where an absolute 1e-9 can never be reached.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    if df < 1 or int(df) != df:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df}")
    lo, hi = 0.0, float(df) + 10.0
    while chi2_cdf(hi, df) < p:
        hi *= 2.0
    while hi - lo > max(1e-9, 1e-15 * hi):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
