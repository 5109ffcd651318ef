"""Two-term Bayes-risk template and its optimisers.

The template puts a threshold sqrt(a * ln n) on a Gaussianised statistic with
sub-Gaussian null tail exp(-2*rho*t^2) and an alternative prior carrying mass
eps^kappa near the null.  Risk then splits into a Type-I term n^(-2*rho*a) and
a Type-II term (a*ln n / n)^(kappa/2); the closed-form balance point is
a* = kappa / (4*rho).  Reported thresholds are leading-order only: the
O(sqrt(log log n)) refinement is deliberately not implemented.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import BracketError, DomainError

GRID_POINTS = 512
REFINE_TOL = 1e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class CalibrationProblem:
    """Tail rate rho, prior mass exponent kappa, sample size and error weights."""

    rho: float
    kappa: float
    n: int
    w0: float = 1.0
    w1: float = 1.0

    def __post_init__(self):
        # Written as "not x > 0" so that NaN is rejected too.
        if not self.rho > 0:
            raise DomainError(f"rho must be positive, got {self.rho}")
        if not self.kappa > 0:
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        # n must convert to a float, which every risk formula needs; the value
        # is not shown, as a huge int prints with hundreds of digits.
        if self.n > sys.float_info.max:
            raise DomainError(f"n must be at most {sys.float_info.max:.4g}")
        if not self.n >= 2 or int(self.n) != self.n:
            raise DomainError(f"n must be an integer >= 2, got {self.n}")
        if not (self.w0 > 0 and self.w1 > 0):
            raise DomainError("error-cost weights must be positive")

    @property
    def a_star(self) -> float:
        return self.kappa / (4.0 * self.rho)


class RiskTerms(NamedTuple):
    type1: float
    type2: float
    total: float


class RiskPoint(NamedTuple):
    a: float
    type1: float
    type2: float
    total: float


@dataclass(frozen=True)
class RiskCurve:
    """Sampled risk curve with its refined grid minimiser."""

    grid: tuple[RiskPoint, ...]
    argmin_a: float
    min_risk: float


@dataclass(frozen=True)
class ThresholdReport:
    """Calibrated outputs for one setting."""

    a_star: float
    t_star: float
    alpha_star: float
    risk_star: float
    setting: str
    params: dict


def template_risk(p: CalibrationProblem, a: float) -> RiskTerms:
    """Evaluate the two-term risk at threshold parameter ``a``.

    Type-II is clamped at 1 once a*ln n/n >= 1, where the asymptotic mass
    formula stops being a probability.  The base is clamped before the power,
    so a huge kappa cannot overflow.
    """
    if a <= 0:
        raise DomainError(f"threshold parameter a must be positive, got {a}")
    log_n = math.log(p.n)
    type1 = math.exp(-2.0 * p.rho * a * log_n)
    type2 = min(1.0, a * log_n / p.n) ** (p.kappa / 2.0)
    return RiskTerms(type1, type2, p.w0 * type1 + p.w1 * type2)


def optimal_risk_rate(kappa: float, n: int) -> float:
    """The headline optimal-risk rate (ln n / n)^(kappa/2)."""
    if kappa <= 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    return (math.log(n) / n) ** (kappa / 2.0)


def analytic_optimum(p: CalibrationProblem, setting: str = "template",
                     params: dict | None = None) -> ThresholdReport:
    """Closed-form optimum: a* = kappa/(4 rho), threshold sqrt(a* ln n)."""
    a_star = p.a_star
    log_n = math.log(p.n)
    report_params = {"rho": p.rho, "kappa": p.kappa, "n": p.n}
    if params:
        report_params.update(params)
    return ThresholdReport(
        a_star=a_star,
        t_star=math.sqrt(a_star * log_n),
        alpha_star=p.n ** (-p.kappa / 2.0),
        risk_star=template_risk(p, a_star).total,
        setting=setting,
        params=report_params,
    )


def _golden_min(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    # Golden-section search for the minimum of a unimodal f on [lo, hi].
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


def default_bracket(p: CalibrationProblem) -> tuple[float, float]:
    """Search bracket [0.01 a*, 4 a*] guaranteeing an interior minimum."""
    return 0.01 * p.a_star, 4.0 * p.a_star


def numeric_minimiser(p: CalibrationProblem, a_lo: float | None = None,
                      a_hi: float | None = None, points: int = GRID_POINTS) -> RiskCurve:
    """Deterministic grid minimisation of the finite-n risk curve.

    A coarse grid locates the basin; golden-section refinement on the
    bracketing cells pins the minimiser to ``REFINE_TOL`` in ``a``.
    """
    if a_lo is None and a_hi is None:
        a_lo, a_hi = default_bracket(p)
    if a_lo is None or a_hi is None or not 0 < a_lo < a_hi:
        raise DomainError(f"invalid bracket [{a_lo}, {a_hi}]")
    if points < 3:
        raise DomainError(f"grid needs at least 3 points, got {points}")

    step = (a_hi - a_lo) / (points - 1)
    grid = []
    for i in range(points):
        a = a_lo + i * step
        grid.append(RiskPoint(a, *template_risk(p, a)))

    idx = min(range(points), key=lambda i: grid[i].total)
    if idx == 0 or idx == points - 1:
        raise BracketError(
            f"risk minimum lies at the bracket boundary a={grid[idx].a:.6g}; "
            f"widen [{a_lo:.6g}, {a_hi:.6g}]"
        )
    argmin = _golden_min(lambda a: template_risk(p, a).total,
                         grid[idx - 1].a, grid[idx + 1].a, REFINE_TOL)
    return RiskCurve(grid=tuple(grid), argmin_a=argmin,
                     min_risk=template_risk(p, argmin).total)


def regime_series(p: CalibrationProblem, n_values: Sequence[int], fixed_alpha: float,
                  ldp_scale: float = 1.0) -> dict[str, list[tuple[int, float]]]:
    """Risk-versus-n series for the CLT, MDP and LDP calibration regimes.

    CLT holds the Type-I rate at ``fixed_alpha``; MDP holds a = kappa/(4 rho);
    LDP puts the threshold at ldp_scale * sqrt(n), i.e. a(n) = ldp_scale^2 * n / ln n,
    whose clamped Type-II term makes the series stagnate.
    """
    if not n_values:
        raise DomainError("n_values must be nonempty")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise DomainError("n_values must be strictly increasing")
    if not 0.0 < fixed_alpha < 1.0:
        raise DomainError(f"fixed_alpha must be in (0, 1), got {fixed_alpha}")
    if ldp_scale <= 0:
        raise DomainError(f"ldp_scale must be positive, got {ldp_scale}")

    series: dict[str, list[tuple[int, float]]] = {"clt": [], "mdp": [], "ldp": []}
    for n in n_values:
        pn = dataclasses.replace(p, n=int(n))
        log_n = math.log(n)
        a_clt = math.log(1.0 / fixed_alpha) / (2.0 * p.rho * log_n)
        a_ldp = ldp_scale * ldp_scale * n / log_n
        series["clt"].append((int(n), template_risk(pn, a_clt).total))
        series["mdp"].append((int(n), template_risk(pn, pn.a_star).total))
        series["ldp"].append((int(n), template_risk(pn, a_ldp).total))
    return series
