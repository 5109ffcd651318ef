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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (BracketError, DomainError, require_count, require_finite,
                     require_positive)
from .special_fn import golden_min

GRID_POINTS = 512
REFINE_TOL = 1e-6


@dataclass(frozen=True)
class CalibrationProblem:
    """Tail rate rho, prior mass exponent kappa, sample size and error weights."""

    rho: float
    kappa: float
    n: int
    w0: float = 1.0
    w1: float = 1.0

    def __post_init__(self):
        for name in ("rho", "kappa", "w0", "w1"):
            require_positive(name, getattr(self, name))
        require_count("n", self.n, 2)

    @property
    def a_star(self) -> float:
        return self.kappa / (4.0 * self.rho)


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


def template_risk(p: CalibrationProblem, a: float) -> RiskPoint:
    """Evaluate the two-term risk at threshold parameter ``a``.

    Type-II is clamped at 1 once a*ln n/n >= 1, where the asymptotic mass
    formula stops being a probability.  The base is clamped before the power,
    so a huge kappa cannot overflow.
    """
    require_positive("threshold parameter a", a)
    log_n = math.log(p.n)
    type1 = math.exp(-2.0 * p.rho * a * log_n)
    type2 = min(1.0, a * log_n / p.n) ** (p.kappa / 2.0)
    return RiskPoint(a, type1, type2, p.w0 * type1 + p.w1 * type2)


def optimal_risk_rate(kappa: float, n: int) -> float:
    """The headline optimal-risk rate (ln n / n)^(kappa/2)."""
    require_positive("kappa", kappa)
    require_count("n", n, 2)
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
        t_star=require_finite("t_star", math.sqrt(a_star * log_n)),
        alpha_star=p.n ** (-p.kappa / 2.0),
        risk_star=template_risk(p, a_star).total,
        setting=setting,
        params=report_params,
    )


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
    if a_lo is None or a_hi is None or not 0 < a_lo < a_hi < math.inf:
        raise DomainError(f"invalid bracket [{a_lo}, {a_hi}]")
    require_count("grid points", points, 3)

    step = (a_hi - a_lo) / (points - 1)
    grid = []
    for i in range(points):
        a = a_lo + i * step
        grid.append(template_risk(p, a))

    idx = min(range(points), key=lambda i: grid[i].total)
    if idx == 0 or idx == points - 1:
        raise BracketError(
            f"risk minimum lies at the bracket boundary a={grid[idx].a:.6g}; "
            f"widen [{a_lo:.6g}, {a_hi:.6g}]"
        )
    argmin = golden_min(lambda a: template_risk(p, a).total,
                        grid[idx - 1].a, grid[idx + 1].a, REFINE_TOL)
    return RiskCurve(grid=tuple(grid), argmin_a=argmin,
                     min_risk=template_risk(p, argmin).total)


def regime_series(p: CalibrationProblem, n_values: Sequence[int],
                  fixed_alpha: float) -> dict[str, list[tuple[int, float]]]:
    """Risk-versus-n series for the CLT, MDP and LDP calibration regimes.

    CLT holds the Type-I rate at ``fixed_alpha``; MDP holds a = kappa/(4 rho);
    LDP puts the threshold at sqrt(n), i.e. a(n) = n / ln n, whose clamped
    Type-II term makes the series stagnate.
    """
    if not n_values:
        raise DomainError("n_values must be nonempty")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise DomainError("n_values must be strictly increasing")
    if not 0.0 < fixed_alpha < 1.0:
        raise DomainError(f"fixed_alpha must be in (0, 1), got {fixed_alpha}")

    series: dict[str, list[tuple[int, float]]] = {"clt": [], "mdp": [], "ldp": []}
    for n in n_values:
        n = require_count("n", n, 2)
        pn = dataclasses.replace(p, n=n)
        log_n = math.log(n)
        a_clt = math.log(1.0 / fixed_alpha) / (2.0 * p.rho * log_n)
        a_ldp = n / log_n
        series["clt"].append((n, template_risk(pn, a_clt).total))
        series["mdp"].append((n, template_risk(pn, pn.a_star).total))
        series["ldp"].append((n, template_risk(pn, a_ldp).total))
    return series
