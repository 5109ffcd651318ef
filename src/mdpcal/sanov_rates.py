"""Information-rate computations: half-space KL rates, MDP truncation levels,
distinguishability radii, and Laplace-location Bahadur slopes.

The half-space rate inf{KL(G||F0) : sum G_j phi_j >= 0} is solved on the dual
side: Lambda(t) = log E_F0[exp(t phi)] is convex, so -Lambda is unimodal and
sup_{t>=0} -Lambda(t) is found by bracket doubling plus golden-section search.
The optimiser is the exponential tilt of F0 whose phi-mean is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import (REALS, DomainError, load_json_object, require_count,
                     require_finite, require_positive, require_reals)
from .special_fn import _bisect, check_simplex, golden_min, kl_bernoulli

_TILT_TOL = 1e-10
# A problem whose largest |phi| is m 2^e (1/2 <= m < 1) with |e| > _PHI_EXP is
# solved with phi scaled by 2^-e.
_PHI_EXP = 10


@dataclass(frozen=True)
class TiltedHalfSpace:
    """Discrete null with payoff values phi defining the half-space
    {G : sum G_j phi_j >= 0}."""

    support: tuple[float, ...]
    probs: tuple[float, ...]
    phi: tuple[float, ...]

    def __post_init__(self):
        support = require_reals("support", self.support)
        probs = check_simplex(self.probs)
        phi = require_reals("phi", self.phi)
        # Empty probs fail check_simplex, so equal lengths make the support nonempty.
        if not (len(support) == len(probs) == len(phi)):
            raise DomainError("support, probs and phi must have equal lengths")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "phi", phi)

    @property
    def null_mean(self) -> float:
        return sum(p * f for p, f in zip(self.probs, self.phi))


class HalfSpaceSolution(NamedTuple):
    rate: float
    t_star: float
    tilted_probs: tuple[float, ...] | None
    status: str  # "interior", "null-in-halfspace", "unreachable", "boundary-support"


def _log_mgf(problem: TiltedHalfSpace, t: float) -> float:
    # Lambda(t) = log sum_j p_j exp(t phi_j), max-shifted for stability.
    shifted = [math.log(p) + t * f for p, f in zip(problem.probs, problem.phi)]
    m = max(shifted)
    return m + math.log(sum(math.exp(s - m) for s in shifted))


def _tilt(problem: TiltedHalfSpace, t: float) -> tuple[float, tuple[float, ...], float, float]:
    # (Lambda(t), the tilted law q_j = p_j exp(t phi_j - Lambda(t)), and the
    # mean and variance of phi under q), from one pass over the support.
    lam = _log_mgf(problem, t)
    q = tuple(p * math.exp(t * f - lam) for p, f in zip(problem.probs, problem.phi))
    mean = sum(qj * f for qj, f in zip(q, problem.phi))
    var = sum(qj * (f - mean) ** 2 for qj, f in zip(q, problem.phi))
    return lam, q, mean, var


def half_space_rate(problem: TiltedHalfSpace) -> HalfSpaceSolution:
    """Sanov rate of the half-space by exponential tilting.

    Returns rate 0 (flagged) when the null mean of phi is already >= 0, and
    the +inf sentinel when every phi_j < 0 makes the half-space unreachable.
    Raises DomainError when phi, or t*, spans more than the float range.
    """
    # The half-space is the same for phi / 2^e, and the tilt t phi is
    # (t 2^e)(phi / 2^e).  At max |phi| in [1/2, 1) the absolute _TILT_TOL
    # resolves t* and (phi - mean)^2 cannot overflow.
    e = math.frexp(max(abs(f) for f in problem.phi))[1]
    if abs(e) > _PHI_EXP:
        phi = tuple(math.ldexp(f, -e) for f in problem.phi)
        if any(f != 0.0 and g == 0.0 for f, g in zip(problem.phi, phi)):
            raise DomainError("phi spans more than the float range: its smallest nonzero "
                              "|phi_j| is below 2^-1074 of the largest")
        solution = half_space_rate(TiltedHalfSpace(problem.support, problem.probs, phi))
        try:
            return solution._replace(t_star=math.ldexp(solution.t_star, -e))
        except OverflowError:
            raise DomainError("t_star lies beyond float range: phi is too small") from None
    if problem.null_mean >= 0.0:
        return HalfSpaceSolution(0.0, 0.0, problem.probs, "null-in-halfspace")

    max_phi = max(problem.phi)
    if max_phi < 0.0:
        return HalfSpaceSolution(math.inf, math.inf, None, "unreachable")
    if max_phi == 0.0:
        # Tilt escapes to infinity; the limit concentrates on {phi = 0}.
        mass = sum(p for p, f in zip(problem.probs, problem.phi) if f == 0.0)
        tilted = tuple((p / mass if f == 0.0 else 0.0)
                       for p, f in zip(problem.probs, problem.phi))
        return HalfSpaceSolution(-math.log(mass), math.inf, tilted, "boundary-support")

    t_cap = 1.0
    while _tilt(problem, t_cap)[2] < 0.0:
        t_cap = require_finite("the tilt bracket", 2.0 * t_cap)

    # Maximise -Lambda on [0, t_cap], i.e. minimise the convex Lambda.
    t_star = golden_min(lambda t: _log_mgf(problem, t), 0.0, t_cap, _TILT_TOL)
    # Newton polish on the stationarity condition: golden-section comparisons
    # flatten into float noise near the optimum, this drives the tilted mean
    # of phi to the 1e-8 contract and beyond.  A step out of [0, t_cap]
    # overshoots a Lambda that is flat in float, and is not taken: there the
    # golden-section point can lie anywhere on the flat part, so t* is the root
    # of the tilted mean, which rises with t, found by bisection.
    lam, q, mean, var = _tilt(problem, t_star)
    for _ in range(4):
        if var <= 0.0 or not 0.0 <= t_star - mean / var <= t_cap:
            if mean != 0.0:
                t_star = _bisect(lambda t: _tilt(problem, t)[2], 0.0, 0.0, t_cap)
                lam, q, mean, var = _tilt(problem, t_star)
            break
        t_star -= mean / var
        lam, q, mean, var = _tilt(problem, t_star)
    return HalfSpaceSolution(-lam, t_star, q, "interior")


def mdp_truncation_level(kappa: float, n: int) -> float:
    """Effective KL exponent (kappa/2) * ln n / n of the Bayes-optimal
    rejection set."""
    require_positive("kappa", kappa)
    require_count("n", n, 2)
    return require_finite("level", 0.5 * kappa * math.log(n) / n)


def distinguishability_radius(rho: float, kind: str, c: float, n: int) -> float:
    """Smallest deviation resolvable at a Type-I decay target: ``kind`` "polynomial"
    (n^-c) gives sqrt(c ln n / (2 rho n)), "exponential" (exp(-c n)) sqrt(c / (2 rho))."""
    if kind not in ("polynomial", "exponential"):
        raise DomainError(f"decay kind must be polynomial or exponential, got {kind!r}")
    require_positive("decay constant", c)
    require_positive("rho", rho)
    require_count("n", n, 2)
    if kind == "polynomial":
        radius = math.sqrt(c * math.log(n) / (2.0 * rho)) / math.sqrt(n)
    else:
        radius = math.sqrt(c / (2.0 * rho))
    return require_finite("radius", radius)


class BahadurSlopes(NamedTuple):
    c_sign: float
    c_lrt: float
    c_med: float


def bahadur_slopes(theta: float) -> BahadurSlopes:
    """Bahadur slopes of the sign, LRT and median tests at a Laplace
    location alternative theta > 0; c_med is the local approximation theta^2."""
    require_positive("theta", theta)
    p_pos = 1.0 - 0.5 * math.exp(-theta)
    return BahadurSlopes(
        c_sign=2.0 * kl_bernoulli(p_pos, 0.5),
        c_lrt=require_finite("c_lrt", 2.0 * (math.exp(-theta) + theta - 1.0)),
        c_med=require_finite("c_med", theta * theta),
    )


def load_half_space(path: str | Path) -> TiltedHalfSpace:
    """Read a half-space problem from JSON: {support: [...], probs: [...], phi: [...]}."""
    payload = load_json_object(path, "half-space JSON",
                               dict.fromkeys(("support", "probs", "phi"), REALS))
    return TiltedHalfSpace(payload["support"], payload["probs"], payload["phi"])
