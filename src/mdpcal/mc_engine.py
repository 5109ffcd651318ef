"""Seeded Monte-Carlo estimation of Bayes risk and the local prior exponent.

Randomness comes from numpy's Philox counter-based generator (Salmon et al.,
SC'11).  Each ``mc_bayes_risk`` call draws from one substream per draw kind
(prior draws, alternative data, null data), keyed by (seed, kind), so
estimates are bit-reproducible regardless of execution order.  Replicate rows
are read off that stream in C order, one ``laplace`` call per block of about
2^17 doubles or one row of n <= 2^22, and reduced to their statistics block
by block: memory is O(block + m), not m x n.  The alternative and null streams
run at once, one thread per data draw kind (numpy releases the GIL in the
draws, the sort and the ufunc loops), each with its own generator and output
array: two blocks are in flight, and the output bits depend on neither the
threads nor the block size.  The Laplace-location prior
theta^(lambda-1) exp(-gamma theta) on (0, truncation] is sampled by inverse
CDF, tabulated with a numpy form of the regularized incomplete gamma kernel.
Plain Monte Carlo only: estimates carry binomial standard errors, no
importance sampling.

``RNG_STREAM`` numbers the mapping from seed to draws.  Stream 1 gave every
replicate its own substream and built the CDF with the scalar kernel; stream 2
is the one above.  Seeded outputs of the two streams differ.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (NUMBER, OBJECT, REAL, REALS, STRING, DomainError, load_json_object,
                     require_count, require_fields, require_positive, require_reals)
from .gof_stats import ks_rows, sign_rows
from .special_fn import _GAMMA_MAX_ITER, _GAMMA_REL_TOL

RNG_STREAM = 2

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Draw kinds for substream derivation.
_KIND_NULL_DATA = 0
_KIND_PRIOR_DRAW = 1
_KIND_ALT_DATA = 2
_KIND_PRIOR_PROBE = 3

_SAMPLER_GRID = 20_001

# Doubles per statistic block, per thread; a row longer than this gets a block
# of its own.
_BLOCK_DOUBLES = 1 << 17
# Most observations per replicate: KS sorts whole rows, so a thread holds <= 32 MiB.
_MAX_N = 1 << 22


@dataclass(frozen=True)
class PriorSpec:
    """Truncated Gamma-type prior on the Laplace location parameter."""

    lambda_: float = 1.0
    gamma_rate: float = 1.0
    truncation: float = 10.0

    def __post_init__(self):
        require_positive("lambda", self.lambda_)
        require_positive("gamma_rate", self.gamma_rate)
        require_positive("truncation", self.truncation)


@dataclass(frozen=True)
class McConfig:
    """Replication counts, sample size, seed and threshold grid."""

    m_alternatives: int
    m_null: int
    n: int
    seed: int
    threshold_grid: tuple[float, ...]

    def __post_init__(self):
        for name in ("m_alternatives", "m_null", "n"):
            object.__setattr__(self, name, require_count(name, getattr(self, name), 1))
        if self.n > _MAX_N:
            raise DomainError(f"n must be at most {_MAX_N} observations, got {self.n}")
        object.__setattr__(self, "seed", require_count("seed", self.seed))
        grid = require_reals("threshold grid values", self.threshold_grid)
        if not grid:
            raise DomainError("threshold grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("threshold grid must be strictly increasing")
        object.__setattr__(self, "threshold_grid", grid)


def _mix64(z: int) -> int:
    # splitmix64 finalizer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _substream_key(seed: int, kind: int, index: int) -> tuple[int, int]:
    # splitmix-derived Philox key of the (seed, draw kind, replicate index) substream
    w0 = _mix64((seed & _MASK64) ^ ((kind + 1) * _GOLDEN))
    w1 = _mix64(w0 ^ (index * 0x632BE59BD9B4E019 + 0xD1B54A32D192ED03))
    return w0, w1


def substream(seed: int, kind: int, index: int) -> np.random.Generator:
    """Philox generator keyed by (seed, draw kind, replicate index)."""
    key = np.array(_substream_key(seed, kind, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _until_converged(step, *state) -> np.ndarray:
    """Run ``step(i, *state) -> (done, state)`` for i = 1, 2, ... on the
    elements still running, freezing each once it is done; return the frozen
    last state array.  Raises DomainError if any element runs past
    ``_GAMMA_MAX_ITER`` steps."""
    out = np.empty_like(state[-1])
    live = np.arange(out.size)
    for i in range(1, _GAMMA_MAX_ITER + 1):
        if not live.size:
            return out
        done, state = step(i, *state)
        if done.any():
            out[live[done]] = state[-1][done]
            keep = ~done
            live = live[keep]
            state = tuple(v[keep] for v in state)
    if live.size:
        raise DomainError(f"incomplete gamma failed to converge at {live.size} grid points")
    return out


def _gamma_p_grid(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) at every point of x >= 0.

    The numpy form of ``special_fn.regularized_gamma_p``: the same power
    series below a + 1 and modified Lentz continued fraction for Q above it,
    each element stopped at the same relative tolerance and iteration cap.
    """
    tiny = 1e-300

    def series(i, x, term, total):
        term = term * (x / (a + i))
        total = total + term
        return np.abs(term) < np.abs(total) * _GAMMA_REL_TOL, (x, term, total)

    def lentz(i, b, c, d, h):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        return np.abs(delta - 1.0) < _GAMMA_REL_TOL, (b, c, d, h * delta)

    def scale(x):
        return np.exp(-x + a * np.log(x) - math.lgamma(a))

    p = np.zeros_like(x)
    low = (x > 0) & (x < a + 1.0)
    high = x >= a + 1.0
    xs = x[low]
    term = np.full_like(xs, 1.0 / a)
    p[low] = _until_converged(series, xs, term, term.copy()) * scale(xs)
    xc = x[high]
    b = xc + 1.0 - a
    d = 1.0 / b
    q = _until_converged(lentz, b, np.full_like(xc, 1.0 / tiny), d, d.copy())
    p[high] = 1.0 - q * scale(xc)
    return p


@functools.lru_cache(maxsize=8)
def _prior_cdf(prior: PriorSpec) -> tuple[np.ndarray, np.ndarray]:
    """The truncated Gamma prior's CDF P(lambda, gamma*theta) / P(lambda,
    gamma*truncation), tabulated as (theta, cdf) on a grid graded toward the
    origin, where the density vanishes for lambda > 1."""
    frac = np.linspace(0.0, 1.0, _SAMPLER_GRID)
    theta = prior.truncation * frac * frac
    cdf = _gamma_p_grid(prior.lambda_, prior.gamma_rate * theta)
    if not cdf[-1] > 0:
        raise DomainError("the prior's mass on (0, truncation] underflows to 0")
    return theta, cdf / cdf[-1]


def _prior_draws(prior: PriorSpec, gen: np.random.Generator, size: int) -> np.ndarray:
    """``size`` prior draws off ``gen``: the tabulated CDF inverted by monotone
    linear interpolation."""
    theta, cdf = _prior_cdf(prior)
    return np.interp(gen.random(size), cdf, theta)


def _laplace_cdf(x: np.ndarray) -> np.ndarray:
    tail = 0.5 * np.exp(-np.abs(x))
    return np.where(x < 0, tail, 1.0 - tail)


def _ks_rows(data: np.ndarray) -> np.ndarray:
    # sqrt(n) * sup|F_n - F0| per row, F0 the standard Laplace CDF.
    return math.sqrt(data.shape[1]) * ks_rows(_laplace_cdf(np.sort(data, axis=1)))


def _sign_rows(data: np.ndarray) -> np.ndarray:
    # Gaussianised sign count (V - n/2) / (sqrt(n)/2).
    n = data.shape[1]
    return (sign_rows(data) - 0.5 * n) / (0.5 * math.sqrt(n))

_STAT_FN = {"ks": _ks_rows, "sign": _sign_rows}
STATISTICS = tuple(_STAT_FN)


def _replicate_statistics(stat_fn, gen: np.random.Generator, locs: np.ndarray,
                          n: int) -> np.ndarray:
    """Statistic of each replicate row Laplace(locs[i], 1)^n, the rows read in
    order off ``gen``, one ``laplace`` call per block of rows."""
    m = len(locs)
    rows = max(1, _BLOCK_DOUBLES // n)
    stats = np.empty(m)
    for s in range(0, m, rows):
        e = min(s + rows, m)
        block = gen.laplace(0.0, 1.0, size=(e - s, n))
        block += locs[s:e, None]
        stats[s:e] = stat_fn(block)
    return stats


@dataclass(frozen=True)
class McRiskResult:
    """Per-threshold Monte-Carlo error estimates with binomial standard errors."""

    thresholds: tuple[float, ...]
    alpha_hat: tuple[float, ...]
    se_alpha: tuple[float, ...]
    beta_hat: tuple[float, ...]
    se_beta: tuple[float, ...]
    risk_hat: tuple[float, ...]
    argmin_threshold: float
    argmin_index: int
    statistic: str
    seed: int


def mc_bayes_risk(prior: PriorSpec, cfg: McConfig, statistic: str,
                  w0: float = 1.0, w1: float = 1.0) -> McRiskResult:
    """Estimate the Bayes risk curve over the threshold grid.

    Alternatives are drawn from the prior, a fresh sample is simulated from
    each, and the statistic is computed against the null; the Type-I curve
    comes from null replicates of the same statistic.  Deterministic given
    the seed.
    """
    if statistic not in STATISTICS:
        raise DomainError(f"statistic must be one of {STATISTICS}, got {statistic!r}")
    require_positive("w0", w0)
    require_positive("w1", w1)
    stat_fn = _STAT_FN[statistic]

    thetas = _prior_draws(prior, substream(cfg.seed, _KIND_PRIOR_DRAW, 0), cfg.m_alternatives)
    alt = {}

    def alternatives():
        try:
            alt["stats"] = np.sort(_replicate_statistics(
                stat_fn, substream(cfg.seed, _KIND_ALT_DATA, 0), thetas, cfg.n))
        except BaseException as exc:
            alt["error"] = exc

    worker = threading.Thread(target=alternatives, name="mdpcal-mc-alternatives")
    worker.start()
    try:
        t_null = np.sort(_replicate_statistics(
            stat_fn, substream(cfg.seed, _KIND_NULL_DATA, 0), np.zeros(cfg.m_null), cfg.n))
    finally:
        worker.join()
    if "error" in alt:
        raise alt["error"]
    t_alt = alt["stats"]

    grid = np.asarray(cfg.threshold_grid)
    # alpha(t) = P(T0 > t), beta(t) = P(T1 <= t); same draws across thresholds.
    alpha = 1.0 - np.searchsorted(t_null, grid, side="right") / cfg.m_null
    beta = np.searchsorted(t_alt, grid, side="right") / cfg.m_alternatives
    se_alpha = np.sqrt(alpha * (1.0 - alpha) / cfg.m_null)
    se_beta = np.sqrt(beta * (1.0 - beta) / cfg.m_alternatives)
    risk = w0 * alpha + w1 * beta
    argmin = int(np.argmin(risk))

    return McRiskResult(
        thresholds=tuple(grid),
        alpha_hat=tuple(alpha),
        se_alpha=tuple(se_alpha),
        beta_hat=tuple(beta),
        se_beta=tuple(se_beta),
        risk_hat=tuple(risk),
        argmin_threshold=float(grid[argmin]),
        argmin_index=argmin,
        statistic=statistic,
        seed=cfg.seed,
    )


class ExponentFit(NamedTuple):
    kappa_hat: float
    intercept: float
    r2: float


def fit_power_law(radii: Sequence[float], probs: Sequence[float]) -> ExponentFit:
    """Least-squares fit of log p on log radius; slope is the exponent."""
    if len(radii) != len(probs):
        raise DomainError("radii and probabilities must have equal lengths")
    if len(radii) < 2:
        raise DomainError("need at least two radii to fit a slope")
    if any(r <= 0 for r in radii) or any(p <= 0 for p in probs):
        raise DomainError("radii and probabilities must be positive")
    xs = [math.log(r) for r in radii]
    ys = [math.log(p) for p in probs]
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    syy = sum((y - y_bar) ** 2 for y in ys)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    if sxx == 0:
        raise DomainError("radii must not all coincide")
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return ExponentFit(slope, intercept, r2)


def estimate_prior_exponent(prior: PriorSpec, radii: Sequence[float], m: int,
                            seed: int) -> ExponentFit:
    """Probe the prior near the origin: empirical mass below each radius,
    then a log-log regression for the exponent."""
    radii = require_reals("radii", radii)
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly decreasing")
    if any(not 0 < r <= prior.truncation for r in radii):
        raise DomainError("radii must lie in (0, truncation]")
    m = require_count("m", m, 1)

    gen = substream(require_count("seed", seed), _KIND_PRIOR_PROBE, 0)
    thetas = _prior_draws(prior, gen, m)
    probs = []
    for eps in radii:
        p_hat = np.count_nonzero(thetas <= eps) / m
        if p_hat == 0.0:
            raise DomainError(
                f"no prior draws below radius {eps}; increase m or enlarge the radii"
            )
        probs.append(p_hat)
    return fit_power_law(radii, probs)


def _prior_from_json(payload) -> PriorSpec:
    require_fields(payload, "prior JSON",
                   dict.fromkeys(("lambda", "gamma_rate", "truncation"), REAL))
    family = payload.get("family", "laplace-location")
    if family != "laplace-location":
        raise DomainError(f"unsupported prior family {family!r}")
    return PriorSpec(
        lambda_=float(payload["lambda"]),
        gamma_rate=float(payload["gamma_rate"]),
        truncation=float(payload["truncation"]),
    )


@dataclass(frozen=True)
class McRun:
    prior: PriorSpec
    config: McConfig
    statistic: str
    w0: float = 1.0
    w1: float = 1.0


def load_mc_config(path: str | Path) -> McRun:
    """Read a Bayes-risk MC run from JSON mirroring the PriorSpec/McConfig fields."""
    payload = load_json_object(path, "MC config",
                               {"prior": OBJECT, "mc": OBJECT, "statistic": STRING,
                                "w0": REAL, "w1": REAL}, optional=("w0", "w1"))
    mc = require_fields(payload["mc"], "MC config 'mc'",
                        {"m_alternatives": NUMBER, "m_null": NUMBER, "n": NUMBER,
                         "seed": NUMBER, "threshold_grid": REALS})
    return McRun(
        prior=_prior_from_json(payload["prior"]),
        config=McConfig(
            m_alternatives=mc["m_alternatives"],
            m_null=mc["m_null"],
            n=mc["n"],
            seed=mc["seed"],
            threshold_grid=tuple(mc["threshold_grid"]),
        ),
        statistic=payload["statistic"],
        w0=float(payload.get("w0", 1.0)),
        w1=float(payload.get("w1", 1.0)),
    )


@dataclass(frozen=True)
class ExponentRun:
    prior: PriorSpec
    radii: tuple[float, ...]
    m: int
    seed: int


def load_exponent_config(path: str | Path) -> ExponentRun:
    """Read a prior-exponent probe configuration from JSON."""
    payload = load_json_object(path, "exponent config",
                               {"prior": OBJECT, "radii": REALS, "m": NUMBER, "seed": NUMBER})
    return ExponentRun(
        prior=_prior_from_json(payload["prior"]),
        radii=tuple(float(r) for r in payload["radii"]),
        m=require_count("m", payload["m"], 1),
        seed=require_count("seed", payload["seed"]),
    )
