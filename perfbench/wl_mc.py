"""mc_wide and mc_long: warm in-process Monte-Carlo Bayes-risk calls.

mc_wide runs many short replicates (per-replicate substream set-up
dominates); mc_long runs few long ones plus the one-stream prior-exponent
probe (Laplace generation, the KS sort and the m x n matrices dominate).
Each call gets a fresh seed from the run seed.  Sign-test null error rates
are checked against the exact Binomial(n, 1/2) tail, kappa_hat against the
fit on exact prior masses, and one call of each kind is repeated to check
bit-reproducibility.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

import harness
import specs
from harness import check

# A count fails its oracle when the Chernoff bound on its binomial tail
# probability is below this level, so a correct engine fails no check of
# the benchmark's lifetime by chance.
TAIL_LEVEL = 1e-9
# Standard errors a fitted exponent may sit from the exact-mass fit.
Z_EXPONENT = 5.0


def _kl(a: float, p: float) -> float:
    # Bernoulli KL(a || p), 0 log 0 = 0.
    out = 0.0
    for x, y in ((a, p), (1.0 - a, 1.0 - p)):
        if x > 0.0:
            out += math.inf if y <= 0.0 else x * math.log(x / y)
    return out


def binomial_outlier(count: int, m: int, p: float) -> bool:
    """True when count/m is implausible under Binomial(m, p).

    exp(-m KL(count/m || p)) bounds the tail beyond count (Chernoff).
    """
    return m * _kl(count / m, p) > -math.log(TAIL_LEVEL)


def prior(triple):
    from mdpcal import PriorSpec
    lam, rate, trunc = triple
    return PriorSpec(lambda_=lam, gamma_rate=rate, truncation=trunc)


class SignNullOracle:
    """Exact null Type-I error of the Gaussianised sign statistic.

    Under the null the positive count V is Binomial(n, 1/2); the tail sums
    are exact integers, divided by 2^n once.
    """

    def __init__(self, n: int):
        comb = [1] * (n + 1)
        for v in range(n):
            comb[v + 1] = comb[v] * (n - v) // (v + 1)
        tail = [0] * (n + 2)
        for v in range(n, -1, -1):
            tail[v] = tail[v + 1] + comb[v]
        total = 1 << n
        self.tail = [t / total for t in tail]
        # The statistic exactly as mc_engine forms it, so ties land alike.
        self.z = [(v - 0.5 * n) / (0.5 * math.sqrt(n)) for v in range(n + 1)]

    def alpha(self, t: float) -> float:
        """P(T0 > t)."""
        return self.tail[bisect.bisect_right(self.z, t)]


def verify_curve(res, cfg, statistic: str, oracle: SignNullOracle) -> None:
    grid = cfg.threshold_grid
    check(res.thresholds == grid and res.statistic == statistic, "grid or statistic echoed wrong")
    alpha, beta, risk = np.array(res.alpha_hat), np.array(res.beta_hat), np.array(res.risk_hat)
    check(all(len(v) == len(grid) for v in (alpha, beta, risk)), "curve length")
    check(bool(np.all((alpha >= 0) & (alpha <= 1) & (beta >= 0) & (beta <= 1))), "rates outside [0, 1]")
    check(bool(np.all(np.diff(alpha) <= 0) and np.all(np.diff(beta) >= 0)), "rates not monotone")
    check(bool(np.all(risk == alpha + beta)), "risk != alpha + beta")
    check(res.argmin_index == int(np.argmin(risk))
          and res.argmin_threshold == grid[res.argmin_index], "argmin")
    if statistic == "sign":
        m = cfg.m_null
        for t, a in zip(grid, alpha):
            p = oracle.alpha(t)
            count = round(a * m)
            check(abs(count - a * m) < 1e-6 and not binomial_outlier(count, m, p),
                  f"alpha_hat {a} vs exact {p} at t={t}")


def gamma_p_integer(k: int, x: float) -> float:
    """P(k, x) = 1 - exp(-x) sum_{j<k} x^j / j! for integer shape k."""
    return 1.0 - math.exp(-x) * sum(x ** j / math.factorial(j) for j in range(k))


def exponent_oracle(lam: float) -> tuple[float, float]:
    """Slope of the log-log fit on the exact prior masses, and a bound on the
    standard error of the fitted slope from m binomial draws.

    The bound adds the per-radius errors of log p_hat as if fully correlated.
    """
    k = int(lam)
    if k != lam:
        raise ValueError("the closed-form oracle needs an integer lambda")
    rate, trunc, radii = specs.EXPONENT_GAMMA_RATE, specs.EXPONENT_TRUNCATION, specs.EXPONENT_RADII
    total = gamma_p_integer(k, rate * trunc)
    probs = [gamma_p_integer(k, rate * r) / total for r in radii]
    xs, ys = [math.log(r) for r in radii], [math.log(p) for p in probs]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    slope = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sxx
    se = sum(abs(x - x_bar) / sxx * math.sqrt((1.0 - p) / (specs.EXPONENT_M * p))
             for x, p in zip(xs, probs))
    return slope, se


class McWorkload:
    def __init__(self, name: str, seed: int, tracer):
        import mdpcal
        self.mdpcal = mdpcal
        self.name = name
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.sizes = specs.WIDE if name == "mc_wide" else specs.LONG
        self.cycle = specs.WIDE_CYCLE if name == "mc_wide" else specs.LONG_CYCLE
        self.mc_prior = prior(specs.MC_PRIOR)
        self.exp_priors = [prior(t) for t in specs.exponent_priors()]
        self.oracle = SignNullOracle(self.sizes["n"])
        self.ledger = harness.Ledger()
        self.first: dict[str, tuple] = {}  # kind -> (call, result)
        self.exp_index = 0
        self.exponent_oracle = [exponent_oracle(lam) for lam in specs.EXPONENT_LAMBDAS]
        self.kappa_dev = 0.0  # largest |kappa_hat - lambda| seen
        # Lazy set-up, as setup_child does it: build every sampler now.
        for p in [self.mc_prior] + self.exp_priors:
            mdpcal.mc_bayes_risk(p, mdpcal.McConfig(1, 1, 1, 0, (0.0,)), "sign")

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 63))

    def _mc_call(self, statistic: str):
        cfg = self.mdpcal.McConfig(seed=self._seed(), threshold_grid=specs.MC_GRID, **self.sizes)
        units = (cfg.m_alternatives + cfg.m_null) * cfg.n

        def call():
            with self.tracer.span("mc_engine.mc_bayes_risk_" + statistic):
                return self.mdpcal.mc_bayes_risk(self.mc_prior, cfg, statistic)
        return call, units, lambda r: verify_curve(r, cfg, statistic, self.oracle)

    def _exponent_call(self):
        i = self.exp_index % len(self.exp_priors)
        self.exp_index += 1
        p, lam, seed = self.exp_priors[i], specs.EXPONENT_LAMBDAS[i], self._seed()

        def call():
            with self.tracer.span("mc_engine.prior_exponent"):
                return self.mdpcal.estimate_prior_exponent(
                    p, specs.EXPONENT_RADII, specs.EXPONENT_M, seed)

        def verify(fit):
            self.kappa_dev = max(self.kappa_dev, abs(fit.kappa_hat - lam))
            exact, se = self.exponent_oracle[i]
            check(abs(fit.kappa_hat - exact) <= Z_EXPONENT * se,
                  f"kappa_hat {fit.kappa_hat} vs exact-mass fit {exact} (se {se:.3g})")
        return call, specs.EXPONENT_M, verify

    def rounds(self):
        while True:
            yield [(kind, self._exponent_call() if kind == "exponent" else self._mc_call(kind))
                   for kind in self.cycle]

    def run(self, seconds: float) -> dict:
        for batch in harness.run_until(seconds, self.rounds()):
            for kind, (call, units, verify) in batch:
                with self.tracer.op("op." + self.name):
                    res = self.ledger.run(kind, units, call, verify)
                if res is not None and kind not in self.first:
                    self.first[kind] = (call, res)
        # Oracle: the same seed gives identical results twice.
        for kind, (call, res) in self.first.items():
            def again(call=call, res=res):
                check(call() == res, "same seed, different result")
            self.ledger.untimed("repeat-" + kind, again)

        kinds = self.ledger.kinds()
        detail = {"mc_draws_per_s": self.ledger.rate(*(k for k in kinds if k != "exponent")),
                  "calls": len(self.ledger.latencies())}
        if "exponent" in kinds:
            detail["prior_draws_per_s"] = self.ledger.rate("exponent")
            detail["max_abs_kappa_hat_minus_lambda"] = self.kappa_dev
        return {
            "metrics": self.ledger.latency_metrics(),
            "attempted": self.ledger.attempted,
            "failures": self.ledger.failures,
            "peak_rss_mb": harness.peak_rss_mb(),
            "detail": detail,
        }


def run(name: str, seed: int, seconds: float, tracer) -> dict:
    return McWorkload(name, seed, tracer).run(seconds)
