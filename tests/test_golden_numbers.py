"""Golden digest of the published closed-form numbers.

Every value below is printed to 12 significant digits, so that last-ulp libm
differences between platforms cannot trip the digest while any change to an
optimiser, a bisection or a table formula does.  The half-space problems and
risk curves come from a fixed-seed ``random.Random``.
"""

import hashlib
import random

from mdpcal import (CalibrationProblem, TiltedHalfSpace, chi2_quantile, emit_tables,
                    half_space_rate, kolmogorov_quantile, numeric_minimiser)

DIGEST = "80cebe3a45c2e11d07bb74e93ba1c188425814e919018d71cd5c8ddf189f1280"


def _half_space_problems(rng, count):
    for _ in range(count):
        k = rng.randint(2, 60)
        support = sorted(rng.uniform(-2.0, 2.0) for _ in range(k))
        weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
        total = sum(weights)
        probs = [w / total for w in weights]
        mean = sum(p * s for p, s in zip(probs, support))
        shift = mean + rng.uniform(0.05, 0.95) * (support[-1] - mean)
        yield TiltedHalfSpace(tuple(support), tuple(probs), tuple(s - shift for s in support))


def _lines():
    for name, rows in emit_tables().items():
        for row in rows:
            yield name, *row.values()
    rng = random.Random(20260219)
    for problem in _half_space_problems(rng, 40):
        sol = half_space_rate(problem)
        yield "half_space", sol.rate, sol.t_star, sol.status, *sol.tilted_probs
    for p in (0.5, 0.9, 0.95, 0.99, 0.999, 1e-6, 1 - 1e-9):
        yield "kolmogorov_quantile", p, kolmogorov_quantile(p)
    for df in (1, 2, 3, 9, 30, 100, 1_000, 10 ** 5, 10 ** 6):
        for p in (0.05, 0.5, 0.95):
            yield "chi2_quantile", p, df, chi2_quantile(p, df)
    for _ in range(20):
        problem = CalibrationProblem(rho=rng.choice((1.0, 0.25)), kappa=rng.uniform(0.5, 10.0),
                                     n=int(10 ** rng.uniform(2.0, 7.0)),
                                     w0=rng.uniform(0.5, 2.0), w1=rng.uniform(0.5, 2.0))
        curve = numeric_minimiser(problem)
        yield "numeric_minimiser", curve.argmin_a, curve.min_risk


def _text():
    def cell(v):
        return f"{v:.12g}" if isinstance(v, float) else str(v)
    return "\n".join(",".join(map(cell, line)) for line in _lines())


def test_published_numbers_digest():
    assert hashlib.sha256(_text().encode()).hexdigest() == DIGEST
