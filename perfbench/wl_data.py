"""data_tests: statistics applied to raw data, in-process.

One round runs each entry of ``specs.DATA_CYCLE`` on fresh seeded inputs:
SampleBatch + ks_statistic + sign_count on a Laplace sample, CountVector +
pearson_chi2 + evidence_bundle on a count vector, and half_space_rate on a
discrete null.  Work units are sample points, count cells and support points.
Outputs are checked against numpy recomputations and the exact identities.
"""

from __future__ import annotations

import math

import numpy as np

import harness
import specs
from harness import check

IDENTITY_TOL = 1e-12
TILT_TOL = 1e-8


def laplace_cdf(x: float) -> float:
    return 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class DataWorkload:
    def __init__(self, seed: int, tracer):
        import mdpcal
        self.mdpcal = mdpcal
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.ledger = harness.Ledger()

    def sample_op(self, n: int):
        values = self.rng.laplace(loc=self.rng.uniform(-0.05, 0.05), size=n).tolist()
        g, t = self.mdpcal, self.tracer

        def call():
            with t.span(f"gof_stats.sample_batch[n={n}]"):
                batch = g.SampleBatch(values)
            with t.span(f"gof_stats.ks_statistic[n={n}]"):
                d = g.ks_statistic(batch, laplace_cdf)
            with t.span(f"gof_stats.sign_count[n={n}]"):
                v = g.sign_count(batch)
            return batch, d, v

        def verify(result):
            batch, d, v = result
            x = np.sort(np.asarray(values))
            check(batch.n == n and np.array_equal(np.asarray(batch.sorted_values), x), "sorted copy")
            u = np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
            i = np.arange(1, n + 1)
            d_np = max(0.0, float(np.max(i / n - u)), float(np.max(u - (i - 1) / n)))
            check(abs(d - d_np) <= 1e-12, f"ks {d} vs numpy {d_np}")
            check(v == int(np.count_nonzero(x > 0)), "sign count")
        return call, verify

    def counts_op(self, k: int):
        theta0 = self.rng.dirichlet(np.full(k, 5.0))
        truth = 0.9 * theta0 + 0.1 * self.rng.dirichlet(np.full(k, 5.0))
        counts = self.rng.multinomial(10 * k, truth / truth.sum()).tolist()
        theta = theta0.tolist()
        g, t = self.mdpcal, self.tracer

        def call():
            with t.span(f"gof_stats.count_vector[k={k}]"):
                cv = g.CountVector(counts)
            with t.span(f"gof_stats.pearson_chi2[k={k}]"):
                chi2 = g.pearson_chi2(cv, theta)
            with t.span(f"triangulation.evidence_bundle[k={k}]"):
                ev = g.evidence_bundle(cv, theta)
            return chi2, ev

        def verify(result):
            chi2, ev = result
            c, th = np.asarray(counts, dtype=float), np.asarray(theta)
            n = c.sum()
            chi2_np = float(np.sum((c - n * th) ** 2 / (n * th)))
            check(_close(chi2, chi2_np, 1e-10), f"pearson {chi2} vs numpy {chi2_np}")
            p = c / n
            nz = p > 0
            d_np = float(np.sum(p[nz] * np.log(p[nz] / th[nz])))
            check(_close(ev.d_kl, d_np, 1e-10), f"d_kl {ev.d_kl} vs numpy {d_np}")
            check(ev.pearson == chi2, "bundle pearson")
            check(_close(ev.lambda_n, 2.0 * n * ev.d_kl, IDENTITY_TOL), "lambda_n = 2 n D")
            check(_close(ev.w_good, n * ev.d_kl + 0.5 * (k - 1) * math.log(n), IDENTITY_TOL),
                  "w_good = n D + (k-1)/2 ln n")
            check(_close(ev.entropy_deficit, ev.d_kl + ev.cross_term, IDENTITY_TOL),
                  "entropy deficit = D + cross term")
        return call, verify

    def halfspace_op(self, k: int):
        support = np.sort(self.rng.normal(size=k))
        probs = self.rng.dirichlet(np.ones(k))
        probs /= probs.sum()
        mean = float(probs @ support)
        # Null mean of phi is negative and max phi positive: an interior tilt.
        phi = support - (mean + 0.5 * (support[-1] - mean))
        g, t = self.mdpcal, self.tracer

        def call():
            with t.span(f"sanov_rates.half_space_rate[k={k}]"):
                problem = g.TiltedHalfSpace(tuple(support.tolist()), tuple(probs.tolist()),
                                            tuple(phi.tolist()))
                return g.half_space_rate(problem)

        def verify(sol):
            check(sol.status == "interior", f"status {sol.status}")
            q = np.asarray(sol.tilted_probs)
            check(abs(float(q @ phi)) <= TILT_TOL, f"tilted mean of phi {float(q @ phi)}")
            pos = q > 0
            kl = float(np.sum(q[pos] * np.log(q[pos] / probs[pos])))
            check(math.isfinite(sol.rate) and _close(sol.rate, kl, 1e-6),
                  f"rate {sol.rate} vs KL(q||p) {kl}")
        return call, verify

    def rounds(self):
        makers = {"sample": self.sample_op, "counts": self.counts_op,
                  "halfspace": self.halfspace_op}
        while True:
            yield [(f"{kind}[{size}]", size, *makers[kind](size))
                   for kind, size in specs.DATA_CYCLE]

    def run(self, seconds: float) -> dict:
        for batch in harness.run_until(seconds, self.rounds()):
            for what, units, call, verify in batch:
                with self.tracer.op("op.data_tests"):
                    self.ledger.run(what, units, call, verify)
        return {
            "metrics": self.ledger.latency_metrics(),
            "attempted": self.ledger.attempted,
            "failures": self.ledger.failures,
            "peak_rss_mb": harness.peak_rss_mb(),
            "detail": {"ops": len(self.ledger.latencies()),
                       **{f"{k}_p50_ms": harness.percentile(self.ledger.latencies(k), 0.5) * 1e3
                          for k in self.ledger.kinds()}},
        }


def run(seed: int, seconds: float, tracer) -> dict:
    return DataWorkload(seed, tracer).run(seconds)
