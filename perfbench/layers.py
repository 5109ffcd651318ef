"""Per-layer metrics of the traced run.

Each metric reads spans that the benchmark records around its own calls into
one public function of a module under src/mdpcal.  A workload's traced loop
records the spans of the layers it exercises; for every other metric a short
probe makes the same call at a fixed size, so each traced run reports every
metric.  Values are medians of self time per call; ``cli.main_ms`` is the
mean over whole rounds of the regular mix.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import numpy as np

import harness
import specs
import wl_cli
import wl_data
import wl_mc

MIN_SPANS = 5

# metric -> (span name, unit); the value is the median self time per call.
SPAN_METRICS = {
    "cli.interpreter_ms": ("cli.interpreter", "ms"),
    "calibrators.emit_tables_ms": ("calibrators.emit_tables", "ms"),
    "calibrators.calibrate_us": ("calibrators.calibrate", "us"),
    "risk_core.numeric_minimiser_ms": ("risk_core.numeric_minimiser", "ms"),
    "special_fn.chi2_quantile_ms": ("special_fn.chi2_quantile", "ms"),
    "special_fn.kolmogorov_quantile_us": ("special_fn.kolmogorov_quantile", "us"),
    "special_fn.regularized_gamma_p_us": ("special_fn.regularized_gamma_p", "us"),
    "gof_stats.sample_batch_ms": ("gof_stats.sample_batch[n=100000]", "ms"),
    "gof_stats.ks_statistic_ms": ("gof_stats.ks_statistic[n=100000]", "ms"),
    "gof_stats.sign_count_ms": ("gof_stats.sign_count[n=100000]", "ms"),
    "gof_stats.pearson_chi2_ms": ("gof_stats.pearson_chi2[k=10000]", "ms"),
    "sanov_rates.half_space_rate_k50_ms": ("sanov_rates.half_space_rate[k=50]", "ms"),
    "sanov_rates.half_space_rate_k1000_ms": ("sanov_rates.half_space_rate[k=1000]", "ms"),
    "triangulation.evidence_bundle_ms": ("triangulation.evidence_bundle[k=10000]", "ms"),
    "mc_engine.substream_us": ("mc_engine.substream", "us"),
    "mc_engine.mc_bayes_risk_sign_ms": ("mc_engine.mc_bayes_risk_sign", "ms"),
    "mc_engine.mc_bayes_risk_ks_ms": ("mc_engine.mc_bayes_risk_ks", "ms"),
    "mc_engine.prior_exponent_ms": ("mc_engine.prior_exponent", "ms"),
}
SPAN_METRICS.update({f"cli.main.{kind.replace('-', '_')}_ms": (f"cli.main.{kind}", "ms")
                     for kind in wl_cli.KINDS})

# Metrics derived from several spans, counted, or computed from sizes.
OTHER_METRICS = {
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "mc_engine.sampler_build_ms": "ms",
    "special_fn.gamma_calls_per_sampler": "count",
    "mc_engine.substreams_per_call": "count",
    "mc_engine.matrix_mb": "MB",
    "trace.span_cost_us": "us",
}

SCALE = {"ms": 1e3, "us": 1e6}


class Probes:
    """One call per invocation into a layer, at the fixed probe size."""

    def __init__(self, tracer, seed: int):
        import mdpcal
        self.g = mdpcal
        self.t = tracer
        self.rng = np.random.default_rng(seed)
        self.fresh = 0
        self.data = wl_data.DataWorkload(seed, tracer)
        self.mc_prior = wl_mc.prior(specs.MC_PRIOR)

    def _subprocess(self, name: str, code: str) -> None:
        with self.t.span(name):
            subprocess.run([sys.executable, "-c", code], env=harness.child_env(),
                           cwd=harness.ROOT, check=True, capture_output=True,
                           timeout=harness.OP_TIMEOUT_S)

    def fresh_prior(self):
        # A new truncation defeats the per-prior sampler cache.
        self.fresh += 1
        lam, rate, trunc = specs.MC_PRIOR
        return self.g.PriorSpec(lambda_=lam, gamma_rate=rate,
                                truncation=trunc * (1.0 + 1e-12 * self.fresh))

    def run(self, span: str) -> None:
        g, t = self.g, self.t
        if span in ("cli.interpreter", "cli.import"):
            self._subprocess("cli.interpreter", "pass")
            self._subprocess("cli.import", "import mdpcal")
        elif span.startswith("cli.main."):
            rng = random.Random(self.fresh)
            self.fresh += 1
            from mdpcal.cli import main
            workdir = harness.OUT / "probe"
            workdir.mkdir(parents=True, exist_ok=True)
            for kind, argv in next(wl_cli.rounds(rng, workdir)):
                with t.span("cli.main." + kind):
                    wl_cli.inproc(main, argv)
        elif span == "calibrators.emit_tables":
            with t.span(span):
                g.emit_tables()
        elif span == "calibrators.calibrate":
            with t.span(span, calls=5):
                g.calibrate_ks(2.0, 10_000)
                g.calibrate_sign(2.0, 10_000)
                g.calibrate_chi2(10, 10_000)
                g.calibrate_contingency(3, 4, 10_000)
                g.calibrate_fisher(1.0, 2, 10_000)
        elif span == "risk_core.numeric_minimiser":
            problem = g.CalibrationProblem(rho=1.0, kappa=2.0, n=10 ** 6)
            with t.span(span):
                g.numeric_minimiser(problem)
        elif span == "special_fn.chi2_quantile":
            with t.span(span, calls=30):
                for df in range(1, 31):
                    g.chi2_quantile(0.95, df)
        elif span == "special_fn.kolmogorov_quantile":
            levels = (0.5, 0.9, 0.95, 0.99, 0.999)
            with t.span(span, calls=len(levels)):
                for p in levels:
                    g.kolmogorov_quantile(p)
        elif span == "special_fn.regularized_gamma_p":
            # The argument range the MC prior's sampler build sweeps.
            lam, rate, trunc = specs.MC_PRIOR
            xs = [rate * trunc * (i / 2000) ** 2 for i in range(1, 2001)]
            with t.span(span, calls=len(xs)):
                for x in xs:
                    g.regularized_gamma_p(lam, x)
        elif span.startswith("gof_stats.") and "[n=" in span:
            call, _ = self.data.sample_op(100_000)
            call()
        elif span.startswith(("gof_stats.pearson", "triangulation.")):
            call, _ = self.data.counts_op(10_000)
            call()
        elif span.startswith("sanov_rates."):
            call, _ = self.data.halfspace_op(int(span.split("k=")[1].rstrip("]")))
            call()
        elif span == "mc_engine.substream":
            with t.span(span, calls=2000):
                for i in range(2000):
                    g.substream(self.fresh, 0, i)
        elif span.startswith("mc_engine.mc_bayes_risk_"):
            statistic = span.rsplit("_", 1)[1]
            cfg = g.McConfig(seed=int(self.rng.integers(2 ** 63)),
                             threshold_grid=specs.MC_GRID, **specs.WIDE)
            with t.span(span):
                g.mc_bayes_risk(self.mc_prior, cfg, statistic)
        elif span == "mc_engine.prior_exponent":
            p = wl_mc.prior(specs.exponent_priors()[0])
            seed = int(self.rng.integers(2 ** 63))
            with t.span(span):
                g.estimate_prior_exponent(p, specs.EXPONENT_RADII, specs.EXPONENT_M, seed)
        elif span in ("mc_engine.first_call", "mc_engine.warm_call"):
            p = self.fresh_prior()
            cfg = g.McConfig(1, 1, 1, 0, (0.0,))
            with t.span("mc_engine.first_call"):
                g.mc_bayes_risk(p, cfg, "sign")
            with t.span("mc_engine.warm_call"):
                g.mc_bayes_risk(p, cfg, "sign")
        else:
            raise KeyError(span)

    def gamma_calls_per_sampler(self) -> int:
        """regularized_gamma_p calls made while one fresh sampler is built."""
        import mdpcal.mc_engine as engine
        original = getattr(engine, "regularized_gamma_p", None)
        if original is None:
            return 0
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        engine.regularized_gamma_p = counting
        try:
            self.g.mc_bayes_risk(self.fresh_prior(), self.g.McConfig(1, 1, 1, 0, (0.0,)), "sign")
        finally:
            engine.regularized_gamma_p = original
        return calls


def span_cost_us(n: int = 20_000) -> float:
    """Cost of recording one empty span."""
    tracer = harness.Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / n * 1e6


def collect(tracer, workload: str, seed: int) -> dict:
    """Fill every missing span by probing, then compute all per-layer metrics."""
    probes = Probes(tracer, seed)
    needed = [span for span, _ in SPAN_METRICS.values()]
    needed += ["cli.import", "mc_engine.first_call", "mc_engine.warm_call"]
    for span in needed:
        while tracer.count(span) < MIN_SPANS:
            probes.run(span)

    def med(span: str) -> float:
        return statistics.median(tracer.per_call(span))

    out = {name: (med(span) * SCALE[unit], unit) for name, (span, unit) in SPAN_METRICS.items()}
    main_calls = [s for k in wl_cli.KINDS for s in tracer.per_call("cli.main." + k)]
    sizes = specs.LONG if workload == "mc_long" else specs.WIDE
    out.update({
        "cli.import_ms": ((med("cli.import") - med("cli.interpreter")) * 1e3, "ms"),
        "cli.main_ms": (statistics.fmean(main_calls) * 1e3, "ms"),
        "mc_engine.sampler_build_ms":
            ((med("mc_engine.first_call") - med("mc_engine.warm_call")) * 1e3, "ms"),
        "special_fn.gamma_calls_per_sampler": (probes.gamma_calls_per_sampler(), "count"),
        "mc_engine.substreams_per_call":
            (2 * sizes["m_alternatives"] + sizes["m_null"], "count"),
        "mc_engine.matrix_mb":
            (8 * (sizes["m_alternatives"] + sizes["m_null"]) * sizes["n"] / 2 ** 20, "MB"),
        "trace.span_cost_us": (span_cost_us(), "us"),
    })
    return out


def module_self_times(tracer) -> dict:
    """Total self time per module prefix of the span names, in ms."""
    totals: dict[str, float] = {}
    for rec, s in zip(tracer.spans, tracer.self_times()):
        module = rec["name"].split(".", 1)[0]
        totals[module] = totals.get(module, 0.0) + s * 1e3
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
