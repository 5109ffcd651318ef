"""Monte-Carlo engine: determinism, oracles, prior-exponent recovery."""

import dataclasses
import hashlib
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mdpcal import (DomainError, McConfig, PriorSpec, SampleBatch,
                    estimate_prior_exponent, fit_power_law, ks_statistic,
                    load_exponent_config, load_mc_config, mc_bayes_risk,
                    plugin_threshold, regularized_gamma_p, substream,
                    write_mc_csv)
import mdpcal.mc_engine as engine
from mdpcal.mc_engine import _gamma_p_grid, _ks_rows, _laplace_cdf, _sign_rows

GRID = tuple(0.5 + 0.05 * i for i in range(111))  # 0.5 .. 6.0


def small_config(seed: int = 42, **overrides) -> McConfig:
    kwargs = dict(m_alternatives=200, m_null=200, n=100, seed=seed,
                  threshold_grid=GRID)
    kwargs.update(overrides)
    return McConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        cfg = small_config()
        first = mc_bayes_risk(prior, cfg, "sign")
        second = mc_bayes_risk(prior, cfg, "sign")
        assert first.alpha_hat == second.alpha_hat
        assert first.beta_hat == second.beta_hat
        assert first.risk_hat == second.risk_hat
        assert first.argmin_threshold == second.argmin_threshold

    def test_different_seeds_differ(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        a = mc_bayes_risk(prior, small_config(seed=1), "sign")
        b = mc_bayes_risk(prior, small_config(seed=2), "sign")
        assert a.beta_hat != b.beta_hat

    def test_substreams_are_distinct(self):
        draws = {substream(7, kind, idx).random() for kind in range(3) for idx in range(4)}
        assert len(draws) == 12


def reference_risk(prior: PriorSpec, cfg: McConfig, statistic: str):
    """alpha_hat and beta_hat of RNG stream 2 with every m x n matrix drawn whole."""
    stat_fn = {"ks": _ks_rows, "sign": _sign_rows}[statistic]
    thetas = engine._sampler_for(prior).sample(
        substream(cfg.seed, engine._KIND_PRIOR_DRAW, 0), cfg.m_alternatives)

    def statistics(kind, locs):
        data = substream(cfg.seed, kind, 0).laplace(0, 1, (len(locs), cfg.n)) + locs[:, None]
        return np.sort(stat_fn(data))

    t_alt = statistics(engine._KIND_ALT_DATA, thetas)
    t_null = statistics(engine._KIND_NULL_DATA, np.zeros(cfg.m_null))
    grid = np.asarray(cfg.threshold_grid)
    alpha = 1.0 - np.searchsorted(t_null, grid, side="right") / cfg.m_null
    beta = np.searchsorted(t_alt, grid, side="right") / cfg.m_alternatives
    return tuple(alpha), tuple(beta)


class TestBlockEngine:
    # sha256 of the results below under RNG stream 2 (one Philox stream per
    # draw kind, vectorised prior CDF); it changes only with the stream.
    # The cases cover odd n, n = 1, m_null = 1, several row blocks with a
    # partial last one (n = 501, 100001) and a row longer than a block.
    CASES = ((37, 41, 13), (1, 1, 1), (600, 530, 501), (3, 1, 100_001), (2, 1, 300_001))
    DIGEST = "b1297ceafc70d68926a37517029e2b85d45d62371d6ad190d3ac14a56802e47b"

    def test_results_match_recorded_digest(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        digest = hashlib.sha256()
        for statistic in ("sign", "ks"):
            for m_alt, m_null, n in self.CASES:
                result = mc_bayes_risk(prior, McConfig(m_alt, m_null, n, 42, GRID), statistic)
                digest.update(json.dumps(dataclasses.asdict(result), sort_keys=True).encode())
        assert digest.hexdigest() == self.DIGEST

    @pytest.mark.parametrize("block_doubles", [None, 1, 4096])
    @pytest.mark.parametrize("statistic", ["sign", "ks"])
    @pytest.mark.parametrize("m_alt, m_null, n", [(600, 530, 501), (2, 3, 300_001)])
    def test_matches_whole_matrix_reference(self, monkeypatch, block_doubles, statistic,
                                            m_alt, m_null, n):
        # n = 501 leaves a partial last block at the default size and at 4096
        # doubles; n > 2^18 gives every row a block of its own.
        if block_doubles is not None:
            monkeypatch.setattr(engine, "_BLOCK_DOUBLES", block_doubles)
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        cfg = McConfig(m_alt, m_null, n, 7, GRID)
        result = mc_bayes_risk(prior, cfg, statistic)
        assert (result.alpha_hat, result.beta_hat) == reference_risk(prior, cfg, statistic)

    def test_sign_null_matches_exact_binomial(self):
        # Under the null the positive count V of n = 101 draws is
        # Binomial(101, 1/2); each alpha_hat over 20000 replicates must lie
        # within 5 standard errors of the exact tail P(V > 50.5 + t sqrt(n) / 2).
        n, m_null = 101, 20_000
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        result = mc_bayes_risk(prior, McConfig(1, m_null, n, 2026, GRID), "sign")
        z = [(v - 0.5 * n) / (0.5 * math.sqrt(n)) for v in range(n + 1)]
        checked = 0
        for t, a_hat in zip(GRID, result.alpha_hat):
            exact = sum(math.comb(n, v) for v in range(n + 1) if z[v] > t) / 2 ** n
            se = math.sqrt(exact * (1.0 - exact) / m_null)
            assert abs(a_hat - exact) <= 5.0 * se + 1e-12, (t, a_hat, exact)
            checked += exact * m_null > 10
        assert checked > 30

    def test_peak_memory_stays_below_full_matrices(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        mc_bayes_risk(prior, McConfig(1, 1, 1, 0, GRID), "sign")  # builds the cached sampler
        cfg = McConfig(m_alternatives=4000, m_null=4000, n=1000, seed=3, threshold_grid=GRID)
        matrices = 8 * (cfg.m_alternatives + cfg.m_null) * cfg.n
        tracemalloc.start()
        try:
            mc_bayes_risk(prior, cfg, "sign")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrices / 8


class TestThreads:
    PRIOR = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)

    @pytest.mark.parametrize("failing_side", ["alternatives", "null"])
    def test_stream_error_reaches_caller_and_worker_ends(self, monkeypatch, failing_side):
        # Alternative locations are prior draws in (0, truncation]; null ones are 0.
        original = engine._replicate_statistics

        def statistics(stat_fn, gen, locs, n):
            if np.any(locs != 0) == (failing_side == "alternatives"):
                raise ZeroDivisionError(failing_side)
            return original(stat_fn, gen, locs, n)

        monkeypatch.setattr(engine, "_replicate_statistics", statistics)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=failing_side):
            mc_bayes_risk(self.PRIOR, small_config(), "sign")
        assert threading.active_count() == before

    def test_concurrent_calls_match_serial(self):
        # Three calls at once (six threads, more than the cores of a small
        # machine, switching every microsecond) share the cached sampler and
        # each run their own worker; none may see another's draws.
        calls = [(small_config(seed=5, n=301), "ks"), (small_config(seed=6, n=257), "sign"),
                 (small_config(seed=5, n=301), "sign")]
        serial = [mc_bayes_risk(self.PRIOR, cfg, statistic) for cfg, statistic in calls]
        results = [None] * len(calls)
        start = threading.Barrier(len(calls))

        def run(i):
            start.wait()
            results[i] = mc_bayes_risk(self.PRIOR, *calls[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    def test_laplace_cdf_matches_two_exp_formula(self):
        tiny = [0.0, 1e-300, 5e-324, 0.5, 1.0, 36.7, 700.0, 745.2, 800.0, math.inf]
        x = np.concatenate([tiny, np.negative(tiny),
                            np.random.default_rng(3).laplace(0.0, 3.0, 1000)])
        two_exp = np.where(x < 0, 0.5 * np.exp(np.minimum(x, 0.0)),
                           1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
        assert _laplace_cdf(x).tobytes() == two_exp.tobytes()


class TestRiskCurve:
    def test_always_reject_limit(self):
        # thresholds below every realised KS statistic: alpha = 1, beta = 0
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        cfg = McConfig(m_alternatives=50, m_null=50, n=50, seed=3,
                       threshold_grid=(1e-9, 1e-6))
        result = mc_bayes_risk(prior, cfg, "ks")
        assert result.alpha_hat == (1.0, 1.0)
        assert result.beta_hat == (0.0, 0.0)

    def test_alpha_nonincreasing_beta_nondecreasing(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        for statistic in ("sign", "ks"):
            result = mc_bayes_risk(prior, small_config(), statistic)
            for a, b in zip(result.alpha_hat, result.alpha_hat[1:]):
                assert b <= a
            for a, b in zip(result.beta_hat, result.beta_hat[1:]):
                assert b >= a

    def test_risk_combines_weights(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        result = mc_bayes_risk(prior, small_config(), "sign", w0=2.0, w1=0.5)
        for alpha, beta, risk in zip(result.alpha_hat, result.beta_hat, result.risk_hat):
            assert risk == pytest.approx(2.0 * alpha + 0.5 * beta, rel=1e-12)

    def test_concentrated_prior_beats_binomial_tail_oracle(self):
        # Prior concentrated near theta = 10 (Gamma(100, 10)); at the MDP
        # threshold the exact binomial tail at p(10) is negligible, so the
        # Type-II estimate must be < 0.01.
        n, lam_prior = 200, 2.0
        prior = PriorSpec(lambda_=100.0, gamma_rate=10.0, truncation=20.0)
        t_mdp = math.sqrt(lam_prior * math.log(n))
        cfg = McConfig(m_alternatives=400, m_null=1, n=n, seed=11,
                       threshold_grid=(t_mdp,))
        result = mc_bayes_risk(prior, cfg, "sign")

        p10 = 1.0 - 0.5 * math.exp(-10.0)
        cutoff = int(n / 2 + t_mdp * math.sqrt(n) / 2)
        log_terms = [
            math.lgamma(n + 1) - math.lgamma(v + 1) - math.lgamma(n - v + 1)
            + v * math.log(p10) + (n - v) * math.log(1.0 - p10)
            for v in range(cutoff + 1)
        ]
        oracle_tail = sum(math.exp(t) for t in log_terms)
        assert oracle_tail < 1e-50
        assert result.beta_hat[0] < 0.01

    def test_vectorised_ks_matches_scalar(self):
        rng = np.random.default_rng(8)
        data = rng.laplace(0.3, 1.0, (5, 40))
        rows = _ks_rows(data)
        for i in range(5):
            batch = SampleBatch(tuple(data[i]))
            scalar = ks_statistic(batch, lambda x: float(_laplace_cdf(np.asarray(x))))
            assert rows[i] == pytest.approx(math.sqrt(40) * scalar, rel=1e-12)

    def test_ks_basin_location(self):
        # lambda = 2 with the KS statistic (rho = 1): the MC argmin lies
        # within 20% of t* = sqrt((lambda/4) ln n)
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        grid = tuple(0.2 + 0.02 * i for i in range(191))
        cfg = McConfig(m_alternatives=2000, m_null=2000, n=500, seed=42,
                       threshold_grid=grid)
        result = mc_bayes_risk(prior, cfg, "ks")
        t_star = math.sqrt(0.5 * math.log(500))
        assert abs(result.argmin_threshold - t_star) <= 0.2 * t_star

    def test_validation(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        with pytest.raises(DomainError):
            mc_bayes_risk(prior, small_config(), "pearson")
        with pytest.raises(DomainError):
            McConfig(m_alternatives=0, m_null=10, n=10, seed=1, threshold_grid=(1.0,))
        with pytest.raises(DomainError):
            McConfig(m_alternatives=10, m_null=10, n=10, seed=1, threshold_grid=())
        with pytest.raises(DomainError):
            McConfig(m_alternatives=10, m_null=10, n=10, seed=1, threshold_grid=(2.0, 1.0))
        with pytest.raises(DomainError):
            PriorSpec(family="cauchy-location")

    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, "7", None])
    def test_non_integer_seed_rejected(self, seed):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        with pytest.raises(DomainError, match="seed"):
            McConfig(1, 1, 1, seed, (0.0,))
        with pytest.raises(DomainError, match="seed"):
            estimate_prior_exponent(prior, (0.2, 0.1), 100, seed=seed)

    def test_integer_seeds_are_masked_to_64_bits(self):
        # Negative seeds and seeds >= 2^64 keep their meaning: the seed
        # modulo 2^64.  Integral floats and numpy integers name the same seed.
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        reference = mc_bayes_risk(prior, small_config(seed=2**64 - 3), "sign")
        for seed in (-3, 2**128 - 3):
            result = mc_bayes_risk(prior, small_config(seed=seed), "sign")
            assert (result.alpha_hat, result.beta_hat) == (reference.alpha_hat, reference.beta_hat)
        assert mc_bayes_risk(prior, small_config(seed=-3), "sign").seed == -3
        assert small_config(seed=np.int64(7)) == small_config(seed=7.0) == small_config(seed=7)
        probe = estimate_prior_exponent(prior, (0.2, 0.1), 1000, seed=-3)
        assert probe == estimate_prior_exponent(prior, (0.2, 0.1), 1000, seed=2**64 - 3)

    @pytest.mark.parametrize("field", ["lambda_", "gamma_rate", "truncation"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_prior_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError):
            PriorSpec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_grid_rejects_non_finite(self, value):
        with pytest.raises(DomainError):
            McConfig(1, 1, 1, 0, (0.5, value, 1.0))
        with pytest.raises(DomainError):
            McConfig(1, 1, 1, 0, (0.5, 1.0, value))

    @pytest.mark.parametrize("w0, w1", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_weights_reject_non_finite(self, w0, w1):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        with pytest.raises(DomainError):
            mc_bayes_risk(prior, small_config(), "sign", w0=w0, w1=w1)


class TestPriorSampler:
    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0, 2.0, 100.0])
    @pytest.mark.parametrize("rate_times_truncation", [1e-3, 8.0, 1e4])
    def test_grid_cdf_matches_scalar_kernel(self, lam, rate_times_truncation):
        frac = np.linspace(0.0, 1.0, engine._SAMPLER_GRID)
        x = rate_times_truncation * frac * frac
        grid = _gamma_p_grid(lam, x)
        scalar = np.array([regularized_gamma_p(lam, float(v)) for v in x])
        assert np.max(np.abs(grid - scalar)) <= 1e-13

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_GAMMA_MAX_ITER", 2)
        with pytest.raises(DomainError):
            _gamma_p_grid(2.0, np.array([0.5, 3.0]))

    def test_underflowing_prior_mass_raises(self):
        prior = PriorSpec(lambda_=100.0, gamma_rate=1e-3, truncation=1e-3)
        with pytest.raises(DomainError):
            mc_bayes_risk(prior, small_config(), "sign")


class TestPriorExponent:
    def test_exact_power_law_recovered_to_machine_precision(self):
        radii = (0.2, 0.1, 0.05, 0.02)
        fit = fit_power_law(radii, tuple(r * r for r in radii))
        assert fit.kappa_hat == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def exact_slope(lam: float, gamma: float, trunc: float, radii) -> float:
        # oracle: regression on exact truncated-Gamma CDF values
        total = regularized_gamma_p(lam, gamma * trunc)
        ps = [regularized_gamma_p(lam, gamma * r) / total for r in radii]
        return fit_power_law(radii, ps).kappa_hat

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_sampled_exponent_matches_exact_oracle(self, lam):
        radii = (0.2, 0.1, 0.05, 0.02)
        prior = PriorSpec(lambda_=lam, gamma_rate=1.0, truncation=8.0)
        fit = estimate_prior_exponent(prior, radii, 10**6, seed=1)
        reference = self.exact_slope(lam, 1.0, 8.0, radii)
        assert fit.kappa_hat == pytest.approx(reference, abs=0.1)
        assert fit.kappa_hat == pytest.approx(lam, abs=0.1)
        assert fit.r2 > 0.999

    def test_plugin_propagation_from_regression(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        fit = estimate_prior_exponent(prior, (0.2, 0.1, 0.05, 0.02), 10**6, seed=1)
        threshold = plugin_threshold(fit.kappa_hat, 0.25, 10**4)
        assert threshold == pytest.approx(math.sqrt(2.0 * math.log(10**4)), abs=0.25)

    def test_all_zero_cell_raises(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        with pytest.raises(DomainError):
            estimate_prior_exponent(prior, (1e-4, 1e-5), 100, seed=5)

    def test_radii_validation(self):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        with pytest.raises(DomainError):
            estimate_prior_exponent(prior, (0.1, 0.2), 100, seed=5)
        with pytest.raises(DomainError):
            estimate_prior_exponent(prior, (9.0, 0.1), 100, seed=5)


class TestPluginThreshold:
    def test_table_value(self):
        assert plugin_threshold(2.0, 1.0, 10**4) == pytest.approx(2.146, abs=1e-3)

    def test_unit_constant(self):
        for rho in (0.25, 1.0, 2.0):
            assert plugin_threshold(4.0 * rho, rho, 1000) == pytest.approx(
                math.sqrt(math.log(1000)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            plugin_threshold(-1.0, 1.0, 100)
        with pytest.raises(DomainError):
            plugin_threshold(1.0, 1.0, 1)


class TestConfigIO:
    def test_mc_roundtrip(self, tmp_path):
        payload = {
            "prior": {"family": "laplace-location", "lambda": 2.0,
                      "gamma_rate": 0.5, "truncation": 8.0},
            "mc": {"m_alternatives": 50, "m_null": 60, "n": 40, "seed": 9,
                   "threshold_grid": [1.0, 2.0, 3.0]},
            "statistic": "sign",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        run = load_mc_config(path)
        assert run.prior.lambda_ == 2.0
        assert run.config.m_null == 60
        assert run.statistic == "sign"
        result = mc_bayes_risk(run.prior, run.config, run.statistic)
        assert len(result.thresholds) == 3

    def test_exponent_config(self, tmp_path):
        payload = {"prior": {"lambda": 1.0, "gamma_rate": 1.0, "truncation": 8.0},
                   "radii": [0.2, 0.1], "m": 1000, "seed": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        run = load_exponent_config(path)
        assert run.radii == (0.2, 0.1)
        assert run.m == 1000

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"prior": {"lambda": 1.0}}))
        with pytest.raises(DomainError):
            load_mc_config(path)

    @pytest.mark.parametrize("field, value", [
        ("m_alternatives", 10.5), ("m_null", 0.5), ("n", 5.9), ("seed", -3.7), ("seed", 1.5),
    ])
    def test_mc_config_rejects_fractional_counts(self, tmp_path, field, value):
        payload = {
            "prior": {"lambda": 2.0, "gamma_rate": 0.5, "truncation": 8.0},
            "mc": {"m_alternatives": 50, "m_null": 60, "n": 40, "seed": 9,
                   "threshold_grid": [1.0, 2.0, 3.0]},
            "statistic": "sign",
        }
        payload["mc"][field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DomainError, match=field):
            load_mc_config(path)

    @pytest.mark.parametrize("field, value", [("m", 1000.9), ("m", 0), ("seed", 1.5)])
    def test_exponent_config_rejects_fractional_counts(self, tmp_path, field, value):
        payload = {"prior": {"lambda": 1.0, "gamma_rate": 1.0, "truncation": 8.0},
                   "radii": [0.2, 0.1], "m": 1000, "seed": 4}
        payload[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DomainError, match=field):
            load_exponent_config(path)

    def test_integral_float_counts_become_ints(self, tmp_path):
        payload = {"prior": {"lambda": 1.0, "gamma_rate": 1.0, "truncation": 8.0},
                   "radii": [0.2, 0.1], "m": 1000.0, "seed": -4.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        run = load_exponent_config(path)
        assert (run.m, run.seed) == (1000, -4)
        assert type(run.m) is int and type(run.seed) is int

    def test_csv_writer(self, tmp_path):
        prior = PriorSpec(lambda_=2.0, gamma_rate=1.0, truncation=8.0)
        result = mc_bayes_risk(prior, small_config(), "sign")
        path = tmp_path / "out.csv"
        with open(path, "w", newline="") as fh:
            write_mc_csv(result, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,alpha_hat,se_alpha,beta_hat,se_beta,risk_hat"
        assert len(lines) == 1 + len(GRID)
