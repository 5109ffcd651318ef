"""Evidence triangulation: exact identities and the Wilks closure."""

import math

import numpy as np
import pytest

import mdpcal.triangulation as triangulation
from mdpcal import CountVector, DomainError, evidence_bundle


def random_count_vector(rng: np.random.Generator) -> tuple[CountVector, tuple[float, ...]]:
    k = int(rng.integers(2, 11))
    n = int(rng.integers(k, 10_001))
    theta0 = rng.dirichlet(np.ones(k))
    theta0 = np.maximum(theta0, 0.02)
    theta0 = theta0 / theta0.sum()
    counts = rng.multinomial(n, theta0)
    return CountVector(tuple(int(c) for c in counts)), tuple(theta0)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class TestBundleValues:
    def test_seven_three_uniform_null(self):
        bundle = evidence_bundle(CountVector((7, 3)), (0.5, 0.5))
        assert bundle.d_kl == pytest.approx(0.082282, abs=1e-6)
        assert bundle.lambda_n == pytest.approx(1.64565, abs=1e-5)
        assert bundle.pearson == pytest.approx(1.6, abs=1e-12)
        assert bundle.entropy_deficit == pytest.approx(0.082282, abs=1e-6)
        # 10 * d_kl + (1/2) ln 10 = 1.9741213 by direct evaluation
        assert bundle.w_good == pytest.approx(1.9741213, abs=1e-6)

    def test_exact_dirichlet_bayes_factor(self):
        # oracle: ln B(8,4) - 10 ln(1/2) via log-gamma
        bundle = evidence_bundle(CountVector((7, 3)), (0.5, 0.5), prior_concentration=1.0)
        oracle = (math.lgamma(8) + math.lgamma(4) - math.lgamma(12)) - 10.0 * math.log(0.5)
        assert bundle.w_exact == pytest.approx(oracle, abs=1e-12)
        assert bundle.w_exact == pytest.approx(-0.253915, abs=1e-5)

    def test_perfect_fit(self):
        bundle = evidence_bundle(CountVector((25, 25, 50)), (0.25, 0.25, 0.5))
        assert bundle.d_kl == 0.0
        assert bundle.lambda_n == 0.0
        assert bundle.pearson == 0.0
        assert bundle.w_good == pytest.approx(math.log(100), rel=1e-12)

    def test_zero_counts_allowed(self):
        bundle = evidence_bundle(CountVector((10, 0)), (0.5, 0.5))
        assert math.isfinite(bundle.d_kl)
        assert bundle.d_kl == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_null_entries_rejected(self):
        with pytest.raises(DomainError):
            evidence_bundle(CountVector((5, 5)), (1.0, 0.0))
        with pytest.raises(DomainError):
            evidence_bundle(CountVector((5, 5)), (0.5, 0.5), prior_concentration=0.0)

    @pytest.mark.parametrize("concentration", [math.nan, math.inf])
    def test_non_finite_concentration_rejected(self, concentration):
        with pytest.raises(DomainError):
            evidence_bundle(CountVector((5, 5)), (0.5, 0.5), prior_concentration=concentration)


class TestExactBayesFactorAtLargeCounts:
    # The lgamma terms of w_exact are ~ c ln c; above 1e5 observations the
    # Stirling-difference form cancels them analytically.  At c = 1e20 the
    # lgamma form gave 81920.0.
    @pytest.mark.parametrize("c", [10**e for e in range(8, 21)])
    def test_symmetric_counts_against_asymptotic_oracle(self, c):
        # ln((c!)^2 / (2c+1)!) + 2c ln 2 = 1/2 ln(pi c) - ln(2c + 1) + O(1/c)
        w = evidence_bundle(CountVector((c, c)), (0.5, 0.5)).w_exact
        assert abs(w - (0.5 * math.log(math.pi * c) - math.log(2 * c + 1))) <= 1.0 / c + 1e-14

    @pytest.mark.parametrize("c", [10**e for e in range(6, 15)])
    def test_three_categories_within_n_eps(self, c):
        # ln(2 c! c! (2c)! / (4c+2)!) + 6c ln 2 = ln(2 sqrt(2) pi c / ((4c+1)(4c+2))) + O(1/c).
        # Rounding q_j = (1 + c_j) / (3 + n) costs up to c_j eps, the conditioning
        # of w in theta_j; the lgamma form is off by ~ eps n ln n.
        n = 4 * c
        w = evidence_bundle(CountVector((c, c, 2 * c)), (0.25, 0.25, 0.5)).w_exact
        oracle = math.log(2.0 * math.sqrt(2.0) * math.pi * c) - math.log((n + 1) * (n + 2))
        assert abs(w - oracle) <= 1.0 / c + 4 * n * 2.0 ** -52

    def test_stirling_form_matches_lgamma_form_up_to_1e5(self, monkeypatch):
        rng = np.random.default_rng(2718)
        cases = []
        for _ in range(100):
            counts, theta0 = random_count_vector(rng)
            cases.append((counts, theta0, float(rng.choice((1e-3, 0.5, 1.0, 2.0, 30.0)))))
        cases.append((CountVector((0, 100_000)), (0.5, 0.5), 1.0))
        lgamma_form = [evidence_bundle(*case).w_exact for case in cases]
        monkeypatch.setattr(triangulation, "_STIRLING_MIN_N", 0)
        for case, expected in zip(cases, lgamma_form):
            assert case[0].n <= 10**5
            assert abs(evidence_bundle(*case).w_exact - expected) <= 1e-9 * max(1.0, abs(expected))


class TestExactIdentities:
    def test_on_random_count_vectors(self):
        rng = np.random.default_rng(314)
        for _ in range(200):
            counts, theta0 = random_count_vector(rng)
            bundle = evidence_bundle(counts, theta0)
            n, k = counts.n, counts.k
            assert close(bundle.lambda_n, 2.0 * n * bundle.d_kl)
            assert close(bundle.entropy_deficit, bundle.d_kl + bundle.cross_term)
            assert close(2.0 * bundle.w_good - bundle.lambda_n, (k - 1) * math.log(n))

    def test_cross_term_vanishes_for_uniform_null(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(k, 2000))
            counts = CountVector(tuple(int(c) for c in rng.multinomial(n, np.ones(k) / k)))
            bundle = evidence_bundle(counts, tuple(1.0 / k for _ in range(k)))
            assert abs(bundle.cross_term) < 1e-12
            assert close(bundle.entropy_deficit, bundle.d_kl)


def wilks_gap(counts: CountVector, theta0) -> float:
    """Closure residual lambda_n - pearson, which is o_P(1) near the null."""
    bundle = evidence_bundle(counts, theta0)
    return bundle.lambda_n - bundle.pearson


class TestWilksGap:
    def test_perfect_fit_gap(self):
        assert wilks_gap(CountVector((25, 75)), (0.25, 0.75)) == 0.0

    def test_seven_three(self):
        assert wilks_gap(CountVector((7, 3)), (0.5, 0.5)) == pytest.approx(0.04565, abs=1e-5)

    def test_near_null_third_order_smallness(self):
        assert abs(wilks_gap(CountVector((52, 48)), (0.5, 0.5))) < 1e-3

    def test_relative_gap_vanishes_along_ladder(self):
        # deterministic ladder of count vectors converging to the null proportions
        n = 10_000
        ratios = []
        for delta in (1600, 800, 400, 200, 100, 50):
            counts = CountVector((n // 2 + delta, n // 2 - delta))
            bundle = evidence_bundle(counts, (0.5, 0.5))
            ratios.append(abs(bundle.lambda_n - bundle.pearson) / bundle.lambda_n)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-4
