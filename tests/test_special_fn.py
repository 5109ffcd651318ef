"""Kernel tests: Kolmogorov distribution, incomplete gamma, KL primitives."""

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpcal import (DomainError, chi2_cdf, chi2_quantile, kl_bernoulli,
                    kl_multinomial, kolmogorov_cdf, kolmogorov_quantile,
                    kolmogorov_sf, normal_cdf, regularized_gamma_p)

# Direct 20-term alternating series at t=2: 2*sum (-1)^(k-1) exp(-8 k^2).
SF_AT_2 = 6.709252557796953e-4


class TestKolmogorov:
    def test_quantile_value_at_95(self):
        assert kolmogorov_cdf(1.358) == pytest.approx(0.950, abs=1e-3)
        assert kolmogorov_quantile(0.95) == pytest.approx(1.358, abs=1e-3)
        # against a 200-iteration bisection oracle on the raw series
        assert kolmogorov_quantile(0.95) == pytest.approx(1.35809863932255, abs=1e-6)

    def test_lower_limit(self):
        assert kolmogorov_cdf(0.0) == 0.0

    def test_deep_tail_matches_series_oracle(self):
        assert 1.0 - kolmogorov_cdf(2.0) == pytest.approx(6.7086e-4, abs=1e-7)
        assert kolmogorov_sf(2.0) == pytest.approx(SF_AT_2, rel=1e-12)

    def test_monotone_on_grid(self):
        previous = -1.0
        for i in range(1001):
            value = kolmogorov_cdf(3.0 * i / 1000)
            assert value >= previous
            assert 0.0 <= value <= 1.0
            previous = value

    def test_two_sided_tail_envelope(self):
        # 1.9 e^(-2 t^2) <= 1 - K(t) <= 2.0 e^(-2 t^2) for t in [1.5, 3]
        for i in range(151):
            t = 1.5 + 1.5 * i / 150
            envelope = math.exp(-2.0 * t * t)
            sf = kolmogorov_sf(t)
            assert 1.9 * envelope <= sf <= 2.0 * envelope

    def test_quantile_roundtrip(self):
        assert kolmogorov_quantile(kolmogorov_cdf(1.0)) == pytest.approx(1.0, abs=1e-8)

    def test_quantile_at_99_matches_bisection_oracle(self):
        assert kolmogorov_quantile(0.99) == pytest.approx(1.6276236115189495, abs=1e-6)

    def test_nan_is_domain_error_not_a_hang(self):
        # exp(-2 k^2 nan^2) < tol is never true, so a NaN that reached the
        # series would loop forever; a subprocess keeps such a hang bounded.
        code = ("import math\n"
                "from mdpcal import DomainError, kolmogorov_cdf, kolmogorov_sf\n"
                "for f in (kolmogorov_sf, kolmogorov_cdf):\n"
                "    try:\n"
                "        f(math.nan)\n"
                "    except DomainError:\n"
                "        print('raised')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30)
        assert proc.stdout.split() == ["raised", "raised"], proc.stderr

    def test_infinite_statistic_is_the_limit(self):
        assert kolmogorov_sf(math.inf) == 0.0
        assert kolmogorov_cdf(math.inf) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kolmogorov_cdf(-0.1)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                kolmogorov_quantile(bad)


class TestChi2:
    def test_fixed_alpha_quantiles(self):
        assert chi2_quantile(0.95, 2) == pytest.approx(5.99, abs=0.01)
        assert chi2_quantile(0.95, 9) == pytest.approx(16.92, abs=0.01)

    def test_cdf_at_zero(self):
        for df in (1, 2, 9):
            assert chi2_cdf(0.0, df) == 0.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("df", [1, 2, 9])
    def test_quantile_cdf_roundtrip(self, x, df):
        assert chi2_quantile(chi2_cdf(x, df), df) == pytest.approx(x, abs=1e-6)

    def test_incomplete_gamma_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for a in (0.5, 1.0, 2.5, 4.5, 10.0, 50.0):
            for x in (0.01, 0.3, 1.0, 3.0, 10.0, 60.0, 200.0):
                assert regularized_gamma_p(a, x) == pytest.approx(
                    float(special.gammainc(a, x)), rel=1e-12, abs=1e-300)

    def test_huge_df_quantile_against_scipy(self):
        # An absolute 1e-9 bisection width is below float spacing here.
        stats = pytest.importorskip("scipy.stats")
        df = 3199 ** 2
        assert chi2_quantile(0.95, df) == pytest.approx(
            float(stats.chi2.ppf(0.95, df)), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi2_cdf(-1.0, 2)
        with pytest.raises(DomainError):
            chi2_cdf(1.0, 0)
        with pytest.raises(DomainError):
            chi2_quantile(1.2, 2)
        with pytest.raises(DomainError):
            regularized_gamma_p(-1.0, 2.0)


    @pytest.mark.parametrize("df", [math.nan, math.inf, 2.5, 0])
    def test_bad_degrees_of_freedom_are_domain_errors(self, df):
        # A NaN df raised a raw "cannot convert float NaN to integer" before.
        with pytest.raises(DomainError):
            chi2_quantile(0.5, df)
        with pytest.raises(DomainError):
            chi2_cdf(1.0, df)

    def test_infinite_argument_is_the_limit(self):
        # P(a, inf) = 1; the continued fraction ran on NaN deltas and raised before.
        assert regularized_gamma_p(2.5, math.inf) == 1.0
        assert chi2_cdf(math.inf, 3) == 1.0

    def test_nan_gamma_arguments_are_domain_errors(self):
        for a, x in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                regularized_gamma_p(a, x)

    def test_shape_past_float_resolution_is_domain_error(self):
        # Once a + 1 == a the continued fraction starts at b = 0; it raised a
        # ZeroDivisionError before.
        with pytest.raises(DomainError):
            regularized_gamma_p(1e300, 1e300)
        with pytest.raises(DomainError):
            chi2_quantile(0.95, 10**20)


class TestNormal:
    def test_symmetry_and_values(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
        assert normal_cdf(-3.0) + normal_cdf(3.0) == pytest.approx(1.0, abs=1e-15)


class TestKL:
    def test_bernoulli_identity(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0

    def test_bernoulli_value(self):
        # 0.75 ln 1.5 + 0.25 ln 0.5
        assert kl_bernoulli(0.75, 0.5) == pytest.approx(0.130812, abs=1e-6)

    def test_multinomial_value(self):
        assert kl_multinomial((0.7, 0.3), (0.5, 0.5)) == pytest.approx(0.082282, abs=1e-6)

    def test_infinite_sentinel(self):
        assert kl_multinomial((0.5, 0.5), (1.0, 0.0)) == math.inf
        assert kl_bernoulli(0.5, 0.0) == math.inf
        # zero p on zero q contributes nothing
        assert kl_multinomial((1.0, 0.0), (1.0, 0.0)) == 0.0

    def test_rounding_cannot_make_kl_negative(self):
        # The unclamped sums are -1.1e-16 and -6.7e-17 here.
        assert kl_multinomial([0.5, 0.4999999999999999], [0.5, 0.5]) == 0.0
        assert kl_bernoulli(0.6515929727227628, 0.651592972722763) == 0.0

    def test_nan_is_not_clamped(self):
        assert math.isnan(kl_multinomial((0.5, 0.5), (math.nan, 0.5)))

    def test_dimension_and_simplex_validation(self):
        with pytest.raises(DomainError):
            kl_multinomial((0.5, 0.5), (0.5, 0.25, 0.25))
        with pytest.raises(DomainError):
            kl_multinomial((0.6, 0.6), (0.5, 0.5))

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
           st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    @settings(deadline=None, max_examples=200)
    def test_nonnegativity(self, raw_p, raw_q):
        k = min(len(raw_p), len(raw_q))
        p = [v / sum(raw_p[:k]) for v in raw_p[:k]]
        q = [v / sum(raw_q[:k]) for v in raw_q[:k]]
        assert kl_multinomial(p, q) >= 0.0

    @given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=200)
    def test_joint_convexity_in_first_argument(self, raw_p1, raw_p2, raw_q, lam):
        p1 = [v / sum(raw_p1) for v in raw_p1]
        p2 = [v / sum(raw_p2) for v in raw_p2]
        q = [v / sum(raw_q) for v in raw_q]
        mix = [lam * a + (1 - lam) * b for a, b in zip(p1, p2)]
        lhs = kl_multinomial(mix, q)
        rhs = lam * kl_multinomial(p1, q) + (1 - lam) * kl_multinomial(p2, q)
        assert lhs <= rhs + 1e-12
