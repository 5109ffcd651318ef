"""Test statistics: KS, Pearson chi-squared, sign/median, Laplace LRT, contrast."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdpcal import (CountVector, DegenerateSampleError, DomainError,
                    SampleBatch, kolmogorov_cdf, ks_statistic, laplace_lrt,
                    load_batch, normal_vs_laplace_contrast, parse_counts,
                    pearson_chi2, sample_median, sign_count)


def uniform_cdf(x: float) -> float:
    return min(1.0, max(0.0, x))


class TestKsStatistic:
    def test_three_point_batch_against_grid_oracle(self):
        batch = SampleBatch((0.1, 0.5, 0.9))
        stat = ks_statistic(batch, uniform_cdf)
        # exact sup is 7/30, attained at the first order statistic
        assert stat == pytest.approx(7.0 / 30.0, abs=1e-9)
        # brute-force sup of |F_n - F0| over a fine grid
        xs = np.linspace(0.0, 1.0, 1_000_001)
        fn = np.searchsorted(np.sort(batch.values), xs, side="right") / batch.n
        assert stat == pytest.approx(float(np.max(np.abs(fn - xs))), abs=1e-5)

    def test_single_observation(self):
        batch = SampleBatch((0.5,))
        assert ks_statistic(batch, uniform_cdf) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_spaced_batch_attains_floor(self):
        n = 10
        batch = SampleBatch(tuple((i - 0.5) / n for i in range(1, n + 1)))
        assert ks_statistic(batch, uniform_cdf) == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_range_for_distinct_points(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            batch = SampleBatch(tuple(rng.uniform(0, 1, n)))
            stat = ks_statistic(batch, uniform_cdf)
            assert 1.0 / (2 * n) - 1e-12 <= stat <= 1.0

    @staticmethod
    def _null_law_distance(seed: int, reps: int, n: int) -> float:
        # Kolmogorov distance between the empirical law of sqrt(n) * KS under
        # the null and the asymptotic K(t)
        rng = np.random.default_rng(seed)
        data = np.sort(rng.uniform(0, 1, (reps, n)), axis=1)
        i = np.arange(1, n + 1)
        d = np.maximum((i / n - data).max(axis=1), (data - (i - 1) / n).max(axis=1))
        stats = np.sort(math.sqrt(n) * d)
        ks_dist = 0.0
        for idx, t in enumerate(stats, start=1):
            k_t = kolmogorov_cdf(float(t))
            ks_dist = max(ks_dist, abs(idx / reps - k_t), abs(k_t - (idx - 1) / reps))
        return ks_dist

    def test_null_distribution_smoke(self):
        # At batch size 100 the exact law of sqrt(n)*KS sits a systematic
        # 0.027 away from K (finite-n offset), so 0.02 is unattainable there;
        # the 0.02 check runs at size 1000 where the offset is below 0.009.
        assert self._null_law_distance(seed=11, reps=10_000, n=100) < 0.045
        assert self._null_law_distance(seed=11, reps=10_000, n=1000) < 0.02

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, 2.0])
    def test_reference_cdf_outside_unit_interval_rejected(self, bad):
        # NaN gave 0.0 (a perfect fit) and 2.0 or -1.0 a KS of 2.0 before.
        batch = SampleBatch((0.1, 0.5, 0.9))
        with pytest.raises(DomainError):
            ks_statistic(batch, lambda x: bad)
        with pytest.raises(DomainError):
            ks_statistic(batch, lambda x: bad if x == 0.5 else x)

    # Samples with ties (values drawn from a short list) and values outside
    # the support [0, 1] of the uniform reference CDF.
    @given(st.lists(st.floats(-0.5, 1.5) | st.sampled_from((0.0, 0.25, 1.0, -2.0)),
                    min_size=1, max_size=60))
    @example([0.3])
    @example([1.0, 1.0, 0.0])
    @settings(deadline=None, max_examples=300)
    def test_matches_scipy_kstest_and_the_loop(self, values):
        batch = SampleBatch(tuple(values))
        expected = scipy.stats.kstest(values, scipy.stats.uniform.cdf).statistic
        n = len(values)
        loop = max(max(i / n - u, u - (i - 1) / n)
                   for i, u in enumerate(sorted(map(uniform_cdf, values)), start=1))
        assert ks_statistic(batch, uniform_cdf) == expected == loop

    # None, "x" and 10**400 raised TypeError, ValueError and OverflowError before.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="10**400"), "x", None])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DomainError):
            SampleBatch((bad, 1.0))
        with pytest.raises(DomainError):
            SampleBatch((1.0,) * 1000 + (bad,))

    def test_overflowing_sum_of_finite_values_accepted(self):
        batch = SampleBatch((1e308, 1e308, -1.0))
        assert batch.sorted_values == (-1.0, 1e308, 1e308)

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            SampleBatch(())


class TestPearson:
    def test_simple_counts(self):
        assert pearson_chi2(CountVector((7, 3)), (0.5, 0.5)) == pytest.approx(1.6, abs=1e-12)

    def test_perfect_fit(self):
        assert pearson_chi2(CountVector((25, 50, 25)), (0.25, 0.5, 0.25)) == 0.0

    def test_degenerate_counts(self):
        assert pearson_chi2(CountVector((10, 0)), (0.5, 0.5)) == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("p0", [(math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan)])
    def test_non_finite_null_rejected(self, p0):
        with pytest.raises(DomainError):
            pearson_chi2(CountVector((7, 3)), p0)

    def test_permutation_invariance(self):
        counts = (5, 9, 2, 4)
        p0 = (0.2, 0.4, 0.1, 0.3)
        base = pearson_chi2(CountVector(counts), p0)
        perm = (2, 0, 3, 1)
        shuffled = pearson_chi2(CountVector(tuple(counts[i] for i in perm)),
                                tuple(p0[i] for i in perm))
        assert shuffled == pytest.approx(base, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            pearson_chi2(CountVector((7, 3)), (0.5, 0.25, 0.25))
        with pytest.raises(DomainError):
            pearson_chi2(CountVector((7, 3)), (1.0, 0.0))
        with pytest.raises(DomainError):
            CountVector((4,))
        with pytest.raises(DomainError):
            CountVector((4, -1))

    @pytest.mark.parametrize("counts", [(1.5, 2), (math.nan, 1), (math.inf, 1), ("3", 1),
                                        (None, 1)])
    def test_non_integer_counts_rejected(self, counts):
        # (1.5, 2) became (1, 2) and NaN raised a raw ValueError before.
        with pytest.raises(DomainError):
            CountVector(counts)

    def test_integral_floats_become_ints(self):
        counts = CountVector((2.0, 3)).counts
        assert counts == (2, 3)
        assert all(type(c) is int for c in counts)


class TestSignAndMedian:
    def test_mixed_signs(self):
        batch = SampleBatch((-1.0, 2.0, 3.0))
        assert sign_count(batch) == 2
        assert sample_median(batch) == 2.0

    def test_all_negative(self):
        assert sign_count(SampleBatch((-3.0, -1.0, -0.5))) == 0

    def test_even_n_median_convention(self):
        assert sample_median(SampleBatch((1.0, 2.0, 3.0, 4.0))) == pytest.approx(2.5)

    def test_zero_is_not_positive(self):
        assert sign_count(SampleBatch((0.0, 1.0))) == 1

    @given(st.lists(st.floats(-3, 3) | st.sampled_from((0.0, -0.0, 5e-324, -5e-324)),
                    min_size=1, max_size=60))
    @settings(deadline=None, max_examples=200)
    def test_sign_count_is_a_plain_count(self, values):
        count = sign_count(SampleBatch(tuple(values)))
        assert type(count) is int
        assert count == len([x for x in values if x > 0])


class TestLaplaceLrt:
    def test_nonpositive_batch_gives_zero(self):
        assert laplace_lrt(SampleBatch((-2.0, -1.0, 0.0))) == 0.0

    def test_all_ones(self):
        assert laplace_lrt(SampleBatch((1.0, 1.0, 1.0))) == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_pair(self):
        assert laplace_lrt(SampleBatch((-1.0, 1.0))) == 0.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
    @settings(deadline=None, max_examples=200)
    def test_nonnegative_and_zero_when_median_nonpositive(self, values):
        batch = SampleBatch(tuple(values))
        stat = laplace_lrt(batch)
        assert stat >= 0.0
        if sample_median(batch) <= 0:
            assert stat == 0.0


class TestContrast:
    def test_unit_dispersion_batch(self):
        # five symmetric pairs give sigma = b = 1 exactly
        batch = SampleBatch((-1.0, 1.0) * 5)
        expected = 5.0 * math.log(2.0 * math.pi) - 5.0
        assert normal_vs_laplace_contrast(batch) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(4.18938, abs=1e-5)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        values = tuple(rng.normal(0, 1, 40))
        base = normal_vs_laplace_contrast(SampleBatch(values))
        scaled = normal_vs_laplace_contrast(SampleBatch(tuple(3.7 * v for v in values)))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_location_invariance(self):
        rng = np.random.default_rng(4)
        values = tuple(rng.normal(0, 2, 41))
        base = normal_vs_laplace_contrast(SampleBatch(values))
        shifted = normal_vs_laplace_contrast(SampleBatch(tuple(v - 2.5 for v in values)))
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateSampleError):
            normal_vs_laplace_contrast(SampleBatch((2.0, 2.0, 2.0)))
        with pytest.raises(DomainError):
            normal_vs_laplace_contrast(SampleBatch((1.0,)))


class TestIngestion:
    def test_newline_delimited(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("0.5\n-1.25\n3\n")
        batch = load_batch(path)
        assert batch.values == (0.5, -1.25, 3.0)

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("value\n0.5\n-1.25\n")
        assert load_batch(path).values == (0.5, -1.25)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x\n0.5\nnot-a-number\n")
        with pytest.raises(DomainError):
            load_batch(path)

    def test_parse_counts(self):
        assert parse_counts("7,3").counts == (7, 3)
        with pytest.raises(DomainError):
            parse_counts("7,three")
