"""Risk template, closed-form optimum, grid minimiser and regime series."""

import math

import pytest

from mdpcal import (BracketError, CalibrationProblem, DomainError,
                    analytic_optimum, default_bracket, numeric_minimiser,
                    optimal_risk_rate, regime_series, template_risk)

RHO_GRID = (0.25, 0.5, 1.0, 2.0)
KAPPA_GRID = (1.0, 2.0, 3.0, 5.0, 9.0)
N_LADDER = (100, 1_000, 10_000, 1_000_000)


def closed_form_argmin_kappa2(rho: float, n: int) -> float:
    # For kappa = 2 the Type-II term is linear in a, so the stationarity
    # condition solves in closed form: a = 1/(2 rho) + ln(2 rho)/(2 rho ln n).
    return 1.0 / (2.0 * rho) + math.log(2.0 * rho) / (2.0 * rho * math.log(n))


class TestTemplateRisk:
    def test_direct_formula_evaluation(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=10**6)
        terms = template_risk(p, 0.5)
        assert terms.type1 == pytest.approx(1.0e-6, rel=1e-12)
        assert terms.type2 == pytest.approx(6.9078e-6, abs=1e-9)
        assert terms.total == pytest.approx(7.9078e-6, abs=1e-9)

    def test_zero_threshold_limit(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100, w0=3.0)
        terms = template_risk(p, 1e-14)
        assert terms.type1 == pytest.approx(1.0, abs=1e-10)
        assert terms.total == pytest.approx(p.w0, abs=1e-7)

    def test_table_cell_kappa1_n100(self):
        p = CalibrationProblem(rho=1.0, kappa=1.0, n=100)
        terms = template_risk(p, 0.25)
        assert terms.type1 == pytest.approx(0.1, rel=1e-12)
        assert terms.type2 == pytest.approx(0.1073, abs=1e-4)
        assert terms.total == pytest.approx(0.2073, abs=1e-4)

    def test_weights_enter_linearly(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=1000, w0=2.0, w1=5.0)
        terms = template_risk(p, 0.3)
        assert terms.total == pytest.approx(2.0 * terms.type1 + 5.0 * terms.type2, rel=1e-15)

    def test_type2_clamped_at_one(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        terms = template_risk(p, 1000.0)
        assert terms.type2 == 1.0

    def test_huge_kappa_does_not_overflow(self):
        p = CalibrationProblem(rho=0.25, kappa=10.0 ** 7, n=10 ** 6)
        assert template_risk(p, p.a_star).type2 == 1.0

    def test_nan_parameters_rejected(self):
        for kwargs in ({"rho": math.nan}, {"kappa": math.nan}, {"w0": math.nan},
                       {"w1": math.nan}):
            with pytest.raises(DomainError):
                CalibrationProblem(**{"rho": 1.0, "kappa": 2.0, "n": 100, **kwargs})

    def test_non_finite_arguments_rejected(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        calls = [lambda: template_risk(p, math.nan),
                 lambda: template_risk(p, math.inf),
                 lambda: regime_series(p, [100.7, 1000], 0.05),
                 lambda: optimal_risk_rate(math.nan, 100),
                 lambda: optimal_risk_rate(2.0, math.nan),
                 lambda: optimal_risk_rate(2.0, 100.5)]
        for kwargs in ({"rho": math.inf}, {"kappa": math.inf}, {"w1": math.inf},
                       {"n": math.nan}, {"n": math.inf}, {"n": 100.5}):
            calls.append(lambda kw=kwargs: CalibrationProblem(
                **{"rho": 1.0, "kappa": 2.0, "n": 100, **kw}))
        for call in calls:
            with pytest.raises(DomainError):
                call()

    def test_domain_errors(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        with pytest.raises(DomainError):
            template_risk(p, 0.0)
        with pytest.raises(DomainError):
            template_risk(p, -1.0)
        with pytest.raises(DomainError):
            CalibrationProblem(rho=1.0, kappa=2.0, n=1)
        with pytest.raises(DomainError):
            CalibrationProblem(rho=-1.0, kappa=2.0, n=100)
        with pytest.raises(DomainError):
            CalibrationProblem(rho=1.0, kappa=2.0, n=100, w0=0.0)


class TestAnalyticOptimum:
    def test_ks_constant(self):
        report = analytic_optimum(CalibrationProblem(rho=1.0, kappa=2.0, n=100))
        assert report.a_star == pytest.approx(0.50, abs=1e-12)

    def test_fisher_constant(self):
        report = analytic_optimum(CalibrationProblem(rho=0.25, kappa=3.0, n=100))
        assert report.a_star == pytest.approx(3.00, abs=1e-12)

    def test_threshold_at_1e4(self):
        report = analytic_optimum(CalibrationProblem(rho=1.0, kappa=2.0, n=10**4))
        assert report.t_star == pytest.approx(2.146, abs=1e-3)

    def test_alpha_star_exact_inverse_power(self):
        for rho in RHO_GRID:
            for kappa in KAPPA_GRID:
                for n in (100, 10_000):
                    report = analytic_optimum(CalibrationProblem(rho=rho, kappa=kappa, n=n))
                    assert report.alpha_star * n ** (kappa / 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_risk_star_is_template_total(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=10**6)
        report = analytic_optimum(p)
        assert report.risk_star == template_risk(p, report.a_star).total


class TestNumericMinimiser:
    def test_table_values(self):
        argmin = numeric_minimiser(CalibrationProblem(rho=1.0, kappa=2.0, n=10**4)).argmin_a
        assert argmin == pytest.approx(0.54, abs=0.005)
        argmin = numeric_minimiser(CalibrationProblem(rho=0.25, kappa=2.0, n=10**6)).argmin_a
        assert argmin == pytest.approx(1.90, abs=0.005)

    def test_closed_form_oracle_kappa2(self):
        for rho in RHO_GRID:
            for n in N_LADDER:
                curve = numeric_minimiser(CalibrationProblem(rho=rho, kappa=2.0, n=n))
                assert curve.argmin_a == pytest.approx(
                    closed_form_argmin_kappa2(rho, n), abs=5e-6)

    def test_spec_oracle_form_rho1(self):
        # equivalent statement of the same oracle for rho = 1
        for n in N_LADDER:
            curve = numeric_minimiser(CalibrationProblem(rho=1.0, kappa=2.0, n=n))
            assert curve.argmin_a == pytest.approx(
                0.5 + math.log(2.0) / (2.0 * math.log(n)), abs=5e-6)

    def test_grid_is_increasing_and_consistent(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=1000, w0=2.0, w1=3.0)
        curve = numeric_minimiser(p)
        a_values = [pt.a for pt in curve.grid]
        assert a_values == sorted(a_values)
        for pt in curve.grid:
            assert pt.total == pytest.approx(2.0 * pt.type1 + 3.0 * pt.type2, rel=1e-15)
        lo, hi = default_bracket(p)
        assert lo <= curve.argmin_a <= hi
        assert curve.min_risk <= min(pt.total for pt in curve.grid)

    def test_bracket_error_on_boundary_minimum(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        with pytest.raises(BracketError):
            numeric_minimiser(p, 1.2, 2.0)
        with pytest.raises(BracketError):
            numeric_minimiser(p, 0.001, 0.3)

    def test_invalid_bracket(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        with pytest.raises(DomainError):
            numeric_minimiser(p, 0.5, 0.1)
        with pytest.raises(DomainError):
            numeric_minimiser(p, -1.0, 1.0)

    def test_infinite_bracket_end_rejected(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        with pytest.raises(DomainError, match="invalid bracket"):
            numeric_minimiser(p, 0.1, math.inf)

    def test_convergence_to_analytic_constant(self):
        # argmin -> kappa/(4 rho) with an O(1/ln n) gap.  The gap decays
        # monotonically except at (rho=1, kappa=3) and (rho=2, kappa=5),
        # where the first-order correction nearly cancels at n=100 and the
        # gap rises by a few percent before decaying; monotonicity is
        # asserted from the second rung on.
        for rho in RHO_GRID:
            for kappa in KAPPA_GRID:
                a_star = kappa / (4.0 * rho)
                gaps = []
                for n in N_LADDER:
                    curve = numeric_minimiser(CalibrationProblem(rho=rho, kappa=kappa, n=n))
                    gaps.append(abs(curve.argmin_a - a_star))
                assert gaps[-1] <= gaps[0] + 2e-6
                for earlier, later in zip(gaps[1:], gaps[2:]):
                    assert later <= earlier + 2e-6
                # O(1/ln n) envelope with a fitted constant: C stays moderate
                # even at kappa=9, rho=1/4 where the correction is largest.
                c_fit = max(g * math.log(n) for g, n in zip(gaps, N_LADDER))
                assert c_fit < 50.0
                assert all(g <= c_fit / math.log(n) + 1e-12
                           for g, n in zip(gaps, N_LADDER))

    def test_unimodality_single_sign_change(self):
        for rho in RHO_GRID:
            for kappa in KAPPA_GRID:
                for n in (100, 10_000):
                    curve = numeric_minimiser(CalibrationProblem(rho=rho, kappa=kappa, n=n))
                    totals = [pt.total for pt in curve.grid]
                    diffs = [b - a for a, b in zip(totals, totals[1:])]
                    changes = sum(1 for d1, d2 in zip(diffs, diffs[1:])
                                  if (d1 < 0) != (d2 < 0))
                    assert changes == 1


class TestRegimeSeries:
    def test_clt_risk_floor_is_alpha(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100, w0=2.0)
        series = regime_series(p, [100, 10_000, 10**6], 0.05)
        for _, risk in series["clt"]:
            assert risk >= 2.0 * 0.05 - 1e-12

    def test_mdp_matches_template(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        series = regime_series(p, [100, 10**6], 0.05)
        assert dict(series["mdp"])[10**6] == pytest.approx(7.91e-6, abs=1e-8)

    def test_ldp_stagnates_at_total_prior_mass(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        series = regime_series(p, [100, 10_000, 10**6, 10**8], 0.05)
        risks = [risk for _, risk in series["ldp"]]
        assert all(risk >= 0.5 for risk in risks)
        assert max(risks) - min(risks) < 1e-12

    def test_validation(self):
        p = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
        with pytest.raises(DomainError):
            regime_series(p, [], 0.05)
        with pytest.raises(DomainError):
            regime_series(p, [100, 100], 0.05)
        with pytest.raises(DomainError):
            regime_series(p, [100, 1000], 1.5)


class TestOptimalRiskRate:
    def test_matches_printed_headline_rate(self):
        assert optimal_risk_rate(2.0, 10_000) == pytest.approx(9.2e-4, abs=5e-6)
        assert optimal_risk_rate(1.0, 1_000) == pytest.approx(8.3e-2, abs=5e-4)
