"""Setting calibrators and table regeneration."""

import itertools
import json
import math

import pytest

from mdpcal import (DomainError, calibrate_chi2, calibrate_contingency,
                    calibrate_fisher, calibrate_ks, calibrate_sign,
                    emit_tables, kolmogorov_quantile, mdp_truncation_level,
                    plugin_threshold, write_tables)
from mdpcal.calibrators import SETTINGS


class TestCalibrateKs:
    def test_first_table_row(self):
        report = calibrate_ks(1, 100)
        assert report.t_star == pytest.approx(1.073, abs=1e-3)
        assert report.alpha_star == pytest.approx(1.0e-1, rel=1e-9)

    def test_last_table_row(self):
        report = calibrate_ks(10, 10**6)
        assert report.t_star == pytest.approx(5.877, abs=1e-3)
        assert report.alpha_star == pytest.approx(1.0e-30, rel=1e-9)

    def test_forced_unit_threshold(self):
        n = round(math.e ** 2)  # ln n = 2 up to integer rounding
        report = calibrate_ks(2, n)
        assert report.t_star == pytest.approx(math.sqrt(math.log(n) / 2), rel=1e-12)

    def test_fixed_alpha_crossing_is_reported(self):
        fixed = kolmogorov_quantile(0.95)
        for kappa in (1, 2, 5, 10):
            report = calibrate_ks(kappa, 1000)
            n_cross = report.params["fixed_alpha_crossing_n"]
            assert calibrate_ks(kappa, n_cross).t_star >= fixed
            if n_cross > 2:
                assert calibrate_ks(kappa, n_cross - 1).t_star < fixed

    def test_threshold_grows_with_n(self):
        t_values = [calibrate_ks(2, n).t_star for n in (100, 10_000, 10**8)]
        assert t_values == sorted(t_values)

    def test_n_beyond_float_range_is_domain_error(self):
        with pytest.raises(DomainError):
            calibrate_ks(2, 10**400)

    @pytest.mark.parametrize("call", [
        lambda: calibrate_ks(math.inf, 100),
        lambda: calibrate_sign(math.inf, 100),
        lambda: calibrate_chi2(math.nan, 100),
        lambda: calibrate_chi2(3.5, 100),
        lambda: calibrate_contingency(3, math.nan, 100),
        lambda: calibrate_fisher(math.inf, 2, 100),
        lambda: calibrate_fisher(1, math.nan, 100),
        lambda: plugin_threshold(2, 1, math.nan),
        lambda: plugin_threshold(math.inf, 1, 100),
        lambda: plugin_threshold(2, math.inf, 100),
    ])
    def test_non_finite_or_fractional_inputs_are_domain_errors(self, call):
        # Each raised a raw ValueError or returned inf/nan/0.0 before.
        with pytest.raises(DomainError):
            call()

    def test_crossing_beyond_float_range_is_inf(self):
        report = calibrate_ks(1e-3, 100)
        assert report.params["fixed_alpha_crossing_n"] == math.inf
        assert report.t_star == pytest.approx(math.sqrt(1e-3 * math.log(100) / 4), rel=1e-12)


class TestCalibrateSign:
    def test_count_threshold_formula(self):
        report = calibrate_sign(2, 100)
        assert report.params["count_threshold"] == pytest.approx(65.17, abs=0.01)

    def test_a_star(self):
        assert calibrate_sign(2, 100).a_star == pytest.approx(2.00, abs=1e-12)

    def test_vanishing_prior_exponent(self):
        report = calibrate_sign(1e-9, 100)
        assert report.params["count_threshold"] == pytest.approx(50.0, abs=1e-3)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(DomainError):
            calibrate_sign(0.0, 100)

    @pytest.mark.parametrize("lam", [2.0, 2])
    def test_count_threshold_finite_at_largest_n(self, lam):
        # lam * n overflows at n = 1e308; the float form gave inf, the int
        # form a raw OverflowError.
        n = 10**308
        threshold = calibrate_sign(lam, n).params["count_threshold"]
        assert math.isfinite(threshold)
        assert threshold == pytest.approx(5e307, rel=1e-12)


class TestCalibrateChi2:
    def test_three_categories(self):
        report = calibrate_chi2(3, 100)
        assert report.params["chi2_critical"] == pytest.approx(9.21, abs=0.01)
        assert report.alpha_star == pytest.approx(1.0e-2, rel=1e-9)

    def test_ten_categories(self):
        report = calibrate_chi2(10, 10_000)
        assert report.params["chi2_critical"] == pytest.approx(82.9, abs=0.05)

    def test_smallest_case(self):
        n = round(math.e)
        report = calibrate_chi2(2, n)
        assert report.params["chi2_critical"] == pytest.approx(math.log(n), rel=1e-12)

    def test_fixed_alpha_comparator(self):
        assert calibrate_chi2(3, 100).params["chi2_fixed_alpha"] == pytest.approx(5.99, abs=0.01)

    def test_rejects_single_category(self):
        with pytest.raises(DomainError):
            calibrate_chi2(1, 100)


class TestCalibrateContingency:
    def test_two_by_two(self):
        report = calibrate_contingency(2, 2, 100)
        assert report.params["nu"] == 1
        assert report.params["chi2_critical"] == pytest.approx(4.605, abs=1e-3)

    def test_three_by_four(self):
        report = calibrate_contingency(3, 4, 10_000)
        assert report.params["chi2_critical"] == pytest.approx(55.26, abs=0.01)

    def test_matches_chi2_when_dof_agree(self):
        for (r, c, k) in ((2, 2, 2), (3, 3, 5), (2, 4, 4)):
            assert (r - 1) * (c - 1) == k - 1
            cont = calibrate_contingency(r, c, 500)
            chi2 = calibrate_chi2(k, 500)
            assert cont.a_star == chi2.a_star
            assert cont.t_star == chi2.t_star
            assert cont.alpha_star == chi2.alpha_star
            assert cont.params["chi2_critical"] == chi2.params["chi2_critical"]

    def test_degrees_of_freedom_past_float_range_name_r_and_c(self):
        # r and c are in float range but (r-1)(c-1) is not; the message named
        # chi2's "number of categories", a k the caller never gave, before.
        with pytest.raises(DomainError, match=r"^degrees of freedom \(r-1\)\(c-1\) must be"):
            calibrate_contingency(10**200, 10**200, 100)


class TestCalibrateFisher:
    def test_table_rows(self):
        assert calibrate_fisher(1, 1, 100).params["radius"] == pytest.approx(0.3035, abs=1e-4)
        assert calibrate_fisher(2, 3, 10_000).params["radius"] == pytest.approx(0.0679, abs=1e-4)

    def test_radius_scales_as_sqrt_kappa(self):
        base = calibrate_fisher(0, 1, 1000).params["radius"]
        assert calibrate_fisher(0, 4, 1000).params["radius"] == pytest.approx(2.0 * base, rel=1e-12)

    def test_zero_lambda_allowed(self):
        assert calibrate_fisher(0, 2, 100).a_star == pytest.approx(2.0)


# Every flag of every setting is drawn from EDGE_FLAGS and n from EDGE_NS, so a
# new SETTINGS entry is covered without new test code.
EDGE_FLAGS = (math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e154, 1.7e308, 2, 3, 3200,
              10**154, 10**400)
EDGE_NS = (1, 2, 100, 10**18, 10**308, 10**309, 10**400)


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_edge_grid_gives_a_finite_report_or_domain_error(setting):
    calibrator = SETTINGS[setting].calibrator
    reports = 0
    for values in itertools.product(EDGE_FLAGS, repeat=len(SETTINGS[setting].flags)):
        for n in EDGE_NS:
            try:
                report = calibrator(*values, n)
            except DomainError:
                continue
            reports += 1
            params = dict(report.params)
            # the documented sentinel: an int, or inf past float range
            crossing = params.pop("fixed_alpha_crossing_n", 0)
            assert type(crossing) is int or crossing == math.inf
            reals = [report.a_star, report.t_star, report.alpha_star, report.risk_star,
                     *(v for v in params.values() if type(v) is float)]
            assert all(map(math.isfinite, reals)), (values, n, report)
    assert reports > 0


@pytest.mark.parametrize("call", [
    lambda: calibrate_contingency(10**200, 10**200, 100),
    lambda: plugin_threshold(10**400, 1, 100),
    lambda: mdp_truncation_level(10**400, 100),
])
def test_integers_past_float_range_off_the_edge_grid_are_domain_errors(call):
    # each raised OverflowError: int too large to convert to float
    with pytest.raises(DomainError):
        call()


@pytest.fixture(scope="module")
def bundle():
    return emit_tables()


class TestTables:

    def test_ks_cell(self, bundle):
        cell = next(r for r in bundle["ks_thresholds"] if r["kappa"] == 5 and r["n"] == 10_000)
        assert cell["t_star_mdp"] == pytest.approx(3.393, abs=1e-3)

    def test_fisher_cell(self, bundle):
        cell = next(r for r in bundle["fisher_radii"]
                    if r["lambda"] == 1 and r["d"] == 5 and r["n"] == 100_000)
        assert cell["radius"] == pytest.approx(0.0263, abs=1e-4)

    def test_verification_ks_minimiser(self, bundle):
        row = next(r for r in bundle["verification"] if r["setting"] == "ks")
        assert row["a_num_1e6"] == pytest.approx(0.53, abs=0.005)

    def test_constants_rows_encode_a_star(self, bundle):
        for row in bundle["constants"]:
            assert row["a_star_per_kappa"] == pytest.approx(1.0 / (4.0 * row["rho"]), rel=1e-15)

    def test_serialisation_roundtrip(self, bundle, tmp_path):
        written = write_tables(bundle, tmp_path)
        names = {p.name for p in written}
        assert names == {"ks_thresholds.csv", "chi2_thresholds.csv", "fisher_radii.csv",
                         "constants.csv", "verification.csv", "tables.json"}
        with open(tmp_path / "ks_thresholds.csv") as fh:
            header = fh.readline().strip()
        assert header == "kappa,n,t_star_mdp,t_fixed_alpha,alpha_star,bayes_risk_star"
        payload = json.loads((tmp_path / "tables.json").read_text())
        assert payload["schema"] == "mdpcal/1"
        assert len(payload["tables"]["ks_thresholds"]) == 16
        assert len(payload["tables"]["chi2_thresholds"]) == 9
        assert len(payload["tables"]["fisher_radii"]) == 16
