"""CLI contract: subcommands, output schema, exit codes, env seed override."""

import csv
import io
import json
import math
import time

import pytest

from mdpcal.cli import _COMMANDS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "mdpcal/1"
    return payload


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCalibrate:
    def test_ks_json(self, capsys):
        payload = run_json(capsys, "calibrate", "ks", "--kappa", "2", "--n", "10000", "--json")
        assert payload["t_star"] == pytest.approx(2.146, abs=1e-3)
        assert payload["alpha_star"] == pytest.approx(1e-4, rel=1e-4)

    def test_sign_csv(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "sign", "--lambda", "2",
                               "--n", "100", "--csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["count_threshold"]) == pytest.approx(65.17, abs=0.01)

    def test_contingency(self, capsys):
        payload = run_json(capsys, "calibrate", "contingency", "--r", "3", "--c", "4",
                           "--n", "10000")
        assert payload["params"]["chi2_critical"] == pytest.approx(55.26, abs=0.01)

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "ks", "--n", "100")
        assert code == 1
        assert "--kappa" in err

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "ks", "--kappa", "-1", "--n", "100")
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_usage_error_does_not_carry_over(self, capsys):
        # A failed parse must leave main() able to parse the next argv.
        code, out, err = run_cli(capsys, "calibrate", "ks", "--kappa", "x", "--n", "100")
        assert code == 1
        assert out == ""
        assert "usage error" in err
        payload = run_json(capsys, "calibrate", "ks", "--kappa", "2", "--n", "10000")
        assert payload["t_star"] == pytest.approx(2.146, abs=1e-3)

    def test_nan_lambda_is_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "sign", "--lambda", "nan", "--n", "100")
        assert code == 2
        assert out == ""

    def test_huge_contingency_table_terminates(self, capsys):
        start = time.perf_counter()
        payload = run_json(capsys, "calibrate", "contingency", "--r", "3200", "--c", "3200",
                           "--n", "100000")
        assert time.perf_counter() - start < 2.0
        assert payload["params"]["nu"] == 3199 ** 2
        for key in ("a_star", "t_star", "alpha_star", "risk_star"):
            assert math.isfinite(payload[key])
        assert math.isfinite(payload["params"]["chi2_fixed_alpha"])

    def test_precision_flag(self, capsys):
        payload = run_json(capsys, "calibrate", "ks", "--kappa", "2", "--n", "10000",
                           "--precision", "12")
        assert abs(payload["t_star"] - 2.145966026289) < 1e-11


class TestRiskCurve:
    def test_minimum_row_location(self, capsys):
        code, out, _ = run_cli(capsys, "risk-curve", "--rho", "1", "--kappa", "2",
                               "--n", "1000000")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 512
        best = min(rows, key=lambda r: float(r["total"]))
        assert float(best["a"]) == pytest.approx(0.53, abs=0.01)

    def test_json_mode_reports_argmin(self, capsys):
        payload = run_json(capsys, "risk-curve", "--rho", "1", "--kappa", "2",
                           "--n", "10000", "--json")
        assert payload["argmin_a"] == pytest.approx(0.5376, abs=5e-4)

    def test_boundary_bracket_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "risk-curve", "--rho", "1", "--kappa", "2",
                             "--n", "100", "--a-min", "1.2", "--a-max", "2.0")
        assert code == 2


class TestRegimes:
    def test_csv_series(self, capsys):
        code, out, _ = run_cli(capsys, "regimes", "--rho", "1", "--kappa", "2",
                               "--alpha", "0.05", "--n-list", "100,10000,1000000")
        assert code == 0
        rows = parse_csv(out)
        assert {r["regime"] for r in rows} == {"clt", "mdp", "ldp"}
        clt = [float(r["risk"]) for r in rows if r["regime"] == "clt"]
        assert all(risk >= 0.05 for risk in clt)


class TestTables:
    def test_writes_all_files(self, capsys, tmp_path):
        out_dir = tmp_path / "tables"
        code, out, _ = run_cli(capsys, "tables", "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "tables.json").exists()
        assert len(list(out_dir.glob("*.csv"))) == 5


class TestSanov:
    def test_rate_from_json_problem(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"support": [0, 1], "probs": [0.5, 0.5],
                                    "phi": [-0.75, 0.25]}))
        payload = run_json(capsys, "sanov", "--input", str(path))
        assert payload["rate"] == pytest.approx(0.130812, abs=1e-6)
        assert payload["status"] == "interior"

    def test_unreachable_rate_serialises_as_inf(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"support": [0, 1], "probs": [0.5, 0.5],
                                    "phi": [-2.0, -1.0]}))
        payload = run_json(capsys, "sanov", "--input", str(path))
        assert payload["rate"] == "inf"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sanov", "--input", "/nonexistent.json")
        assert code == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_phi_is_domain_error(self, capsys, tmp_path, value):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"support": [0, 1], "probs": [0.5, 0.5],
                                    "phi": [value, 0.25]}))  # JSON tokens NaN, Infinity
        code, out, err = run_cli(capsys, "sanov", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestSmallCommands:
    def test_truncation(self, capsys):
        payload = run_json(capsys, "truncation", "--kappa", "2", "--n", "10000")
        assert payload["level"] == pytest.approx(9.2103e-4, abs=1e-7)

    def test_truncation_nan_kappa_is_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, "truncation", "--kappa", "nan", "--n", "100")
        assert code == 2
        assert out == ""

    def test_radius_poly(self, capsys):
        payload = run_json(capsys, "radius", "--rho", "1", "--poly", "1", "--n", "100")
        assert payload["radius"] == pytest.approx(0.15175, abs=1e-5)

    def test_radius_requires_decay_choice(self, capsys):
        code, _, _ = run_cli(capsys, "radius", "--rho", "1", "--n", "100")
        assert code == 1

    def test_slopes(self, capsys):
        payload = run_json(capsys, "slopes", "--theta-list", "1.0,2.0")
        assert payload["slopes"][0]["c_lrt"] == pytest.approx(0.735759, abs=1e-6)

    def test_plugin(self, capsys):
        payload = run_json(capsys, "plugin", "--kappa-hat", "2", "--rho", "1",
                           "--n", "10000")
        assert payload["threshold"] == pytest.approx(2.146, abs=1e-3)

    def test_plugin_nan_kappa_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "plugin", "--kappa-hat", "nan", "--rho", "1",
                             "--n", "100")
        assert code == 2


class TestTriangulate:
    def test_perfect_fit(self, capsys):
        payload = run_json(capsys, "triangulate", "--counts", "5,5",
                           "--theta0", "0.5,0.5")
        assert payload["d_kl"] == 0.0
        assert payload["pearson"] == 0.0

    def test_seven_three(self, capsys):
        payload = run_json(capsys, "triangulate", "--counts", "7,3",
                           "--theta0", "0.5,0.5", "--dirichlet", "1.0")
        assert payload["w_exact"] == pytest.approx(-0.253915, abs=1e-5)

    def test_bad_counts_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "triangulate", "--counts", "7,x",
                             "--theta0", "0.5,0.5")
        assert code == 2


class TestMcCommands:
    @pytest.fixture
    def mc_config(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({
            "prior": {"family": "laplace-location", "lambda": 2.0,
                      "gamma_rate": 0.5, "truncation": 8.0},
            "mc": {"m_alternatives": 100, "m_null": 100, "n": 50, "seed": 5,
                   "threshold_grid": [1.0, 2.0, 3.0, 4.0]},
            "statistic": "sign",
        }))
        return path

    def test_mc_csv_output(self, capsys, mc_config):
        code, out, _ = run_cli(capsys, "mc", "--config", str(mc_config))
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert set(rows[0]) == {"threshold", "alpha_hat", "se_alpha", "beta_hat",
                                "se_beta", "risk_hat"}

    def test_mc_out_file(self, capsys, mc_config, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "mc", "--config", str(mc_config),
                               "--out", str(target))
        assert code == 0
        assert len(parse_csv(target.read_text())) == 4

    def test_env_seed_override(self, capsys, mc_config, monkeypatch):
        payload_default = run_json(capsys, "mc", "--config", str(mc_config), "--json")
        monkeypatch.setenv("MDPCAL_SEED", "5")
        payload_same = run_json(capsys, "mc", "--config", str(mc_config), "--json")
        monkeypatch.setenv("MDPCAL_SEED", "99")
        payload_other = run_json(capsys, "mc", "--config", str(mc_config), "--json")
        assert payload_default["beta_hat"] == payload_same["beta_hat"]
        assert payload_default["beta_hat"] != payload_other["beta_hat"]
        assert payload_other["seed"] == 99

    def test_outputs_record_rng_stream(self, capsys, mc_config, tmp_path):
        assert run_json(capsys, "mc", "--config", str(mc_config), "--json")["rng_stream"] == 2
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "prior": {"lambda": 1.0, "gamma_rate": 1.0, "truncation": 8.0},
            "radii": [0.3, 0.2, 0.1], "m": 1000, "seed": 1,
        }))
        assert run_json(capsys, "prior-exponent", "--config", str(path))["rng_stream"] == 2

    @pytest.mark.parametrize("field, value", [("n", 5.9), ("seed", -3.7)])
    def test_fractional_mc_count_is_domain_error(self, capsys, mc_config, field, value):
        payload = json.loads(mc_config.read_text())
        payload["mc"][field] = value
        mc_config.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "mc", "--config", str(mc_config))
        assert (code, out) == (2, "")
        assert field in err

    @pytest.mark.parametrize("field, value", [("m", 1000.9), ("seed", 1.5)])
    def test_fractional_exponent_count_is_domain_error(self, capsys, tmp_path, field, value):
        payload = {"prior": {"lambda": 1.0, "gamma_rate": 1.0, "truncation": 8.0},
                   "radii": [0.3, 0.2, 0.1], "m": 1000, "seed": 1}
        payload[field] = value
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "prior-exponent", "--config", str(path))
        assert (code, out) == (2, "")
        assert field in err

    def test_unsupported_mc_prior_family_is_domain_error(self, capsys, mc_config):
        payload = json.loads(mc_config.read_text())
        payload["prior"]["family"] = "cauchy-location"
        mc_config.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "mc", "--config", str(mc_config))
        assert (code, out) == (2, "")
        assert "family" in err

    def test_unsupported_exponent_prior_family_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "prior": {"family": "cauchy-location", "lambda": 1.0, "gamma_rate": 1.0,
                      "truncation": 8.0},
            "radii": [0.3, 0.2, 0.1], "m": 1000, "seed": 1,
        }))
        code, out, err = run_cli(capsys, "prior-exponent", "--config", str(path))
        assert (code, out) == (2, "")
        assert "family" in err

    def test_nan_prior_field_is_domain_error(self, capsys, mc_config):
        payload = json.loads(mc_config.read_text())
        payload["prior"]["lambda"] = math.nan
        mc_config.write_text(json.dumps(payload))  # written as the JSON token NaN
        code, out, err = run_cli(capsys, "mc", "--config", str(mc_config))
        assert code == 2
        assert out == ""
        assert "lambda" in err

    def test_prior_exponent_command(self, capsys, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "prior": {"lambda": 1.0, "gamma_rate": 1.0, "truncation": 8.0},
            "radii": [0.3, 0.2, 0.1], "m": 50000, "seed": 1,
        }))
        payload = run_json(capsys, "prior-exponent", "--config", str(path))
        assert payload["kappa_hat"] == pytest.approx(1.0, abs=0.2)


# Each printed nan/inf (or 0.0) and exited 0 before, except the two huge-df
# argvs, which ended in a ZeroDivisionError traceback.
NON_FINITE_ARGV = [
    "calibrate ks --kappa inf --n 100",
    "calibrate sign --lambda inf --n 100",
    "calibrate fisher --lambda inf --d 2 --n 100",
    "regimes --rho 1 --kappa inf --alpha 0.05 --n-list 100,1000",
    "regimes --rho 1 --kappa 2 --alpha 0.05 --n-list 100.7,1000",
    "truncation --kappa inf --n 100",
    "radius --rho nan --poly 1 --n 100",
    "radius --rho inf --poly 1 --n 100",
    "radius --rho 1 --poly nan --n 100",
    "radius --rho 1 --poly inf --n 100",
    "radius --rho 1 --exp nan --n 100",
    "radius --rho 1 --exp inf --n 100",
    "slopes --theta-list inf",
    "triangulate --counts 7,3 --theta0 nan,0.5",
    "plugin --kappa-hat inf --rho 1 --n 100",
    "plugin --kappa-hat 2 --rho inf --n 100",
    "calibrate chi2 --k 100000000000000000000 --n 100",
    "calibrate contingency --r 10000000000 --c 10000000000 --n 100",
    # finite inputs whose reported result overflows
    "calibrate ks --kappa 1e308 --n 1000000000000000000000000000000",
    "calibrate sign --lambda 1e308 --n 1000000000000000000000000000000",
    "calibrate fisher --lambda 1e308 --d 1 --n 1000000000000000000000000000000",
    "plugin --kappa-hat 1e300 --rho 1e-300 --n 100",
    "radius --rho 1e-300 --poly 1e300 --n 100",
    "radius --rho 1e-300 --exp 1e300 --n 100",
    "slopes --theta-list 1e300",
    "slopes --theta-list 1e308",
    "truncation --kappa 1e308 --n 1000000000000000000000000000000",
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGV)
def test_non_finite_or_fractional_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# Each printed the raw "int too large to convert to float" before.
HUGE = str(10**400)
HUGE_INT_ARGV = [
    f"calibrate chi2 --k {HUGE} --n 100",
    f"calibrate contingency --r {10**200} --c {10**200} --n 100",
    f"calibrate fisher --lambda 1 --d {HUGE} --n 100",
]


@pytest.mark.parametrize("argv", HUGE_INT_ARGV, ids=lambda argv: argv.split()[1])
def test_integer_past_float_range_exits_2_with_a_domain_message(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be at most 1.798e+308" in err


def test_contingency_degrees_of_freedom_past_float_range_exit_2_naming_r_and_c(capsys):
    code, out, err = run_cli(capsys, "calibrate", "contingency", "--r", str(10**200),
                             "--c", str(10**200), "--n", "100")
    assert (code, out) == (2, "")
    assert err == "error: degrees of freedom (r-1)(c-1) must be at most 1.798e+308\n"


def test_calibrate_flag_help_names_the_settings_that_take_the_flag():
    flags = {flag: (kwargs.get("type"), kwargs.get("help"))
             for flag, kwargs in _COMMANDS["calibrate"][3]}
    assert flags == {
        "setting": (None, None),
        "--kappa": (float, "prior mass exponent (ks)"),
        "--lambda": (float, "prior density exponent (sign, fisher)"),
        "--k": (int, "number of categories (chi2)"),
        "--r": (int, "row categories (contingency)"),
        "--c": (int, "column categories (contingency)"),
        "--d": (int, "parameter dimension (fisher)"),
        "--n": (int, "sample size"),
    }
    assert list(flags)[1:-1] == ["--kappa", "--lambda", "--k", "--r", "--c", "--d"]


def test_sanov_phi_past_float_range_exits_2_naming_phi(capsys, tmp_path):
    # exited 2 with the raw "(34, 'Numerical result out of range')"
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"support": [0, 1], "probs": [0.999999, 0.000001],
                                "phi": [-1e300, 1e-300]}))
    code, out, err = run_cli(capsys, "sanov", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: phi spans more than the float range")


# Each ended in a Python traceback before: a directory raised IsADirectoryError,
# a non-object payload or a wrong-typed field a TypeError.
MALFORMED_INPUTS = [
    ("sanov --input {tmp}", None, 1, "usage error: "),
    ("sanov --input {file}", [1, 2], 2, "error: "),
    ("sanov --input {file}", {"support": [0, 1], "probs": [0.5, 0.5], "phi": "x"}, 2,
     "error: "),
    ("mc --config {file}", [1, 2], 2, "error: "),
    ("mc --config {file}", {"prior": {"lambda": 2.0, "gamma_rate": 0.5, "truncation": 8.0},
                            "mc": {"m_alternatives": 10, "m_null": 10, "n": 5, "seed": 1,
                                   "threshold_grid": 3},
                            "statistic": "sign"}, 2, "error: "),
    ("mc --config {file}", {"prior": {"lambda": 2.0, "gamma_rate": 0.5, "truncation": 8.0},
                            "mc": {"m_alternatives": 10, "m_null": 10, "n": 5, "seed": 1,
                                   "threshold_grid": [1.0]},
                            "statistic": "sign", "w0": [1]}, 2, "error: "),
    ("prior-exponent --config {file}", [1, 2], 2, "error: "),
    ("prior-exponent --config {file}", {"prior": [], "radii": [0.3], "m": 10, "seed": 1}, 2,
     "error: "),
]


@pytest.mark.parametrize("argv, content, code, prefix", MALFORMED_INPUTS)
def test_malformed_input_file_is_an_error_line(capsys, tmp_path, argv, content, code, prefix):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    got, out, err = run_cli(capsys, *argv.format(tmp=tmp_path, file=path).split())
    assert got == code
    assert out == ""
    assert err.startswith(prefix)
    assert "Traceback" not in err


# Each exited 2 with the raw "int too large to convert to float", naming no field.
_SANOV = {"support": [0, 1], "probs": [0.5, 0.5], "phi": [-1.0, 0.5]}
_PRIOR = {"lambda": 2.0, "gamma_rate": 0.5, "truncation": 8.0}
_MC = {"prior": _PRIOR, "statistic": "sign",
       "mc": {"m_alternatives": 10, "m_null": 10, "n": 20, "seed": 1,
              "threshold_grid": [0.5, 1.0]}}
_EXPONENT = {"prior": _PRIOR, "radii": [0.3, 0.2], "m": 100, "seed": 1}
REAL_FIELDS = [
    ("sanov --input", _SANOV, ("support", 0)),
    ("sanov --input", _SANOV, ("probs", 0)),
    ("sanov --input", _SANOV, ("phi", 1)),
    ("mc --config", _MC, ("mc", "threshold_grid", 0)),
    ("mc --config", _MC, ("prior", "lambda")),
    ("mc --config", _MC, ("prior", "gamma_rate")),
    ("mc --config", _MC, ("prior", "truncation")),
    ("mc --config", _MC, ("w0",)),
    ("mc --config", _MC, ("w1",)),
    ("prior-exponent --config", _EXPONENT, ("radii", 0)),
]


def _with(payload, path, value):
    payload = json.loads(json.dumps(payload))
    *parents, last = path
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    return payload


@pytest.mark.parametrize("argv, payload, path", REAL_FIELDS,
                         ids=[f"{argv.split()[0]}:{'.'.join(map(str, path))}"
                              for argv, _, path in REAL_FIELDS])
def test_real_json_field_past_float_range_exits_2_naming_the_field(capsys, tmp_path, argv,
                                                                   payload, path):
    file = tmp_path / "input.json"
    file.write_text(json.dumps(_with(payload, path, 10**400)))
    code, out, err = run_cli(capsys, *argv.split(), str(file))
    assert (code, out) == (2, "")
    field = next(key for key in reversed(path) if type(key) is str)
    assert err.startswith("error: ") and f"field {field!r} must be " in err
    assert err.endswith(" in float range\n")


def test_mc_seed_past_float_range_is_still_a_seed(capsys, tmp_path):
    file = tmp_path / "mc.json"
    file.write_text(json.dumps(_with(_MC, ("mc", "seed"), 10**400)))
    assert run_cli(capsys, "mc", "--config", str(file))[0] == 0
