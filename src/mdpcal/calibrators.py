"""Setting-specific calibration front-ends and the threshold-table generator.

Each calibrator maps problem parameters to a ThresholdReport: the KS test
(rho=1), the Laplace sign test (rho=1/4), multinomial chi-squared and
contingency-table independence (rho=1/4, kappa = degrees of freedom), and the
Fisher-geometry rejection radius (rho=1/4, kappa = lambda + d).  Each rho is
written once, in its calibrator.  ``SETTINGS`` names the settings: the CLI
dispatches through it, and ``emit_tables`` reads rho and kappa off calibrated
reports to build the constants and verification tables.  The plug-in
threshold for an estimated kappa lives here too.  All reported thresholds are
leading-order; log log n correction terms are intentionally dropped.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

from .errors import DomainError, require_count, require_finite, require_positive
from .risk_core import (CalibrationProblem, ThresholdReport, analytic_optimum,
                        numeric_minimiser, optimal_risk_rate)
from .special_fn import chi2_quantile, kolmogorov_quantile

FIXED_ALPHA = 0.95

KS_TABLE_KAPPAS = (1, 2, 5, 10)
KS_TABLE_NS = (100, 1_000, 10_000, 1_000_000)
CHI2_TABLE_KS = (3, 4, 10)
CHI2_TABLE_NS = (100, 1_000, 10_000)
FISHER_TABLE_SETTINGS = ((1, 1), (1, 2), (2, 3), (1, 5))
FISHER_TABLE_NS = (100, 1_000, 10_000, 100_000)


def calibrate_ks(kappa: float, n: int) -> ThresholdReport:
    """Bayes-optimal KS threshold sqrt(kappa * ln n / 4) on sqrt(n)*S_n.

    ``params["fixed_alpha_crossing_n"]`` is the smallest n at which this
    threshold passes the fixed-alpha quantile; it is ``math.inf`` when that n
    lies beyond float range (small kappa, e.g. 1e-3).
    """
    problem = CalibrationProblem(rho=1.0, kappa=kappa, n=n)
    fixed_quantile = kolmogorov_quantile(FIXED_ALPHA)
    try:
        crossing_n = math.ceil(math.exp(4.0 * fixed_quantile ** 2 / kappa))
    except OverflowError:
        crossing_n = math.inf
    return analytic_optimum(problem, setting="ks", params={
        "fixed_alpha_quantile": fixed_quantile,
        "fixed_alpha_crossing_n": crossing_n,
    })


def calibrate_sign(lam: float, n: int) -> ThresholdReport:
    """Sign-test calibration: reject when the count exceeds n/2 + sqrt(lam n ln n)/2."""
    require_positive("lambda", lam)
    problem = CalibrationProblem(rho=0.25, kappa=lam, n=n)
    # sqrt(n) apart from the rest, so that lam * n cannot overflow near 1e308.
    count_threshold = n / 2.0 + 0.5 * math.sqrt(lam * math.log(n)) * math.sqrt(n)
    return analytic_optimum(problem, setting="sign", params={
        "lambda": lam,
        "count_threshold": require_finite("count_threshold", count_threshold),
    })


def calibrate_chi2(k: int, n: int) -> ThresholdReport:
    """Multinomial chi-squared calibration: critical value (k-1) * ln n."""
    require_count("number of categories", k, 2)
    problem = CalibrationProblem(rho=0.25, kappa=k - 1, n=n)
    return analytic_optimum(problem, setting="chi2", params={
        "k": int(k),
        "chi2_critical": (k - 1) * math.log(n),
        "chi2_fixed_alpha": chi2_quantile(FIXED_ALPHA, k - 1),
    })


def calibrate_contingency(r: int, c: int, n: int) -> ThresholdReport:
    """Independence-test calibration with nu = (r-1)(c-1) degrees of freedom."""
    require_count("row categories r", r, 2)
    require_count("column categories c", c, 2)
    nu = require_count("degrees of freedom (r-1)(c-1)", (r - 1) * (c - 1), 1)
    report = calibrate_chi2(nu + 1, n)
    params = dict(report.params)
    params.update({"r": int(r), "c": int(c), "nu": nu})
    params.pop("k", None)
    return dataclasses.replace(report, setting="contingency", params=params)


def calibrate_fisher(lam: float, d: int, n: int) -> ThresholdReport:
    """Fisher-geometry calibration: rejection radius sqrt((lam + d) * ln n / n)."""
    if not 0 <= lam < math.inf:
        raise DomainError(f"lambda must be nonnegative and finite, got {lam}")
    d = require_count("dimension", d, 1)
    kappa = lam + d
    problem = CalibrationProblem(rho=0.25, kappa=kappa, n=n)
    return analytic_optimum(problem, setting="fisher", params={
        "lambda": lam,
        "d": d,
        "radius": math.sqrt(kappa * math.log(n) / n),
    })


def plugin_threshold(kappa_hat: float, rho: float, n: int) -> float:
    """Asymptotic plug-in threshold sqrt(kappa_hat / (4 rho) * ln n)."""
    require_positive("kappa_hat", kappa_hat)
    require_positive("rho", rho)
    require_count("n", n, 2)
    return require_finite("threshold", math.sqrt(kappa_hat / (4.0 * rho) * math.log(n)))


# setting -> (calibrator, the flags it takes before n, kappa as a formula of
# those flags).  contingency is chi2 with k - 1 = (r-1)(c-1), so it has no
# formula, and no constants or verification row, of its own.
SETTINGS = {
    "ks": (calibrate_ks, ("kappa",), "kappa"),
    "sign": (calibrate_sign, ("lambda",), "lambda"),
    "chi2": (calibrate_chi2, ("k",), "k-1"),
    "contingency": (calibrate_contingency, ("r", "c"), None),
    "fisher": (calibrate_fisher, ("lambda", "d"), "lambda+d"),
}

# verification label -> (setting, its flags before n)
_EXAMPLES = {
    "ks": ("ks", (2.0,)),
    "sign_lambda2": ("sign", (2.0,)),
    "multinomial_k3": ("chi2", (3,)),
    "fisher_d2_lambda1": ("fisher", (1.0, 2)),
}


def emit_tables() -> dict[str, list[dict]]:
    """Regenerate the KS/chi-squared/Fisher threshold tables plus the
    constants summary and the predicted-vs-numeric verification table."""
    fixed_ks = kolmogorov_quantile(FIXED_ALPHA)

    ks_rows = []
    for kappa in KS_TABLE_KAPPAS:
        for n in KS_TABLE_NS:
            report = calibrate_ks(kappa, n)
            ks_rows.append({
                "kappa": kappa,
                "n": n,
                "t_star_mdp": report.t_star,
                "t_fixed_alpha": fixed_ks,
                "alpha_star": report.alpha_star,
                "bayes_risk_star": optimal_risk_rate(kappa, n),
            })

    chi2_rows = []
    for k in CHI2_TABLE_KS:
        for n in CHI2_TABLE_NS:
            report = calibrate_chi2(k, n)
            chi2_rows.append({
                "k": k,
                "kappa": k - 1,
                "n": n,
                "chi2_star_mdp": report.params["chi2_critical"],
                "chi2_fixed_alpha": report.params["chi2_fixed_alpha"],
                "alpha_star": report.alpha_star,
            })

    fisher_rows = []
    for lam, d in FISHER_TABLE_SETTINGS:
        for n in FISHER_TABLE_NS:
            report = calibrate_fisher(lam, d, n)
            fisher_rows.append({
                "lambda": lam,
                "d": d,
                "kappa": lam + d,
                "n": n,
                "radius": report.params["radius"],
            })

    constants_rows, verification_rows = [], []
    for label, (setting, flags) in _EXAMPLES.items():
        calibrator, _, kappa_formula = SETTINGS[setting]
        report = calibrator(*flags, 10_000)
        rho, kappa, a_star = report.params["rho"], float(report.params["kappa"]), report.a_star
        scale = 4.0 * rho
        constants_rows.append({
            "setting": setting, "rho": rho, "kappa_formula": kappa_formula,
            "a_star_formula": kappa_formula if scale == 1.0 else f"{kappa_formula}/{scale:g}",
            "a_star_per_kappa": 1.0 / scale,
        })
        a_num = [numeric_minimiser(CalibrationProblem(rho=rho, kappa=kappa, n=n)).argmin_a
                 for n in (10_000, 1_000_000)]
        verification_rows.append({
            "setting": label, "rho": rho, "kappa": kappa, "a_star": a_star,
            "a_num_1e4": a_num[0], "a_num_1e6": a_num[1],
            "rel_error_1e6": (a_num[1] - a_star) / a_star,
        })

    return {"ks_thresholds": ks_rows, "chi2_thresholds": chi2_rows,
            "fisher_radii": fisher_rows, "constants": constants_rows,
            "verification": verification_rows}


def write_tables(tables: dict[str, list[dict]], out_dir: str | Path) -> list[Path]:
    """Serialise ``emit_tables()``: one CSV per table plus a single JSON document."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in tables.items():
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        written.append(path)
    json_path = out_dir / "tables.json"
    payload = {"schema": "mdpcal/1", "tables": tables}
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    written.append(json_path)
    return written
