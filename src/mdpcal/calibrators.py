"""Setting-specific calibration front-ends and the threshold-table generator.

Each calibrator maps problem parameters to a ThresholdReport: the KS test
(rho=1), the Laplace sign test (rho=1/4), multinomial chi-squared and
contingency-table independence (rho=1/4, kappa = degrees of freedom), and the
Fisher-geometry rejection radius (rho=1/4, kappa = lambda + d).  The
plug-in threshold for an estimated kappa lives here too.  All reported
thresholds are leading-order; log log n correction terms are intentionally
dropped.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
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
    nu = (r - 1) * (c - 1)
    report = calibrate_chi2(nu + 1, n)
    params = dict(report.params)
    params.update({"r": int(r), "c": int(c), "nu": nu})
    params.pop("k", None)
    return dataclasses.replace(report, setting="contingency", params=params)


def calibrate_fisher(lam: float, d: int, n: int) -> ThresholdReport:
    """Fisher-geometry calibration: rejection radius sqrt((lam + d) * ln n / n)."""
    if not 0 <= lam < math.inf:
        raise DomainError(f"lambda must be nonnegative and finite, got {lam}")
    require_count("dimension", d, 1)
    kappa = lam + d
    problem = CalibrationProblem(rho=0.25, kappa=kappa, n=n)
    return analytic_optimum(problem, setting="fisher", params={
        "lambda": lam,
        "d": int(d),
        "radius": math.sqrt(kappa * math.log(n) / n),
    })


def plugin_threshold(kappa_hat: float, rho: float, n: int) -> float:
    """Asymptotic plug-in threshold sqrt(kappa_hat / (4 rho) * ln n)."""
    require_positive("kappa_hat", kappa_hat)
    require_positive("rho", rho)
    require_count("n", n, 2)
    return require_finite("threshold", math.sqrt(kappa_hat / (4.0 * rho) * math.log(n)))


@dataclass(frozen=True)
class TableBundle:
    """All regenerated threshold tables as column-ordered records."""

    ks_thresholds: tuple[dict, ...]
    chi2_thresholds: tuple[dict, ...]
    fisher_radii: tuple[dict, ...]
    constants: tuple[dict, ...]
    verification: tuple[dict, ...]

    def tables(self) -> dict[str, tuple[dict, ...]]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _verification_row(setting: str, rho: float, kappa: float) -> dict:
    argmins = {}
    for n in (10_000, 1_000_000):
        problem = CalibrationProblem(rho=rho, kappa=kappa, n=n)
        argmins[n] = numeric_minimiser(problem).argmin_a
    a_star = kappa / (4.0 * rho)
    return {
        "setting": setting,
        "rho": rho,
        "kappa": kappa,
        "a_star": a_star,
        "a_num_1e4": argmins[10_000],
        "a_num_1e6": argmins[1_000_000],
        "rel_error_1e6": (argmins[1_000_000] - a_star) / a_star,
    }


def emit_tables() -> TableBundle:
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

    constants_rows = (
        {"setting": "ks", "rho": 1.0, "kappa_formula": "kappa",
         "a_star_formula": "kappa/4", "a_star_per_kappa": 0.25},
        {"setting": "sign", "rho": 0.25, "kappa_formula": "lambda",
         "a_star_formula": "lambda", "a_star_per_kappa": 1.0},
        {"setting": "chi2", "rho": 0.25, "kappa_formula": "k-1",
         "a_star_formula": "k-1", "a_star_per_kappa": 1.0},
        {"setting": "fisher", "rho": 0.25, "kappa_formula": "lambda+d",
         "a_star_formula": "lambda+d", "a_star_per_kappa": 1.0},
    )

    verification_rows = (
        _verification_row("ks", 1.0, 2.0),
        _verification_row("sign_lambda2", 0.25, 2.0),
        _verification_row("multinomial_k3", 0.25, 2.0),
        _verification_row("fisher_d2_lambda1", 0.25, 3.0),
    )

    return TableBundle(
        ks_thresholds=tuple(ks_rows),
        chi2_thresholds=tuple(chi2_rows),
        fisher_radii=tuple(fisher_rows),
        constants=constants_rows,
        verification=verification_rows,
    )


def write_tables(bundle: TableBundle, out_dir: str | Path) -> list[Path]:
    """Serialise the bundle: one CSV per table plus a single JSON document."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in bundle.tables().items():
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        written.append(path)
    json_path = out_dir / "tables.json"
    payload = {"schema": "mdpcal/1",
               "tables": {name: list(rows) for name, rows in bundle.tables().items()}}
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    written.append(json_path)
    return written
