"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
import pytest

from mdpcal import (CalibrationProblem, CountVector, PriorSpec, McConfig,
                    TiltedHalfSpace, bahadur_slopes, calibrate_chi2,
                    calibrate_fisher, calibrate_ks, emit_tables,
                    estimate_prior_exponent, evidence_bundle, fit_power_law,
                    half_space_rate, kl_bernoulli, kolmogorov_quantile,
                    kolmogorov_sf, mc_bayes_risk, regime_series,
                    regularized_gamma_p)
from test_sanov_rates import primal_minimum_slsqp, random_problem

# Printed reference cells: (kappa, n) -> (t_star, alpha_star, bayes_risk_star),
# each read at its printed precision.
TABLE_KS = {
    (1, 100): (1.073, 1.0e-1, 2.1e-1),
    (1, 1_000): (1.314, 3.2e-2, 8.3e-2),
    (1, 10_000): (1.517, 1.0e-2, 3.0e-2),
    (1, 10**6): (1.858, 1.0e-3, 3.7e-3),
    (2, 100): (1.517, 1.0e-2, 4.6e-2),
    (2, 1_000): (1.858, 1.0e-3, 6.9e-3),
    (2, 10_000): (2.146, 1.0e-4, 9.2e-4),
    (2, 10**6): (2.628, 1.0e-6, 1.4e-5),
    (5, 100): (2.399, 1.0e-5, 4.6e-4),
    (5, 1_000): (2.938, 3.2e-8, 4.0e-6),
    (5, 10_000): (3.393, 1.0e-10, 2.6e-8),
    (5, 10**6): (4.156, 1.0e-15, 7.1e-13),
    (10, 100): (3.393, 1.0e-10, 2.1e-7),
    (10, 1_000): (4.156, 1.0e-15, 1.6e-11),
    (10, 10_000): (4.799, 1.0e-20, 6.6e-16),
    (10, 10**6): (5.877, 1.0e-30, 5.0e-25),
}

# (k, n) -> (chi2_star, alpha_star)
TABLE_CHI2 = {
    (3, 100): (9.2, 1.0e-2),
    (3, 1_000): (13.8, 1.0e-3),
    (3, 10_000): (18.4, 1.0e-4),
    (4, 100): (13.8, 1.0e-3),
    (4, 1_000): (20.7, 3.2e-5),
    (4, 10_000): (27.6, 1.0e-6),
    (10, 100): (41.4, 1.0e-9),
    (10, 1_000): (62.2, 3.2e-14),
    (10, 10_000): (82.9, 1.0e-18),
}

CHI2_FIXED_ALPHA = {3: 5.99, 4: 7.81, 10: 16.92}

# (lambda, d, n) -> radius
TABLE_FISHER = {
    (1, 1, 100): 0.3035, (1, 1, 1_000): 0.1175, (1, 1, 10_000): 0.0429, (1, 1, 100_000): 0.0152,
    (1, 2, 100): 0.3717, (1, 2, 1_000): 0.1440, (1, 2, 10_000): 0.0526, (1, 2, 100_000): 0.0186,
    (2, 3, 100): 0.4799, (2, 3, 1_000): 0.1858, (2, 3, 10_000): 0.0679, (2, 3, 100_000): 0.0240,
    (1, 5, 100): 0.5257, (1, 5, 1_000): 0.2036, (1, 5, 10_000): 0.0743, (1, 5, 100_000): 0.0263,
}

# setting -> (a_star, a_num at 1e4, a_num at 1e6)
TABLE_VERIFICATION = {
    "ks": (0.50, 0.54, 0.53),
    "sign_lambda2": (2.00, 1.85, 1.90),
    "multinomial_k3": (2.00, 1.85, 1.90),
    "fisher_d2_lambda1": (3.00, 2.42, 2.58),
}


def last_digit_unit(printed: float) -> float:
    # one unit in the last printed digit, e.g. 1.073 -> 1e-3, 3.2e-8 -> 1e-9
    text = f"{printed:.6g}"
    if "e" in text:
        mantissa, exponent = text.split("e")
        decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
        return 10.0 ** (int(exponent) - decimals)
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 10.0 ** (-decimals)


def report(num: int, label: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"\n[criterion {num:02d}] {status} - {label}{timing}")
    assert not failures, f"criterion {num}: {label}: {failures[:5]}"


@pytest.fixture(scope="module")
def timed_bundle():
    start = time.perf_counter()
    bundle = emit_tables()
    return bundle, time.perf_counter() - start


def test_criterion_01_table_ks(timed_bundle):
    bundle, elapsed = timed_bundle
    failures = []
    rows = {(r["kappa"], r["n"]): r for r in bundle["ks_thresholds"]}
    for key, (t_ref, a_ref, b_ref) in TABLE_KS.items():
        row = rows[key]
        for column, computed, printed in (
            ("t_star", row["t_star_mdp"], t_ref),
            ("alpha_star", row["alpha_star"], a_ref),
            ("bayes_risk_star", row["bayes_risk_star"], b_ref),
        ):
            if abs(computed - printed) > last_digit_unit(printed):
                failures.append((key, column, computed, printed))
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    report(1, "KS threshold table: 16 cells of t*/alpha*/B* at printed precision",
           failures, elapsed)


def test_criterion_02_table_chi2(timed_bundle):
    bundle, elapsed = timed_bundle
    failures = []
    rows = {(r["k"], r["n"]): r for r in bundle["chi2_thresholds"]}
    for key, (crit_ref, a_ref) in TABLE_CHI2.items():
        row = rows[key]
        if abs(row["chi2_star_mdp"] - crit_ref) > last_digit_unit(crit_ref):
            failures.append((key, "chi2_star", row["chi2_star_mdp"], crit_ref))
        if abs(row["alpha_star"] - a_ref) > last_digit_unit(a_ref):
            failures.append((key, "alpha_star", row["alpha_star"], a_ref))
    for k, q_ref in CHI2_FIXED_ALPHA.items():
        q = rows[(k, 100)]["chi2_fixed_alpha"]
        if abs(q - q_ref) > 0.01:
            failures.append((k, "fixed_alpha_quantile", q, q_ref))
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    report(2, "chi-squared table: 9 cells plus fixed-alpha quantiles to ±0.01",
           failures, elapsed)


def test_criterion_03_table_fisher(timed_bundle):
    bundle, elapsed = timed_bundle
    failures = []
    rows = {(r["lambda"], r["d"], r["n"]): r["radius"] for r in bundle["fisher_radii"]}
    for key, radius_ref in TABLE_FISHER.items():
        if abs(rows[key] - radius_ref) > 1e-4:
            failures.append((key, rows[key], radius_ref))
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    report(3, "Fisher radius table: 16 radii to ±0.0001", failures, elapsed)


def test_criterion_04_verification_table(timed_bundle):
    bundle, elapsed = timed_bundle
    failures = []
    rows = {r["setting"]: r for r in bundle["verification"]}
    for setting, (a_star, num_1e4, num_1e6) in TABLE_VERIFICATION.items():
        row = rows[setting]
        if abs(row["a_star"] - a_star) > 1e-12:
            failures.append((setting, "a_star", row["a_star"], a_star))
        if abs(row["a_num_1e4"] - num_1e4) > 0.01:
            failures.append((setting, "a_num_1e4", row["a_num_1e4"], num_1e4))
        if abs(row["a_num_1e6"] - num_1e6) > 0.01:
            failures.append((setting, "a_num_1e6", row["a_num_1e6"], num_1e6))
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    report(4, "verification table: analytic a* exact, grid minimisers to ±0.01",
           failures, elapsed)


def test_criterion_05_regime_trichotomy():
    failures = []
    n_values = [10**e for e in range(2, 9)]
    problem = CalibrationProblem(rho=1.0, kappa=2.0, n=100)
    series = regime_series(problem, n_values, 0.05)
    for n, risk in series["clt"]:
        if risk < 0.05 - 1e-12:
            failures.append(("clt", n, risk))
    for n, risk in series["mdp"]:
        ratio = risk / ((math.log(n) / n) ** 1.0)
        if not 0.5 <= ratio <= 5.0:
            failures.append(("mdp", n, ratio))
    for n, risk in series["ldp"]:
        if risk < 0.5:
            failures.append(("ldp", n, risk))
    report(5, "regime trichotomy: CLT floor, MDP rate band, LDP stagnation", failures)


def test_criterion_06_kolmogorov_kernel():
    failures = []
    quantile = kolmogorov_quantile(0.95)
    if abs(quantile - 1.358) > 1e-3:
        failures.append(("quantile", quantile))
    for i in range(301):
        t = 1.5 + 1.5 * i / 300
        envelope = math.exp(-2.0 * t * t)
        sf = kolmogorov_sf(t)
        if not 1.9 * envelope <= sf <= 2.0 * envelope:
            failures.append(("envelope", t, sf / envelope))
    report(6, "Kolmogorov kernel: K^-1(0.95)=1.358±0.001 and 1.9/2.0 tail envelope",
           failures)


def test_criterion_07_sanov_duality():
    pytest.importorskip("scipy")
    failures = []
    problem = TiltedHalfSpace((0.0, 1.0), (0.5, 0.5), (-0.75, 0.25))
    gap = abs(half_space_rate(problem).rate - kl_bernoulli(0.75, 0.5))
    if gap > 1e-6:
        failures.append(("bernoulli", gap))
    rng = np.random.default_rng(2024)
    for index in range(50):
        problem = random_problem(rng)
        dual = half_space_rate(problem).rate
        primal = primal_minimum_slsqp(problem)
        if abs(dual - primal) > 1e-4:
            failures.append((index, dual, primal))
    report(7, "Sanov duality: 50 random problems vs primal minimiser within 1e-4",
           failures)


def test_criterion_08_triangulation_identities():
    failures = []
    rng = np.random.default_rng(314)
    for index in range(200):
        k = int(rng.integers(2, 11))
        n = int(rng.integers(k, 10_001))
        theta0 = rng.dirichlet(np.ones(k))
        theta0 = np.maximum(theta0, 0.02)
        theta0 = tuple(theta0 / theta0.sum())
        counts = CountVector(tuple(int(c) for c in rng.multinomial(n, theta0)))
        bundle = evidence_bundle(counts, theta0)

        def off(lhs, rhs):
            return abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs), abs(rhs))

        if off(bundle.lambda_n, 2.0 * n * bundle.d_kl):
            failures.append((index, "lambda"))
        if off(bundle.entropy_deficit, bundle.d_kl + bundle.cross_term):
            failures.append((index, "entropy"))
        if off(2.0 * bundle.w_good - bundle.lambda_n, (k - 1) * math.log(n)):
            failures.append((index, "w_good"))
    # cross term vanishes for uniform nulls
    for k in (2, 3, 5, 10):
        counts = CountVector(tuple(int(c) for c in rng.multinomial(5000, np.ones(k) / k)))
        bundle = evidence_bundle(counts, tuple(1.0 / k for _ in range(k)))
        if abs(bundle.cross_term) > 1e-12:
            failures.append(("uniform-cross", k, bundle.cross_term))

    # Wilks gap within 1% for count vectors inside the 0.02 sup-norm ball
    rng = np.random.default_rng(818)
    checked = 0
    for _ in range(60):
        k = int(rng.integers(2, 6))
        theta0 = tuple(np.full(k, 1.0 / k))
        counts = CountVector(tuple(int(c) for c in rng.multinomial(10_000, theta0)))
        sup_dist = max(abs(p - t) for p, t in zip(counts.proportions, theta0))
        if sup_dist > 0.02 or counts.proportions == theta0:
            continue
        checked += 1
        bundle = evidence_bundle(counts, theta0)
        if abs(bundle.lambda_n - bundle.pearson) / bundle.lambda_n >= 0.01:
            failures.append(("wilks", counts.counts))
    if checked < 50:
        failures.append(("wilks-coverage", checked))
    report(8, "triangulation: exact identities at 1e-12, Wilks gap < 1% near the null",
           failures)


def test_criterion_09_bahadur_slopes():
    failures = []
    slopes = bahadur_slopes(0.01)
    for name, value in (("sign", slopes.c_sign), ("lrt", slopes.c_lrt)):
        ratio = value / 0.01**2
        if not 0.99 <= ratio <= 1.01:
            failures.append((name, ratio))
    for i in range(1, 101):
        theta = 5.0 * i / 100
        s = bahadur_slopes(theta)
        if s.c_sign > s.c_lrt + 1e-12:
            failures.append(("dominance", theta))
    report(9, "Bahadur slopes: local efficiency at theta=0.01, sign <= LRT on (0,5]",
           failures)


def test_criterion_10_mc_basin():
    failures = []
    start = time.perf_counter()
    prior = PriorSpec(lambda_=2.0, gamma_rate=0.5, truncation=8.0)
    cfg = McConfig(m_alternatives=2000, m_null=2000, n=500, seed=42,
                   threshold_grid=tuple(0.5 + 0.05 * i for i in range(111)))
    result = mc_bayes_risk(prior, cfg, "sign")
    elapsed = time.perf_counter() - start
    z_star = math.sqrt(2.0 * math.log(500))
    if abs(result.argmin_threshold - z_star) > 0.2 * z_star:
        failures.append(("argmin", result.argmin_threshold, z_star))
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    report(10, "MC basin: sign-test risk argmin within ±20% of the analytic threshold",
           failures, elapsed)


def test_criterion_11_prior_exponent_recovery():
    failures = []
    start = time.perf_counter()
    radii = (0.2, 0.1, 0.05, 0.03, 0.02)
    for lam in (1.0, 2.0):
        prior = PriorSpec(lambda_=lam, gamma_rate=1.0, truncation=8.0)
        fit = estimate_prior_exponent(prior, radii, 10**6, seed=1)
        total = regularized_gamma_p(lam, 8.0)
        exact = fit_power_law(
            radii, [regularized_gamma_p(lam, r) / total for r in radii]).kappa_hat
        if abs(fit.kappa_hat - lam) > 0.1:
            failures.append((lam, "vs-lambda", fit.kappa_hat))
        if abs(fit.kappa_hat - exact) > 0.1:
            failures.append((lam, "vs-oracle", fit.kappa_hat, exact))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    report(11, "prior-exponent recovery: kappa_hat within ±0.1 for lambda in {1,2}",
           failures, elapsed)
