"""Half-space rates, truncation levels, radii and Bahadur slopes."""

import json
import math

import numpy as np
import pytest

from mdpcal import (DomainError, TiltedHalfSpace, bahadur_slopes,
                    calibrate_sign, distinguishability_radius, half_space_rate,
                    kl_bernoulli, kl_multinomial, load_half_space,
                    mdp_truncation_level)


def bernoulli_problem(q: float, cut: float) -> TiltedHalfSpace:
    # half-space {G : E_G[x] >= cut} against a Bernoulli(q) null
    return TiltedHalfSpace(support=(0.0, 1.0), probs=(1.0 - q, q),
                           phi=(-cut, 1.0 - cut))


def random_problem(rng: np.random.Generator) -> TiltedHalfSpace:
    while True:
        k = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(k) * rng.uniform(0.5, 3.0))
        probs = np.maximum(probs, 1e-4)
        probs = probs / probs.sum()
        phi = rng.normal(0.0, rng.uniform(0.5, 3.0), k)
        problem = TiltedHalfSpace(tuple(range(k)), tuple(probs), tuple(phi))
        if problem.null_mean < -1e-3 and max(phi) > 1e-3:
            return problem


def primal_minimum_slsqp(problem: TiltedHalfSpace) -> float:
    # Independent primal route: constrained minimisation of KL over the simplex.
    import warnings

    from scipy.optimize import minimize

    k = len(problem.probs)
    p0 = np.asarray(problem.probs)
    phi = np.asarray(problem.phi)

    def objective(g):
        g = np.maximum(g, 1e-300)
        return float(np.sum(g * np.log(g / p0)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # SLSQP bound clipping
        result = minimize(
            objective,
            np.full(k, 1.0 / k),
            method="SLSQP",
            bounds=[(1e-12, 1.0)] * k,
            constraints=[{"type": "eq", "fun": lambda g: np.sum(g) - 1.0},
                         {"type": "ineq", "fun": lambda g: float(np.dot(g, phi))}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
    assert result.success, result.message
    return float(result.fun)


class TestHalfSpaceRate:
    @pytest.mark.parametrize("field", ["support", "probs", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, field, value):
        fields = {"support": [0.0, 1.0], "probs": [0.5, 0.5], "phi": [-0.75, 0.25]}
        fields[field][0] = value
        with pytest.raises(DomainError):
            TiltedHalfSpace(**fields)

    def test_bernoulli_closed_form(self):
        # support {0,1}, fair null, phi = x - 0.75: duality predicts
        # the tilted optimiser Ber(0.75) and rate kl_bernoulli(0.75, 0.5)
        problem = TiltedHalfSpace((0.0, 1.0), (0.5, 0.5), (-0.75, 0.25))
        solution = half_space_rate(problem)
        assert solution.status == "interior"
        assert solution.rate == pytest.approx(0.130812, abs=1e-6)
        assert solution.rate == pytest.approx(kl_bernoulli(0.75, 0.5), abs=1e-10)
        assert solution.tilted_probs[1] == pytest.approx(0.75, abs=1e-8)
        assert solution.t_star == pytest.approx(math.log(3.0), abs=1e-6)

    def test_bernoulli_family_matches_kl(self):
        for q in (0.1, 0.3, 0.5):
            for cut in (q + 0.1, q + 0.3):
                if cut >= 1.0:
                    continue
                solution = half_space_rate(bernoulli_problem(q, cut))
                assert solution.rate == pytest.approx(kl_bernoulli(cut, q), abs=1e-6)

    def test_null_on_boundary_gives_vanishing_rate(self):
        for delta in (1e-3, 1e-6):
            problem = TiltedHalfSpace((0.0, 1.0), (0.5, 0.5), (-delta - 0.5, 0.5 - delta))
            assert half_space_rate(problem).rate < 5 * delta

    def test_null_inside_half_space_flagged(self):
        problem = TiltedHalfSpace((0.0, 1.0), (0.5, 0.5), (-0.25, 0.75))
        solution = half_space_rate(problem)
        assert solution.rate == 0.0
        assert solution.t_star == 0.0
        assert solution.status == "null-in-halfspace"

    def test_unreachable_half_space_is_infinite(self):
        problem = TiltedHalfSpace((0.0, 1.0, 2.0), (0.2, 0.3, 0.5), (-3.0, -2.0, -1.0))
        solution = half_space_rate(problem)
        assert solution.rate == math.inf
        assert solution.status == "unreachable"

    def test_boundary_support_rate(self):
        # max phi = 0: the rate is -ln of the null mass on {phi = 0}
        problem = TiltedHalfSpace((0.0, 1.0), (0.75, 0.25), (-1.0, 0.0))
        solution = half_space_rate(problem)
        assert solution.rate == pytest.approx(-math.log(0.25), abs=1e-12)
        assert solution.status == "boundary-support"
        assert solution.tilted_probs == (0.0, 1.0)

    def test_stationarity_of_tilt(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            problem = random_problem(rng)
            solution = half_space_rate(problem)
            assert solution.status == "interior"
            mean = sum(q * f for q, f in zip(solution.tilted_probs, problem.phi))
            assert abs(mean) <= 1e-8
            assert abs(sum(solution.tilted_probs) - 1.0) <= 1e-12

    def test_duality_against_primal_oracle(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(2024)
        for _ in range(50):
            problem = random_problem(rng)
            dual = half_space_rate(problem).rate
            primal = primal_minimum_slsqp(problem)
            assert dual == pytest.approx(primal, abs=1e-4)

    def test_dual_rate_equals_kl_of_tilt(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            problem = random_problem(rng)
            solution = half_space_rate(problem)
            assert solution.rate == pytest.approx(
                kl_multinomial(solution.tilted_probs, problem.probs), abs=1e-9)

    @pytest.mark.parametrize("exponent", [-300, -100, -20, -5, *range(0, 301, 10), 308])
    def test_rate_does_not_depend_on_the_scale_of_phi(self, exponent):
        # {G : G_1 (-c) + G_2 (1e-5 c) >= 0} is G_1 <= g for every scale c; the
        # rate was off by 2.2% at c = 1e12 and -3.96 at 1e16, and raised
        # OverflowError from c ~ 1.3e154.
        c = 1.7e308 if exponent == 308 else 10.0 ** exponent
        problem = TiltedHalfSpace((0.0, 1.0), (0.5, 0.5), (-c, 1e-5 * c))
        g = 1e-5 / (1.0 + 1e-5)
        solution = half_space_rate(problem)
        assert solution.status == "interior"
        assert solution.rate == pytest.approx(kl_bernoulli(g, 0.5), abs=1e-9)
        mean = sum(q * f / c for q, f in zip(solution.tilted_probs, problem.phi))
        assert abs(mean) <= 1e-12
        # q_2 / q_1 = e^{t (phi_2 - phi_1)} = (1 - g) / g
        assert solution.t_star * c * (1.0 + 1e-5) == pytest.approx(math.log((1.0 - g) / g),
                                                                  rel=1e-9)

    @pytest.mark.parametrize("small", [1e-12, 1e-17, 1e-20, 1e-100, 1e-300])
    def test_newton_polish_keeps_the_golden_point_on_a_flat_dual(self, small):
        # Lambda is flat in float past t ~ 40 here; the first Newton step left
        # [0, t_cap], was clamped to 0, and the rate came out 0.678 (not ln 2).
        # Golden-section search cannot see the minimum there either: t* was 64
        # at 1e-20, 256 at 1e-100 and 1024 at 1e-300.  The tilted mean
        # -e^-t + small e^(t small) vanishes at ln(1/small) / (1 + small).
        problem = TiltedHalfSpace((0.0, 1.0), (0.5, 0.5), (-1.0, small))
        g = small / (1.0 + small)
        solution = half_space_rate(problem)
        assert solution.rate == pytest.approx(
            math.log(2.0) + g * math.log(g) + (1.0 - g) * math.log1p(-g), abs=1e-12)
        assert solution.t_star == pytest.approx(math.log(1.0 / small) / (1.0 + small),
                                                rel=1e-11)

    @pytest.mark.parametrize("probs, phi, match", [
        ((0.999999, 0.000001), (-1e300, 1e-300), "phi spans more than the float range"),
        ((0.5, 0.5), (-1.7e308, 1e-300), "phi spans more than the float range"),
        ((0.5, 0.5), (-1e-320, 1e-321), "t_star lies beyond float range"),
        ((0.5, 0.25, 0.25), (-1.0, -4e-323, 1e-323), "tilt bracket is not finite"),
    ])
    def test_tilt_past_float_range_is_domain_error(self, probs, phi, match):
        problem = TiltedHalfSpace(tuple(range(len(phi))), probs, phi)
        with pytest.raises(DomainError, match=match):
            half_space_rate(problem)

    def test_json_ingestion(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"support": [0, 1], "probs": [0.5, 0.5],
                                    "phi": [-0.75, 0.25]}))
        solution = half_space_rate(load_half_space(path))
        assert solution.rate == pytest.approx(0.130812, abs=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            TiltedHalfSpace((0.0,), (0.5, 0.5), (1.0, -1.0))
        with pytest.raises(DomainError):
            TiltedHalfSpace((0.0, 1.0), (0.0, 1.0), (1.0, -1.0))
        with pytest.raises(DomainError):
            TiltedHalfSpace((0.0, 1.0), (0.6, 0.6), (1.0, -1.0))


class TestTruncationLevel:
    def test_direct_value(self):
        assert mdp_truncation_level(2, 10_000) == pytest.approx(9.2103e-4, abs=1e-7)

    def test_unit_log(self):
        n = round(math.e)  # n = 3, ln n close to 1 only after rounding
        assert mdp_truncation_level(4.0, n) == pytest.approx(2.0 * math.log(n) / n, rel=1e-12)

    def test_template_identity(self):
        # (kappa/2) ln n / n = 2 rho * a* ln n / n for every rho
        for rho in (0.25, 0.5, 1.0, 2.0):
            for kappa in (1.0, 3.0):
                for n in (100, 10_000):
                    a_star = kappa / (4.0 * rho)
                    expected = 2.0 * rho * a_star * math.log(n) / n
                    assert mdp_truncation_level(kappa, n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kappa, n", [(2, math.nan), (2, math.inf), (2, 100.5),
                                          (math.inf, 100), (math.nan, 100)])
    def test_non_finite_inputs_rejected(self, kappa, n):
        with pytest.raises(DomainError):
            mdp_truncation_level(kappa, n)

    @pytest.mark.parametrize("lam", [1.0, 2.0, 5.0])
    def test_sign_threshold_half_space_is_the_log_n_truncation(self, lam):
        # The Sanov rate of the sign test's rejection set {count >= threshold}
        # is (lambda/2) ln n / n to leading order; the excess tracks
        # lambda ln n / (6 n).
        for n in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8):
            cut = calibrate_sign(lam, n).params["count_threshold"] / n
            rate = half_space_rate(bernoulli_problem(0.5, cut)).rate
            assert rate == pytest.approx(kl_bernoulli(cut, 0.5), rel=1e-9)
            excess = rate / mdp_truncation_level(lam, n) - 1.0
            assert 0.0 < excess <= lam * math.log(n) / (3.0 * n)

    def test_monotone_in_n_linear_in_kappa(self):
        levels = [mdp_truncation_level(2, n) for n in range(3, 200)]
        assert all(b < a for a, b in zip(levels, levels[1:]))
        assert mdp_truncation_level(6, 50) == pytest.approx(
            3.0 * mdp_truncation_level(2, 50), rel=1e-12)


class TestDistinguishabilityRadius:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, value):
        with pytest.raises(DomainError):
            distinguishability_radius(value, "polynomial", 1.0, 100)
        with pytest.raises(DomainError):
            distinguishability_radius(1.0, "polynomial", value, 100)
        with pytest.raises(DomainError):
            distinguishability_radius(1.0, "exponential", value, 100)

    def test_polynomial_value(self):
        radius = distinguishability_radius(1.0, "polynomial", 1.0, 100)
        assert radius == pytest.approx(0.15175, abs=1e-5)

    def test_exponential_constant_in_n(self):
        r1 = distinguishability_radius(0.5, "exponential", 0.3, 100)
        r2 = distinguishability_radius(0.5, "exponential", 0.3, 10**8)
        assert r1 == r2 == pytest.approx(math.sqrt(0.3), rel=1e-12)

    def test_square_law_ratio(self):
        for n in (100, 10_000):
            r_n = distinguishability_radius(1.0, "polynomial", 2.0, n)
            r_n2 = distinguishability_radius(1.0, "polynomial", 2.0, n * n)
            assert r_n2 / r_n == pytest.approx(math.sqrt(2.0 / n), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            distinguishability_radius(1.0, "weird", 1.0, 100)
        with pytest.raises(DomainError):
            distinguishability_radius(1.0, "polynomial", -1.0, 100)
        with pytest.raises(DomainError):
            distinguishability_radius(0.0, "polynomial", 1.0, 100)


class TestBahadurSlopes:
    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(DomainError):
            bahadur_slopes(theta)

    def test_lrt_value_at_one(self):
        assert bahadur_slopes(1.0).c_lrt == pytest.approx(0.735759, abs=1e-6)

    def test_all_slopes_vanish_at_null(self):
        slopes = bahadur_slopes(1e-9)
        assert slopes.c_sign < 1e-12
        assert slopes.c_lrt < 1e-12
        assert slopes.c_med < 1e-12

    def test_local_bahadur_efficiency(self):
        slopes = bahadur_slopes(0.01)
        assert 0.99 <= slopes.c_sign / 0.01**2 <= 1.01
        assert 0.99 <= slopes.c_lrt / 0.01**2 <= 1.01

    def test_neyman_pearson_dominance(self):
        for i in range(1, 101):
            theta = 5.0 * i / 100
            slopes = bahadur_slopes(theta)
            assert slopes.c_sign <= slopes.c_lrt + 1e-12

    def test_median_slope_is_flagged_local(self):
        slopes = bahadur_slopes(0.7)
        assert slopes.c_med == pytest.approx(0.49, rel=1e-12)
