"""Library fuzz: every closed-form public name, and PriorSpec and McConfig,
returns a finite value, a documented inf sentinel or DomainError in bounded
time, for any argument drawn from the edge scalars below or short tuples of them.

``PriorSpec`` and ``McConfig`` are only built, never run, so that every call
stays small.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mdpcal
from mdpcal import DomainError

EDGE = (math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e308, 10**400, True, np.bool_(True),
        "2", None, np.float64(2), Fraction(1, 2))
# Ordinary values, so that a call also gets past its first check.
PLAIN = (2, 3, 0.25, 0.5, 100)
scalars = st.sampled_from(EDGE + PLAIN)
sequences = (st.lists(scalars, max_size=4).map(tuple)
             | st.sampled_from(((0.5, 0.5), (0.25, 0.75), (-1.0, 1.0), (7, 3), (1, 2, 3))))
kinds = st.sampled_from(("polynomial", "exponential", "weird", None))

SECONDS = 5.0


def _evidence(counts, theta0, concentration):
    return mdpcal.evidence_bundle(mdpcal.CountVector(counts), theta0, concentration)


def _half_space(support, probs, phi):
    return mdpcal.half_space_rate(mdpcal.TiltedHalfSpace(support, probs, phi))


def _template(rho, kappa, n, w0, w1):
    return mdpcal.analytic_optimum(mdpcal.CalibrationProblem(rho, kappa, n, w0, w1))


# name -> (call, argument strategies)
CALLS = {
    "calibrate_ks": (mdpcal.calibrate_ks, (scalars, scalars)),
    "calibrate_sign": (mdpcal.calibrate_sign, (scalars, scalars)),
    "calibrate_chi2": (mdpcal.calibrate_chi2, (scalars, scalars)),
    "calibrate_contingency": (mdpcal.calibrate_contingency, (scalars, scalars, scalars)),
    "calibrate_fisher": (mdpcal.calibrate_fisher, (scalars, scalars, scalars)),
    "CalibrationProblem": (_template, (scalars,) * 5),
    "chi2_cdf": (mdpcal.chi2_cdf, (scalars, scalars)),
    "chi2_quantile": (mdpcal.chi2_quantile, (scalars, scalars)),
    "kl_bernoulli": (mdpcal.kl_bernoulli, (scalars, scalars)),
    "kl_multinomial": (mdpcal.kl_multinomial, (sequences, sequences)),
    "kolmogorov_cdf": (mdpcal.kolmogorov_cdf, (scalars,)),
    "kolmogorov_quantile": (mdpcal.kolmogorov_quantile, (scalars,)),
    "kolmogorov_sf": (mdpcal.kolmogorov_sf, (scalars,)),
    "normal_cdf": (mdpcal.normal_cdf, (scalars,)),
    "regularized_gamma_p": (mdpcal.regularized_gamma_p, (scalars, scalars)),
    "SampleBatch": (mdpcal.SampleBatch, (sequences,)),
    "CountVector": (mdpcal.CountVector, (sequences,)),
    "TiltedHalfSpace": (_half_space, (sequences, sequences, sequences)),
    "bahadur_slopes": (mdpcal.bahadur_slopes, (scalars,)),
    "distinguishability_radius": (mdpcal.distinguishability_radius,
                                  (scalars, kinds, scalars, scalars)),
    "evidence_bundle": (_evidence, (sequences, sequences, scalars)),
    "PriorSpec": (lambda *args: mdpcal.PriorSpec(*args), (scalars, scalars, scalars)),
    "McConfig": (lambda *args: mdpcal.McConfig(*args),
                 (scalars, scalars, scalars, scalars, sequences)),
}


def _reals(value):
    """Every float in a result, through its tuples, dicts and dataclass fields."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _reals(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _reals(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _reals(getattr(value, f.name))


def _sentinels(name, result):
    """The inf values ``result`` may document: the KS crossing n past float
    range, an infinite KL, and an unreachable or boundary half-space."""
    if name == "calibrate_ks":
        return [result.params["fixed_alpha_crossing_n"]]
    if name in ("kl_bernoulli", "kl_multinomial"):
        return [result]
    if name == "TiltedHalfSpace":
        return [result.rate if result.status == "unreachable" else 0.0,
                result.t_star if result.status in ("unreachable", "boundary-support") else 0.0]
    return []


def _has_nan(args):
    return any(isinstance(v, float) and math.isnan(v) for v in _reals(args))


@given(st.data())
@settings(deadline=None, max_examples=3000)
def test_every_call_is_finite_a_sentinel_or_domain_error(data):
    name = data.draw(st.sampled_from(sorted(CALLS)))
    call, strategies = CALLS[name]
    args = tuple(data.draw(s) for s in strategies)
    start = time.perf_counter()
    try:
        result = call(*args)
    except DomainError:
        result = None
    assert time.perf_counter() - start < SECONDS, (name, args)
    if result is None:
        return
    # kl_multinomial passes a NaN input through to its result.
    if name == "kl_multinomial" and _has_nan(args):
        return
    reals = list(_reals(result))
    sentinels = _sentinels(name, result)
    for value in reals:
        assert math.isfinite(value) or value == math.inf and value in sentinels, (name, args, result)
    if name == "calibrate_ks":
        crossing = result.params["fixed_alpha_crossing_n"]
        assert type(crossing) is int or crossing == math.inf


@pytest.mark.parametrize("bad", [True, np.bool_(True), "2", "0.5", b"2", None], ids=repr)
def test_non_reals_are_domain_errors_even_where_float_takes_them(bad):
    # float() takes True, np.bool_, "2" and b"2"; int() takes True and np.bool_.
    # Each call accepted some of them, or raised TypeError, before.
    problem = mdpcal.CalibrationProblem(1.0, 2.0, 100)
    calls = {
        "CountVector": lambda: mdpcal.CountVector((bad, 3)),
        "TiltedHalfSpace support": lambda: mdpcal.TiltedHalfSpace((0, bad), (0.5, 0.5), (-1, 1)),
        "TiltedHalfSpace probs": lambda: mdpcal.TiltedHalfSpace((0, 1), (bad, 0.5), (-1, 1)),
        "TiltedHalfSpace phi": lambda: mdpcal.TiltedHalfSpace((0, 1), (0.5, 0.5), (bad, 1)),
        "SampleBatch": lambda: mdpcal.SampleBatch((bad, 1.0)),
        "McConfig count": lambda: mdpcal.McConfig(bad, 1, 1, 0, (0.5,)),
        "McConfig seed": lambda: mdpcal.McConfig(1, 1, 1, bad, (0.5,)),
        "McConfig grid": lambda: mdpcal.McConfig(1, 1, 1, 0, (bad, 1.0)),
        "PriorSpec": lambda: mdpcal.PriorSpec(bad),
        "calibrate_sign": lambda: mdpcal.calibrate_sign(bad, 100),
        "calibrate_ks": lambda: mdpcal.calibrate_ks(bad, 100),
        "calibrate_chi2": lambda: mdpcal.calibrate_chi2(3, bad),
        "calibrate_fisher": lambda: mdpcal.calibrate_fisher(bad, 2, 100),
        "bahadur_slopes": lambda: mdpcal.bahadur_slopes(bad),
        "regime_series": lambda: mdpcal.regime_series(problem, [100, 1000], bad),
        "kolmogorov_quantile": lambda: mdpcal.kolmogorov_quantile(bad),
        "kl_bernoulli": lambda: mdpcal.kl_bernoulli(bad, 0.5),
        "kl_multinomial": lambda: mdpcal.kl_multinomial((bad, 0.5), (0.5, 0.5)),
        "estimate_prior_exponent": lambda: mdpcal.estimate_prior_exponent(
            mdpcal.PriorSpec(), (bad,), 10, 0),
    }
    accepted = []
    for name, call in calls.items():
        try:
            call()
        except DomainError:
            continue
        accepted.append(name)
    assert not accepted


def test_numpy_and_fraction_reals_are_accepted():
    report = mdpcal.calibrate_ks(np.float64(2), np.int64(10_000))
    assert report.t_star == mdpcal.calibrate_ks(2.0, 10_000).t_star
    assert mdpcal.calibrate_fisher(Fraction(1, 2), np.int64(2), 100).params["d"] == 2
    assert mdpcal.SampleBatch((np.float32(0.5), Fraction(1, 4), np.int64(3))).values == (
        0.5, 0.25, 3.0)
    assert mdpcal.CountVector((np.int64(7), 3.0, 10**300)).counts == (7, 3, 10**300)
    config = mdpcal.McConfig(np.int64(2), 2, np.float64(3), np.int64(-4), (Fraction(1, 2), 1))
    assert (config.n, config.seed, config.threshold_grid) == (3, -4, (0.5, 1.0))
    assert mdpcal.kl_multinomial((Fraction(1, 2), np.float64(0.5)), (0.5, 0.5)) == 0.0
