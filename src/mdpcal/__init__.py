"""Bayes-risk optimal rejection thresholds for goodness-of-fit tests.

Calibrates GOF tests on the moderate-deviation scale: thresholds grow as
sqrt(a* ln n) with a* = kappa/(4 rho), Type-I error decays as n^(-kappa/2).
"""

from .errors import BracketError, DegenerateSampleError, DomainError
from .risk_core import (CalibrationProblem, RiskCurve, RiskPoint, ThresholdReport,
                        analytic_optimum, default_bracket, numeric_minimiser,
                        optimal_risk_rate, regime_series, template_risk)
from .special_fn import (chi2_cdf, chi2_quantile, kl_bernoulli, kl_multinomial,
                         kolmogorov_cdf, kolmogorov_quantile, kolmogorov_sf,
                         normal_cdf, regularized_gamma_p)
from .gof_stats import (CountVector, SampleBatch, ks_statistic, laplace_lrt,
                        load_batch, normal_vs_laplace_contrast, parse_counts,
                        parse_reals, pearson_chi2, sample_median, sign_count)
from .calibrators import (calibrate_chi2, calibrate_contingency, calibrate_fisher,
                          calibrate_ks, calibrate_sign, emit_tables,
                          plugin_threshold, write_tables)
from .sanov_rates import (BahadurSlopes, DecaySpec, HalfSpaceSolution,
                          TiltedHalfSpace, bahadur_slopes,
                          distinguishability_radius, half_space_rate,
                          load_half_space, mdp_truncation_level)
from .triangulation import MultinomialEvidence, evidence_bundle

__version__ = "0.1.0"

# The Monte-Carlo names live in mc_engine, the only module that needs numpy.
# They are imported on first access (PEP 562) so that the closed-form API and
# CLI never pay for numpy.
_MC_NAMES = ("ExponentFit", "McConfig", "McRiskResult", "McRun", "PriorSpec",
             "estimate_prior_exponent", "fit_power_law", "load_mc_config",
             "load_exponent_config", "mc_bayes_risk", "substream")


def __getattr__(name):
    if name in _MC_NAMES:
        from . import mc_engine
        value = getattr(mc_engine, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MC_NAMES))
