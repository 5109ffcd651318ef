"""Evidence triangulation for multinomial counts.

One count vector yields five evidence measures tied together by exact
identities: the KL divergence D(p_hat || theta0), the lambda_n = 2 n D
likelihood-ratio statistic, the Pearson chi-squared, the entropy deficit
(equal to D plus a cross term, exactly), and Good-style weight of evidence
n D + ((k-1)/2) ln n.  The exact Dirichlet log Bayes factor is reported
alongside as an independent reference; the two deliberately disagree in the
sign of the complexity term and no identity between them is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_finite, require_positive
from .gof_stats import CountVector, pearson_chi2, _validate_simplex
from .special_fn import kl_multinomial


@dataclass(frozen=True)
class MultinomialEvidence:
    """All five evidence measures for one count vector against a simple null."""

    counts: CountVector
    theta0: tuple[float, ...]
    d_kl: float
    w_good: float
    w_exact: float
    lambda_n: float
    pearson: float
    entropy_deficit: float
    cross_term: float


def _entropy(p) -> float:
    return -sum(v * math.log(v) for v in p if v > 0.0)


# Above this many observations the lgamma terms of w_exact (each ~ c ln c)
# cancel below their own rounding error, so the Stirling-difference form is used.
_STIRLING_MIN_N = 10**5
_LN_2PI = math.log(2.0 * math.pi)


def _stirling_rest(z: float) -> float:
    # lgamma(z) minus its Stirling main part (z - 1/2) ln z - z + ln(2 pi)/2;
    # from z = 20 on by its asymptotic series, truncated below 2e-15.
    if z < 20.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + 0.5 * _LN_2PI)
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z


def _log_bayes_factor(counts: CountVector, theta0, concentration: float) -> float:
    # Ordered-sequence marginal likelihood under a symmetric Dirichlet prior
    # over the null sequence likelihood: multinomial coefficients cancel.
    k, n = counts.k, counts.n
    total = k * concentration + n
    if n <= _STIRLING_MIN_N:
        out = math.lgamma(k * concentration) - math.lgamma(total)
        for c in counts.counts:
            out += math.lgamma(concentration + c) - math.lgamma(concentration)
        return out - sum(c * math.log(t) for c, t in zip(counts.counts, theta0))
    # Stirling difference, with a the concentration and q_j = (a + c_j) / (k a + n):
    # the z ln z - z parts of the lgamma terms cancel analytically into
    #   sum_j c_j ln(q_j / theta_j) + (a - 1/2) sum_j ln q_j
    #   - ((k - 1)/2) ln((k a + n) / (2 pi)),
    # and each lgamma keeps only its small Stirling rest.
    out = (math.lgamma(k * concentration) - k * math.lgamma(concentration)
           + 0.5 * (k - 1) * (_LN_2PI - math.log(total)) - _stirling_rest(total))
    for c, t in zip(counts.counts, theta0):
        z = concentration + c
        q = z / total
        out += c * math.log(q / t) + (concentration - 0.5) * math.log(q) + _stirling_rest(z)
    return out


def evidence_bundle(counts: CountVector, theta0, prior_concentration: float = 1.0) -> MultinomialEvidence:
    """Compute every evidence measure for ``counts`` against the null ``theta0``.

    ``prior_concentration`` is the symmetric Dirichlet parameter behind the
    exact Bayes factor; both the marginal and the null likelihood are for the
    ordered sequence.
    """
    theta0 = _validate_simplex(theta0, counts.k)
    require_positive("Dirichlet concentration", prior_concentration)

    n, k = counts.n, counts.k
    p_hat = counts.proportions
    log_n = math.log(n)

    d_kl = require_finite("d_kl", kl_multinomial(p_hat, theta0))
    cross_term = sum((p - t) * math.log(t) for p, t in zip(p_hat, theta0))
    try:
        w_exact = _log_bayes_factor(counts, theta0, float(prior_concentration))
    except (OverflowError, ValueError):  # lgamma past float range, or some q_j = 0
        raise DomainError("the exact Bayes factor leaves float range") from None
    return MultinomialEvidence(
        counts=counts,
        theta0=theta0,
        d_kl=d_kl,
        w_good=require_finite("w_good", n * d_kl + 0.5 * (k - 1) * log_n),
        w_exact=require_finite("w_exact", w_exact),
        lambda_n=require_finite("lambda_n", 2.0 * n * d_kl),
        pearson=pearson_chi2(counts, theta0),
        entropy_deficit=_entropy(theta0) - _entropy(p_hat),
        cross_term=cross_term,
    )
