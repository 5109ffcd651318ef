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

from .errors import require_positive
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


def _dirichlet_log_marginal(counts: CountVector, concentration: float) -> float:
    # Ordered-sequence marginal likelihood under a symmetric Dirichlet prior:
    # multinomial coefficients cancel against the null sequence likelihood.
    k, n = counts.k, counts.n
    out = math.lgamma(k * concentration) - math.lgamma(k * concentration + n)
    for c in counts.counts:
        out += math.lgamma(concentration + c) - math.lgamma(concentration)
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

    d_kl = kl_multinomial(p_hat, theta0)
    cross_term = sum((p - t) * math.log(t) for p, t in zip(p_hat, theta0))
    null_loglik = sum(c * math.log(t) for c, t in zip(counts.counts, theta0))

    return MultinomialEvidence(
        counts=counts,
        theta0=theta0,
        d_kl=d_kl,
        w_good=n * d_kl + 0.5 * (k - 1) * log_n,
        w_exact=_dirichlet_log_marginal(counts, prior_concentration) - null_loglik,
        lambda_n=2.0 * n * d_kl,
        pearson=pearson_chi2(counts, theta0),
        entropy_deficit=_entropy(theta0) - _entropy(p_hat),
        cross_term=cross_term,
    )


def wilks_gap(counts: CountVector, theta0) -> float:
    """Closure residual lambda_n - pearson, which is o_P(1) near the null."""
    bundle = evidence_bundle(counts, theta0)
    return bundle.lambda_n - bundle.pearson
