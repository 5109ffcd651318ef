"""Goodness-of-fit test statistics computed from raw samples.

Covers the statistics the calibrators put thresholds on: the Kolmogorov-Smirnov
statistic against a reference CDF, Pearson chi-squared for count data, the sign
count and sample median, the one-sided Laplace location LRT, and the
normal-versus-Laplace log-evidence contrast.  ``ks_rows`` and ``sign_rows`` are
the numpy row kernels of KS and sign, which ``mc_engine`` runs too; they load
numpy on first call, and ``ks_statistic`` and ``sign_count`` are one-row calls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .errors import (DegenerateSampleError, DomainError, all_real, require_count,
                     require_finite, require_reals)
from .special_fn import check_simplex


@dataclass(frozen=True)
class SampleBatch:
    """An i.i.d. sample with a cached sorted copy for order statistics."""

    values: tuple[float, ...]
    sorted_values: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        values = require_reals("sample values", self.values)
        if not values:
            raise DomainError("sample batch must be nonempty")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sorted_values", tuple(sorted(values)))

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CountVector:
    """Multinomial counts over k >= 2 categories."""

    counts: tuple[int, ...]

    def __post_init__(self):
        given = tuple(self.counts)
        try:
            counts = tuple(map(int, given)) if all_real(given) else None
        except (ValueError, OverflowError):  # NaN, inf
            counts = None
        if counts != given:  # fractions and values that are not reals
            raise DomainError("counts must be integers")
        if len(counts) < 2:
            raise DomainError(f"need at least 2 categories, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise DomainError("counts must be nonnegative")
        require_count("total count", sum(counts), 1)
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def proportions(self) -> tuple[float, ...]:
        n = self.n
        return tuple(c / n for c in self.counts)


def _validate_simplex(p0: Sequence[float], k: int) -> tuple[float, ...]:
    p0 = check_simplex(p0)
    if len(p0) != k:
        raise DomainError(f"dimension mismatch: {len(p0)} probabilities for {k} categories")
    return p0


def ks_rows(u):
    """Order-statistic sup_t |F_n(t) - F0(t)| per row of u = F0(sorted sample); ties are fine."""
    import numpy as np
    n = u.shape[-1]
    i = np.arange(1, n + 1)
    return np.maximum(np.max(i / n - u, axis=-1), np.max(u - (i - 1) / n, axis=-1))


def sign_rows(x):
    """Number of strictly positive entries in each row of ``x``."""
    import numpy as np
    return np.count_nonzero(x > 0, axis=-1)


def ks_statistic(batch: SampleBatch, f0: Callable[[float], float]) -> float:
    """``ks_rows`` on the one row F0(sorted sample); DomainError if F0 leaves [0, 1]."""
    import numpy as np
    u = np.fromiter(map(f0, batch.sorted_values), float, batch.n)
    if not ((u >= 0.0) & (u <= 1.0)).all():
        raise DomainError("the reference CDF must take values in [0, 1]")
    return float(ks_rows(u))


def pearson_chi2(counts: CountVector, p0: Sequence[float]) -> float:
    """Pearson statistic sum_j (N_j - n p0_j)^2 / (n p0_j)."""
    p0 = _validate_simplex(p0, counts.k)
    n = counts.n
    try:
        return require_finite("Pearson statistic",
                              sum((c - n * q) ** 2 / (n * q) for c, q in zip(counts.counts, p0)))
    except OverflowError:  # a square past float range
        raise DomainError("Pearson statistic is past float range") from None


def sign_count(batch: SampleBatch) -> int:
    """Number of strictly positive observations: ``sign_rows`` on one row."""
    import numpy as np
    return int(sign_rows(np.fromiter(batch.values, float, batch.n)))


def sample_median(batch: SampleBatch) -> float:
    """Middle order statistic; the two central ones are averaged for even n."""
    s = batch.sorted_values
    n = batch.n
    mid = n // 2
    if n % 2:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


def laplace_lrt(batch: SampleBatch) -> float:
    """One-sided Laplace location log-LRT: sum|x| - sum|x - theta_hat|.

    The constrained MLE is theta_hat = max(0, median), so the statistic is
    nonnegative and vanishes whenever the median is <= 0.
    """
    theta = max(0.0, sample_median(batch))
    if theta == 0.0:
        return 0.0
    return max(0.0, sum(abs(x) - abs(x - theta) for x in batch.values))


def normal_vs_laplace_contrast(batch: SampleBatch) -> float:
    """Normal-vs-Laplace likelihood contrast n*ln(sigma/b) + (n/2)*ln(2 pi) - n/2.

    sigma is the MLE standard deviation (divisor n) and b the mean absolute
    deviation from the sample median (the Laplace scale MLE), so the contrast
    is location- and scale-invariant.
    """
    n = batch.n
    if n < 2:
        raise DomainError(f"contrast needs n >= 2, got {n}")
    mean = sum(batch.values) / n
    sigma = math.sqrt(sum((x - mean) ** 2 for x in batch.values) / n)
    b = sum(abs(x - sample_median(batch)) for x in batch.values) / n
    if sigma == 0.0 or b == 0.0:
        raise DegenerateSampleError("sample has no dispersion")
    return n * math.log(sigma / b) + 0.5 * n * math.log(2.0 * math.pi) - 0.5 * n


def load_batch(path: str | Path) -> SampleBatch:
    """Read a batch from a newline-delimited numeric file or one-column CSV.

    A non-numeric first row is treated as a header and skipped.
    """
    rows = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record or not record[0].strip():
                continue
            rows.append(record[0].strip())
    if not rows:
        raise DomainError(f"no data in {path}")
    try:
        float(rows[0])
    except ValueError:
        rows = rows[1:]
    try:
        values = tuple(map(float, rows))
    except ValueError as exc:
        raise DomainError(f"non-numeric entry in {path}: {exc}") from None
    return SampleBatch(values)


def parse_counts(text: str) -> CountVector:
    """Parse comma-separated integer counts, e.g. '7,3'."""
    try:
        return CountVector(tuple(int(tok) for tok in text.split(",")))
    except ValueError:
        raise DomainError(f"counts must be comma-separated integers, got {text!r}") from None


def parse_reals(text: str) -> tuple[float, ...]:
    """Parse comma-separated reals, e.g. '0.5,0.5'."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise DomainError(f"expected comma-separated reals, got {text!r}") from None
