"""Summary statistics, confidence intervals, pooled t-test, Fisher's exact test.

The pooled two-sample t-test assumes unknown identical variances; its
two-sided p-value comes from the regularized incomplete beta function.
Fisher's two-sided p sums, over all 2x2 tables with the observed margins,
the hypergeometric probabilities that do not exceed the observed table's
(with a 1+1e-7 slack factor against floating-point ties). The odds ratio
is the unconditional sample ratio a*d/(b*c).

The bootstrap draws its resamples in chunks of max(1, CHUNK_INDICES // n)
from one seeded generator; one integers(size=(k, n)) call consumes the
stream exactly as k calls of size n do, and each mean is still taken over
one resample's gathered values, so the intervals are bit-identical to
drawing and averaging one resample at a time.

The stats command bootstraps the tumor regions U, R and G only. N, the
reference region, is read by no decision, and over its many voxels the
percentile interval of the mean is the normal interval plus Monte Carlo
noise (Efron & Tibshirani 1993, ch. 13), so N keeps its normal interval
alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .grids import ValidationError

# resample indices drawn per chunk: each chunk is about 1 MB of int64
# indices, and small samples still get few generator calls
CHUNK_INDICES = 2 ** 17


@dataclass(frozen=True)
class SummaryStats:
    """Sample count, mean, and sample standard deviation (n-1 denominator)."""

    n: int
    mean: float
    sd: float

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.sd < 0:
            raise ValidationError(f"sd must be >= 0, got {self.sd}")


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    level: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValidationError(f"interval bounds out of order: {self.lo} > {self.hi}")
        if not 0 < self.level < 1:
            raise ValidationError(f"confidence level must be in (0,1), got {self.level}")


@dataclass(frozen=True)
class Contingency2x2:
    """Counts with rows = hypothesis satisfied / not, columns = PR / not PR."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValidationError("contingency counts must be non-negative")
        if self.total == 0:
            raise ValidationError("contingency table is empty")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def summarize(samples) -> SummaryStats:
    """n, mean, and sample sd of a non-empty collection; a single sample
    yields sd=0."""
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("samples contain non-finite values")
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return SummaryStats(int(arr.size), float(arr.mean()), sd)


def normal_ci(stats: SummaryStats, level: float = 0.95) -> Interval:
    """Large-sample interval mean +/- z * sd / sqrt(n)."""
    if stats.n < 2:
        raise ValidationError("normal_ci needs n >= 2")
    z = float(special.ndtri(0.5 + level / 2.0))
    half = z * stats.sd / math.sqrt(stats.n)
    return Interval(stats.mean - half, stats.mean + half, level)


def bootstrap_ci(samples, b: int = 1000, level: float = 0.95, seed: int = 0) -> Interval:
    """Percentile bootstrap interval for the mean.

    Draws b resamples with replacement of size n and takes the (alpha/2,
    1-alpha/2) empirical quantiles of the resample means. Deterministic for
    a fixed seed.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("cannot bootstrap an empty sample")
    if b < 100:
        raise ValidationError(f"resample count must be >= 100, got {b}")
    rng = np.random.default_rng(seed)
    n = arr.size
    k = max(1, CHUNK_INDICES // n)
    means = np.empty(b, dtype=np.float64)
    for start in range(0, b, k):
        indices = rng.integers(0, n, size=(min(k, b - start), n))
        for j, row in enumerate(indices):
            means[start + j] = arr[row].mean()
    alpha = 1.0 - level
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return Interval(float(lo), float(hi), level)


def _t_two_sided_p(t: float, df: int) -> float:
    x = df / (df + t * t)
    return float(special.betainc(df / 2.0, 0.5, x))


def pooled_t_test(x: SummaryStats, y: SummaryStats) -> tuple[float, float]:
    """Student's two-sample t-test with pooled variance.

    Returns (t, two-sided p). The sign follows x.mean - y.mean, so the
    matrix of pairwise statistics is skew-symmetric.
    """
    if x.n < 2 or y.n < 2:
        raise ValidationError("pooled_t_test needs n >= 2 in both samples")
    df = x.n + y.n - 2
    pooled_var = ((x.n - 1) * x.sd ** 2 + (y.n - 1) * y.sd ** 2) / df
    if pooled_var == 0:
        if x.mean == y.mean:
            raise ValidationError("degenerate variance with equal means")
        return (math.copysign(math.inf, x.mean - y.mean), 0.0)
    t = (x.mean - y.mean) / math.sqrt(pooled_var * (1.0 / x.n + 1.0 / y.n))
    if t == 0:
        return (0.0, 1.0)
    return (t, _t_two_sided_p(t, df))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def hypergeom_pmfs(table: Contingency2x2) -> tuple[np.ndarray, np.ndarray, int]:
    """Probabilities of every table sharing the observed margins.

    Returns (support values of the a-cell, their probabilities, index of the
    observed a). The probabilities sum to 1 up to rounding; callers relying
    on that should check it (fisher_exact does, to 1e-9).
    """
    r1 = table.a + table.b
    r2 = table.c + table.d
    c1 = table.a + table.c
    n = table.total
    kmin = max(0, c1 - r2)
    kmax = min(r1, c1)
    ks = np.arange(kmin, kmax + 1)
    logden = _log_comb(n, c1)
    logs = np.array([_log_comb(r1, k) + _log_comb(r2, c1 - k) - logden for k in ks])
    return ks, np.exp(logs), int(table.a - kmin)


def fisher_exact(table: Contingency2x2) -> tuple[float, float]:
    """Sample odds ratio and two-sided exact p for a 2x2 table.

    When b*c == 0 the odds ratio is +inf, or nan when a*d == 0 as well
    (0/0, as scipy.stats.fisher_exact reports it); the p-value is still
    computed.
    """
    ks, pmf, obs = hypergeom_pmfs(table)
    mass = float(pmf.sum())
    if abs(mass - 1.0) > 1e-9:
        raise ValidationError(f"hypergeometric mass {mass} deviates from 1")
    included = pmf <= pmf[obs] * (1.0 + 1e-7)
    p = 1.0 if included.all() else min(float(pmf[included].sum()), 1.0)
    if table.b * table.c == 0:
        odds = math.inf if table.a * table.d else math.nan
    else:
        odds = (table.a * table.d) / (table.b * table.c)
    return (odds, p)


def record(test: str, inputs: dict, statistic: float, p: float | None = None,
           interval: list[float] | None = None) -> dict:
    """One entry of a report's `records` list: a test's name, its inputs,
    statistic, p-value and interval (None where the test has none)."""
    return {"test": test, "inputs": inputs, "statistic": statistic,
            "p": p, "interval": interval}
