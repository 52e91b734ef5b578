"""Binomial confidence intervals for Monte Carlo output, from the standard library.

Wilson (1927) takes z from ``statistics.NormalDist``.  Clopper & Pearson, Biometrika 26
(1934), take beta quantiles bisected on the regularized incomplete beta I_x(a, b): its
prefactor from ``math.lgamma``, its continued fraction (Press et al., Numerical Recipes,
3rd ed., section 6.4) by modified Lentz.
"""

import math
from statistics import NormalDist

from .core import EstimateResult


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, exact at 0 and at ``trials`` successes."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (0.0 if successes == 0 else max(center - half, 0.0),
            1.0 if successes == trials else min(center + half, 1.0))


def clopper_pearson_interval(successes: int, trials: int,
                             confidence: float = 0.95) -> tuple[float, float]:
    """Exact (conservative) binomial interval from beta quantiles."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a = (1.0 - confidence) / 2.0
    lo = 0.0 if successes == 0 else _beta_ppf(a, successes, trials - successes + 1)
    hi = 1.0 if successes == trials else _beta_ppf(1 - a, successes + 1, trials - successes)
    return lo, hi


def _beta_ppf(q: float, a: float, b: float) -> float:
    """The x with I_x(a, b) = q, bisected until lo and hi are adjacent floats."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _beta_cdf(mid, a, b) < q else (lo, mid)
    return mid


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1 and a, b >= 1."""
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast below the mean only
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    return math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x)
                    + b * math.log1p(-x)) * _beta_fraction(x, a, b) / a


def _beta_fraction(x: float, a: float, b: float) -> float:
    """The continued fraction of I_x(a, b) below the mean, by modified Lentz."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1))  # x < (a + 1) / (a + b): d > 0
    h = d
    for m in range(1, 1 << 20):  # about sqrt(max(a, b)): 417 at 10^6 trials, 1830 at 10^8
        # the even term d_2m, then the odd term d_2m+1
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h *= d * c
        if abs(d * c - 1.0) < 2.0 ** -52:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


INTERVALS = {"wilson": wilson_interval, "clopper-pearson": clopper_pearson_interval}


def proportion_estimate(successes: int, trials: int, seed: int,
                        confidence: float = 0.95, method: str = "wilson") -> EstimateResult:
    if method not in INTERVALS:
        raise ValueError(f"unknown interval method {method!r}")
    lo, hi = INTERVALS[method](successes, trials, confidence)
    phat = successes / trials
    return EstimateResult(point=phat, ci_low=min(lo, phat), ci_high=max(hi, phat),
                          trials=trials, seed=seed, confidence=confidence)
