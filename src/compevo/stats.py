"""Confidence intervals and goodness-of-fit helpers for Monte Carlo output."""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as sps

from .core import EstimateResult


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = sps.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(center - half, 0.0), min(center + half, 1.0)


def clopper_pearson_interval(successes: int, trials: int,
                             confidence: float = 0.95) -> tuple[float, float]:
    """Exact (conservative) binomial interval from beta quantiles."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a = (1.0 - confidence) / 2.0
    lo = 0.0 if successes == 0 else float(sps.beta.ppf(a, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(sps.beta.ppf(1 - a, successes + 1, trials - successes))
    return lo, hi


INTERVALS = {"wilson": wilson_interval, "clopper-pearson": clopper_pearson_interval}


def proportion_estimate(successes: int, trials: int, seed: int,
                        confidence: float = 0.95, method: str = "wilson") -> EstimateResult:
    if method not in INTERVALS:
        raise ValueError(f"unknown interval method {method!r}")
    lo, hi = INTERVALS[method](successes, trials, confidence)
    phat = successes / trials
    return EstimateResult(point=phat, ci_low=min(lo, phat), ci_high=max(hi, phat),
                          trials=trials, seed=seed, confidence=confidence)


def mean_estimate(values: np.ndarray, seed: int, confidence: float = 0.95) -> EstimateResult:
    """Normal-theory interval for a sample mean."""
    values = np.asarray(values, dtype=float)
    trials = values.shape[0]
    m = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    z = sps.norm.ppf(0.5 + confidence / 2.0)
    return EstimateResult(point=m, ci_low=m - z * se, ci_high=m + z * se,
                          trials=trials, seed=seed, confidence=confidence)


def chi_square_gof(observed: np.ndarray, expected_probs: np.ndarray) -> tuple[float, float]:
    """One-sample chi-square against given cell probabilities; (stat, p-value)."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected_probs, dtype=float) * observed.sum()
    keep = expected > 0
    if not np.all(observed[~keep] == 0):
        return math.inf, 0.0
    stat, p = sps.chisquare(observed[keep], expected[keep])
    return float(stat), float(p)


def chi_square_two_sample(counts_a: np.ndarray, counts_b: np.ndarray) -> tuple[float, float]:
    """Two-sample chi-square homogeneity test over a shared support."""
    table = np.vstack([np.asarray(counts_a, float), np.asarray(counts_b, float)])
    keep = table.sum(axis=0) > 0
    stat, p, _, _ = sps.chi2_contingency(table[:, keep])
    return float(stat), float(p)


def poisson_total_variation(counts: np.ndarray, mean: float) -> float:
    """TV distance between the empirical law of counts and Poisson(mean)."""
    counts = np.asarray(counts)
    hi = max(int(counts.max(initial=0)), int(math.ceil(mean + 10 * math.sqrt(mean + 1))))
    support = np.arange(hi + 1)
    emp = np.bincount(counts, minlength=hi + 1) / counts.shape[0]
    pois = sps.poisson.pmf(support, mean)
    return 0.5 * (float(np.abs(emp - pois).sum()) + float(1.0 - pois.sum()))
