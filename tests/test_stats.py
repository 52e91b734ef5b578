import math

import numpy as np
import pytest
from scipy import stats as sps

from compevo.experiment import _fmt
from compevo.stats import clopper_pearson_interval, proportion_estimate, wilson_interval
from conftest import chi_square_gof, chi_square_two_sample


def test_wilson_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    # tighter at higher trial counts
    lo2, hi2 = wilson_interval(5000, 10000)
    assert hi2 - lo2 < hi - lo


def test_wilson_edges():
    # the endpoints are exact: center - half rounds to 2.7e-20 at 0 of 8192
    for trials in (20, 8192, 10 ** 4):
        lo, hi = wilson_interval(0, trials)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(trials, trials)
        assert hi == 1.0 and lo < 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson_interval(0, 10)
    assert lo == 0.0
    # the standard closed form at zero successes: 1 - (a/2)^(1/n)
    assert hi == pytest.approx(1 - 0.025 ** (1 / 10))
    lo, hi = clopper_pearson_interval(10, 10)
    assert hi == 1.0 and lo == pytest.approx(0.025 ** (1 / 10))


def test_clopper_pearson_matches_scipy_beta_quantiles():
    for trials in (1, 2, 10, 100, 4096, 8192, 10 ** 5, 10 ** 6):
        for s in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
            for confidence in (0.9, 0.95, 0.99):
                a = (1 - confidence) / 2
                lo, hi = clopper_pearson_interval(s, trials, confidence)
                ref_lo = 0.0 if s == 0 else sps.beta.ppf(a, s, trials - s + 1)
                ref_hi = 1.0 if s == trials else sps.beta.ppf(1 - a, s + 1, trials - s)
                assert lo == pytest.approx(ref_lo, rel=1e-8, abs=0), (s, trials, confidence)
                assert hi == pytest.approx(ref_hi, rel=1e-8, abs=0), (s, trials, confidence)


def test_wilson_csv_cells_match_scipy_normal_quantile():
    # the sweep CSV prints ci_low and ci_high with _fmt; the z of
    # statistics.NormalDist and of scipy differ in the last bit at 0.95
    z = sps.norm.ppf(0.975)
    for trials in (4096, 8192):
        for s in range(trials + 1):
            phat = s / trials
            denom = 1 + z * z / trials
            center = (phat + z * z / (2 * trials)) / denom
            half = z / denom * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials ** 2))
            est = proportion_estimate(s, trials, 0)
            assert _fmt(est.ci_low) == _fmt(min(max(center - half, 0.0), phat)), (s, trials)
            assert _fmt(est.ci_high) == _fmt(max(min(center + half, 1.0), phat)), (s, trials)


def test_clopper_pearson_contains_wilson_roughly():
    # exact interval is conservative: at least as wide as Wilson here
    wl, wh = wilson_interval(30, 100)
    cl, ch = clopper_pearson_interval(30, 100)
    assert ch - cl >= wh - wl - 1e-12


def test_proportion_estimate():
    est = proportion_estimate(25, 100, seed=7)
    assert est.point == 0.25
    assert est.ci_low <= est.point <= est.ci_high
    assert est.trials == 100 and est.seed == 7
    with pytest.raises(ValueError):
        proportion_estimate(1, 10, 0, method="nope")


def test_proportion_estimate_clopper():
    est = proportion_estimate(0, 50, 0, method="clopper-pearson")
    assert est.point == 0.0 and est.ci_low == 0.0 and est.ci_high > 0.0


def test_chi_square_gof():
    rng = np.random.default_rng(11)
    draws = rng.integers(0, 4, size=10 ** 4)
    counts = np.bincount(draws, minlength=4)
    stat, p = chi_square_gof(counts, np.full(4, 0.25))
    assert p > 1e-4
    # mass observed in a zero-probability cell is an immediate reject
    stat, p = chi_square_gof([10, 10, 1], [0.5, 0.5, 0.0])
    assert p == 0.0 and math.isinf(stat)
    stat, p = chi_square_gof([10, 10, 0], [0.5, 0.5, 0.0])
    assert p > 0.5


def test_chi_square_two_sample():
    rng = np.random.default_rng(12)
    a = np.bincount(rng.integers(0, 5, size=10 ** 4), minlength=5)
    b = np.bincount(rng.integers(0, 5, size=10 ** 4), minlength=5)
    _, p = chi_square_two_sample(a, b)
    assert p > 1e-4
    c = np.bincount(rng.choice(5, p=[0.4, 0.3, 0.1, 0.1, 0.1], size=10 ** 4))
    _, p = chi_square_two_sample(a, c)
    assert p < 1e-6
