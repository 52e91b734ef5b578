import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from compevo import theory
from compevo.core import GuardExceeded, UnsupportedProperty
from compevo.oracle import (enumerate_uniform, exact_prob_geometric_consecutive,
                            exact_prob_uniform, iter_uniform, negbin_log_pmf,
                            window_prob_geometric)
from compevo.patterns import parse_pattern
from compevo.properties import Property

GOLDEN = Path(__file__).parent / "golden_uniform.json"


def test_enumeration_counts_and_order():
    comps = list(iter_uniform(3, 2))
    assert len(comps) == 6
    assert comps[0] == (0, 0, 2)
    assert comps == sorted(comps)
    assert set(len(c) for c in comps) == {3}
    assert all(sum(c) == 2 for c in comps)
    assert list(iter_uniform(1, 5)) == [(5,)]
    assert list(iter_uniform(4, 0)) == [(0, 0, 0, 0)]


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        enumerate_uniform(30, 30)


def test_exact_prob_uniform_examples():
    r = exact_prob_uniform(3, 2, Property("contains", spec="e:[1,1]").holds)
    assert r.rational == Fraction(1, 3)
    assert exact_prob_uniform(3, 2, Property("cmax_ge", {"k": 1}).holds).rational == 1
    assert exact_prob_uniform(2, 2, Property("carlitz").holds).rational == Fraction(2, 3)


def test_golden_rationals_recompute_exactly():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 20
    for case in cases:
        prop = Property(case["statistic"], case["params"], spec=case["pattern"])
        r = exact_prob_uniform(case["n"], case["m"], prop.holds)
        assert str(r.rational) == case["probability"], case


def _brute_geometric(n, p, prop, V=25):
    # full grid over {0..V}^n; truncation error is bounded by n * p^(V+1)
    grid = np.indices((V + 1,) * n).reshape(n, -1).T
    weights = (1 - p) ** n * p ** grid.sum(axis=1, dtype=np.float64)
    return float(weights[prop.holds_batch(grid)].sum())


def test_dp_matches_mask_enumeration():
    # cmax >= 2 at n=3: allowed zero/nonzero masks with no adjacent nonzero
    # are {000, 100, 010, 001, 101}; the DP must give the complement mass
    p, q = 0.5, 0.5
    allowed = q ** 3 + 2 * p * q * q + p * q * q + p * q * p
    res = exact_prob_geometric_consecutive(3, 0.5, ("cmax_ge", {"k": 2}))
    assert res.lo == res.hi == pytest.approx(1 - allowed)


@pytest.mark.parametrize("statistic,params", [
    ("cmax_ge", {"k": 2}), ("gmax_ge", {"k": 2}),
    ("cmin_gt", {"k": 1}), ("gmin_gt", {"k": 1}),
])
def test_run_dp_against_brute_force(statistic, params):
    for n, p in [(3, 0.5), (4, 0.3)]:
        res = exact_prob_geometric_consecutive(n, p, (statistic, params))
        ref = _brute_geometric(n, p, Property(statistic, params))
        assert res.lo == pytest.approx(ref, abs=1e-7)
        assert res.width == 0.0


@pytest.mark.parametrize("text", ["e:[0,0]", "e:[1,1]", "u:[2,1]", "l:[0,1]", "e:[2,0,2]"])
def test_pattern_dp_against_brute_force(text):
    spec = parse_pattern(text)
    for n, p in [(4, 0.5), (3, 0.3)]:
        res = exact_prob_geometric_consecutive(n, p, spec)
        ref = _brute_geometric(n, p, Property("contains", spec=spec), V=30)
        assert res.lo == pytest.approx(ref, abs=1e-7)
        assert res.width == 0.0


def test_zero_pattern_is_exact_product():
    res = exact_prob_geometric_consecutive(2, 0.5, parse_pattern("e:[0,0]"))
    assert res.lo == res.hi == pytest.approx(0.25)


def test_truncated_properties_bracket_brute_force():
    for statistic, params in [("equal_run", {"k": 2, "nonzero": True}),
                              ("carlitz", {}), ("any_square", {})]:
        res = exact_prob_geometric_consecutive(4, 0.5, (statistic, params))
        ref = _brute_geometric(4, 0.5, Property(statistic, params), V=28)
        tail = 4 * 0.5 ** 29
        assert res.lo - tail <= ref <= res.hi + tail
        assert res.width <= 1e-9 + 1e-12


def test_any_square_side_cap_brackets_brute_force():
    # at n = 5, p = 0.2 the side cap is 3: squares of side 4 and 5 are left
    # to the tail bound and values above 3 share one class
    res = exact_prob_geometric_consecutive(5, 0.2, ("any_square", {}))
    ref = _brute_geometric(5, 0.2, Property("any_square"), V=14)
    tail = 5 * 0.2 ** 15
    assert res.lo - tail <= ref <= res.hi + tail
    assert 0.0 < res.width <= 1e-9


def test_interval_width_shrinks_with_cap():
    wide = exact_prob_geometric_consecutive(50, 0.6, ("carlitz", {}), width=1e-3)
    tight = exact_prob_geometric_consecutive(50, 0.6, ("carlitz", {}), width=1e-9)
    assert tight.width < wide.width
    assert wide.lo - 1e-12 <= tight.lo and tight.hi <= wide.hi + 1e-12


def test_closed_forms_match_dp():
    # tmax / tmin via the oracle equal the theory module formulas
    res = exact_prob_geometric_consecutive(10, 0.4, ("tmax_ge", {"r": 2}))
    assert res.lo == pytest.approx(1 - theory.prob_tmax_lt(10, 0.4, 2).value)
    res = exact_prob_geometric_consecutive(5, 0.7, ("tmin_ge", {"r": 2}))
    assert res.lo == pytest.approx(theory.prob_tmin_ge(5, 0.7, 2).value)


def test_square_statistic_via_pattern():
    res = exact_prob_geometric_consecutive(4, 0.5, ("square", {"k": 2}))
    ref = _brute_geometric(4, 0.5, Property("square", {"k": 2}))
    assert res.lo == pytest.approx(ref, abs=1e-7)


# 40-digit values of the three criterion-6 queries at n = 2*10^4, from the
# independent mpmath transfer-matrix chains of perfbench/make_references.py
N6 = 2 * 10 ** 4
REFERENCE_40_DIGITS = {
    "cmax_ge": 0.629537438197328475969447374112,
    "e:[1,1]": 0.624334795430670007874934647693,
    "cmin_gt": 0.367870796382769106158873255913,
}


def _poisson_case(name, n):
    """(p, oracle form, Poisson limit at alpha = 1) at the scale n^(-1/2)."""
    s = n ** -0.5
    e11 = parse_pattern("e:[1,1]")
    limit = {"cmax_ge": theory.poisson_limit("cmax_ge", {"k": 2}, 1.0).prob_some(),
             "e:[1,1]": theory.poisson_limit("exact_consec", {"spec": e11}, 1.0).prob_some(),
             "cmin_gt": theory.poisson_limit("cmin_gt", {"k": 1}, 1.0).prob_none()}
    return {"cmax_ge": (s, ("cmax_ge", {"k": 2})),
            "e:[1,1]": (s, e11),
            "cmin_gt": (1.0 - s, ("cmin_gt", {"k": 1}))}[name] + (limit[name],)


@pytest.mark.parametrize("name", REFERENCE_40_DIGITS)
def test_exact_forms_match_40_digit_values(name):
    p, form, _ = _poisson_case(name, N6)
    res = exact_prob_geometric_consecutive(N6, p, form)
    assert res.width == 0.0
    assert abs(res.lo - REFERENCE_40_DIGITS[name]) <= 1e-12


@pytest.mark.parametrize("name", REFERENCE_40_DIGITS)
def test_exact_forms_reach_the_poisson_limit(name):
    # at n = 10^8 the finite-n values lie 3.7e-5, 1.1e-4 and 1.3e-9 from the limit
    p, form, limit = _poisson_case(name, 10 ** 8)
    res = exact_prob_geometric_consecutive(10 ** 8, p, form)
    assert abs(res.lo - limit) <= 5e-4


def test_unsupported_properties():
    with pytest.raises(UnsupportedProperty):
        exact_prob_geometric_consecutive(5, 0.5, parse_pattern("o:[0,1]"))
    with pytest.raises(UnsupportedProperty):
        exact_prob_geometric_consecutive(5, 0.5, parse_pattern("e:1,1"))
    with pytest.raises(UnsupportedProperty):
        exact_prob_geometric_consecutive(5, 0.5, ("equal_terms", {"k": 2}))


def test_window_enumeration_matches_formulas():
    for text, p in [("e:[2,0,2]", 0.5), ("o:[0,1,2]", 0.5), ("o:[0,1,0]", 0.3),
                    ("u:[1,1]", 0.4), ("l:[0,2]", 0.6)]:
        spec = parse_pattern(text)
        res = window_prob_geometric(spec, p)
        if text.startswith("e"):
            want = theory.prob_exact_consecutive_at_position(spec, p).value
        elif text.startswith("o"):
            want = theory.prob_ordering_at_position(spec, p).value
        else:
            want = _brute_geometric(spec.length, p,
                                    Property("contains", spec=spec), V=30)
        assert res.lo - 1e-9 <= want <= res.hi + 1e-9


def test_conditional_identity_with_negative_binomial():
    # summing geometric weights over the size-m slice and dividing by the
    # size pmf recovers the uniform probability, for any p
    for p in (0.3, 0.7):
        for n, m in [(3, 2), (4, 3)]:
            prop = Property("contains", spec="e:[1,1]")
            q = 1 - p
            joint = sum(p ** m * q ** n for c in iter_uniform(n, m) if prop.holds(c))
            cond = joint / math.exp(negbin_log_pmf(n, p, m))
            assert cond == pytest.approx(float(exact_prob_uniform(n, m, prop.holds).rational))
