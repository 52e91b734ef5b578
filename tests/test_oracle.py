import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from compevo import theory
from compevo.core import GuardExceeded, PatternKind, UnsupportedProperty
from compevo.oracle import (DEFAULT_WIDTH, TRANSFER_GUARD, Automaton,
                            exact_prob_geometric_consecutive, exact_prob_uniform, iter_uniform,
                            negbin_log_pmf, transfer, window_prob_geometric)
from compevo.patterns import parse_pattern
from compevo.properties import STATISTICS, Property
from conftest import PROPERTIES

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
        exact_prob_uniform(30, 30, lambda c: True)


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


def test_every_geometric_oracle_brackets_brute_force():
    # every row with an oracle form, the consecutive e/u/l pattern rows among
    # them; brute force misses the mass of terms above V, at most n * p^(V+1)
    props = [prop for prop in PROPERTIES if prop.oracle_form() is not None]
    assert ({sid for sid, row in STATISTICS.items() if row.oracle_form is not None}
            <= {prop.statistic_id for prop in props})
    for n, p in [(3, 0.5), (4, 0.3)]:
        tail = n * p ** 26
        for prop in props:
            res = exact_prob_geometric_consecutive(n, p, prop.oracle_form())
            ref = _brute_geometric(n, p, prop, V=25)
            assert res.lo - tail - 1e-12 <= ref <= res.hi + 1e-12, (prop, n, p, res, ref)
            assert res.width <= DEFAULT_WIDTH + 1e-12, (prop, n, p, res)


@pytest.mark.parametrize("text", ["e:[0,0]", "e:[1,1]", "u:[2,1]", "l:[0,1]", "e:[2,0,2]",
                                  # a zero term, repeated cuts, one class that always matches
                                  "u:[0,2]", "l:[3,0]", "e:[0]", "u:[0]", "l:[1,1,0]"])
def test_pattern_dp_against_brute_force(text):
    spec = parse_pattern(text)
    for n, p in [(4, 0.5), (3, 0.3)]:
        res = exact_prob_geometric_consecutive(n, p, spec)
        ref = _brute_geometric(n, p, Property("contains", spec=spec), V=30)
        assert res.lo == pytest.approx(ref, abs=1e-7)
        assert res.width == 0.0


def test_named_statistic_is_its_row_form():
    # an (id, params) pair names a Property, whose row gives the form
    for prop in PROPERTIES:
        if prop.oracle_form() is None:
            continue
        params = {**prop.params, **({"spec": prop.spec} if prop.spec else {})}
        for n, p in [(5, 0.3), (12, 0.7)]:
            assert (exact_prob_geometric_consecutive(n, p, (prop.statistic_id, params))
                    == exact_prob_geometric_consecutive(n, p, prop.oracle_form())), prop


def test_named_statistic_meets_the_row_checks():
    # a row without a form, a missing k (once a bare KeyError), and an unknown
    # key (once dropped)
    with pytest.raises(UnsupportedProperty, match="no geometric-model oracle"):
        exact_prob_geometric_consecutive(20, 0.5, ("increasing_run", {"k": 2}))
    with pytest.raises(ValueError, match="needs parameter 'k'"):
        exact_prob_geometric_consecutive(20, 0.5, ("cmax_ge", {}))
    with pytest.raises(ValueError, match="takes no parameter 'kk'"):
        exact_prob_geometric_consecutive(10, 0.3, ("cmax_ge", {"k": 2, "kk": 5}))


def test_geometric_oracle_needs_a_term():
    # n = 0 is no composition of the model; n = -1 would never leave the
    # binary powering loop, since -1 >> 1 == -1
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            exact_prob_geometric_consecutive(n, 0.5, ("cmax_ge", {"k": 2}))


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


@pytest.mark.parametrize("n,p", [(5, 0.5), (4, 0.3)])
def test_any_square_min_side_brackets_brute_force(n, p):
    # values below min_k = 2 break runs, and the side cap starts at min_k
    res = exact_prob_geometric_consecutive(n, p, ("any_square", {"min_k": 2}))
    ref = _brute_geometric(n, p, Property("any_square", {"min_k": 2}), V=14)
    tail = n * p ** 15
    assert res.lo - tail <= ref <= res.hi + tail
    assert res.width <= 1e-9
    assert res.hi < exact_prob_geometric_consecutive(n, p, ("any_square", {})).lo


def test_interval_width_shrinks_with_cap():
    wide = exact_prob_geometric_consecutive(50, 0.6, ("carlitz", {}), width=1e-3)
    tight = exact_prob_geometric_consecutive(50, 0.6, ("carlitz", {}), width=1e-9)
    assert tight.width < wide.width
    assert wide.lo - 1e-12 <= tight.lo and tight.hi <= wide.hi + 1e-12


def test_closed_forms_match_dp():
    # tmax via the pattern u:[r] and tmin via its automaton, dead on a term below r,
    # equal the theory module formulas
    res = exact_prob_geometric_consecutive(10, 0.4, ("tmax_ge", {"r": 2}))
    assert res.lo == pytest.approx(1 - theory.prob_tmax_lt(10, 0.4, 2).value)
    n, p = 2 * 10 ** 4, 0.05
    res = exact_prob_geometric_consecutive(n, p, ("tmax_ge", {"r": 0}))
    assert res.width == 0.0 and abs(res.lo - 1.0) <= 1e-12
    res = exact_prob_geometric_consecutive(n, p, ("tmax_ge", {"r": 3}))
    assert res.width == 0.0
    assert abs(res.lo - (1 - theory.prob_tmax_lt(n, p, 3).value)) <= 1e-12
    for r in (0, 1, 2):  # r = 0 always holds: the pattern u:[0]
        res = exact_prob_geometric_consecutive(5, 0.7, ("tmin_ge", {"r": r}))
        assert res.width == 0.0
        assert abs(res.lo - theory.prob_tmin_ge(5, 0.7, r).value) <= 1e-12


def test_tmin_and_carlitz_keep_tiny_probabilities():
    # each automaton recognizes its own event; 1 - P(complement) read 2.2e-16
    # at the first point and was 1.6e-5 off at the second
    for n, r in [(200, 2), (7, 3)]:
        res = exact_prob_geometric_consecutive(n, 0.3, ("tmin_ge", {"r": r}))
        assert res.width == 0.0
        assert res.lo == pytest.approx(0.3 ** (r * n), rel=1e-12)
    # P(Carlitz) = sum over m of P(|C| = m) P_uniform(Carlitz | m) = 9.96025e-13;
    # the tail of m > 10 is below 1e-7 of it.  1 - P(equal neighbours) read 0.0
    n, p = 9, 1e-3
    holds = Property("carlitz").holds
    want = sum(math.exp(negbin_log_pmf(n, p, m)) * float(exact_prob_uniform(n, m, holds).rational)
               for m in range(11))
    res = exact_prob_geometric_consecutive(n, p, ("carlitz", {}))
    assert res.lo <= want <= res.hi
    # at the cap 3 it misses the four Carlitz compositions of sum 7 with a 4,
    # 4e-9 of the answer; at width 1e-15 the cap is 5
    assert res.lo == pytest.approx(want, rel=5e-9)
    res = exact_prob_geometric_consecutive(n, p, ("carlitz", {}), width=1e-15)
    assert res.lo == pytest.approx(want, rel=1e-9)


def _never(state, a):
    raise AssertionError("the automaton was stepped")


def test_transfer_refuses_too_many_classes_before_stepping():
    with pytest.raises(GuardExceeded, match=f"more than {TRANSFER_GUARD} value classes"):
        transfer(5, 0.5, Automaton(0, _never, tuple(range(TRANSFER_GUARD + 1))))
    # without cuts, a tail that never falls within the width
    with pytest.raises(GuardExceeded, match=f"more than {TRANSFER_GUARD} value classes"):
        transfer(5, 0.5, Automaton(0, _never, tail=lambda n, p, cap: 1.0))
    with pytest.raises(GuardExceeded, match=f"more than {TRANSFER_GUARD} value classes"):
        exact_prob_geometric_consecutive(5, 0.999, ("carlitz", {}))


def test_transfer_refuses_too_many_states():
    # every step discovers a state, whatever n is
    with pytest.raises(GuardExceeded, match=f"more than {TRANSFER_GUARD} states"):
        transfer(2, 0.5, Automaton(0, lambda state, a: state + 1, (0,)))


@pytest.mark.parametrize("width", [-1.0, 0.0, math.nan, math.inf])
def test_bad_width_is_refused_before_any_work(width):
    # -1.0 looped forever choosing the cap, and nan answered [0, 0.406]
    with pytest.raises(ValueError, match="width must be positive and finite"):
        transfer(5, 0.5, Automaton(None, _never), width)
    with pytest.raises(ValueError, match="width must be positive and finite"):
        exact_prob_geometric_consecutive(5, 0.5, ("carlitz", {}), width=width)
    for text in ("o:[0,1]", "e:[1,1]"):
        with pytest.raises(ValueError, match="width must be positive and finite"):
            window_prob_geometric(parse_pattern(text), 0.5, width)


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


# (property, whether it holds when its count is positive or when it is zero);
# each statistic's rows with both an oracle and a Poisson limit, sized so the
# finite-n bias at n = 10^6 stays below 3.7e-3 (cmax_ge k = 3)
POISSON_CASES = [
    pytest.param(Property("cmax_ge", {"k": 2}), "some", id="cmax_ge-2"),
    pytest.param(Property("cmax_ge", {"k": 3}), "some", id="cmax_ge-3"),
    pytest.param(Property("gmax_ge", {"k": 2}), "some", id="gmax_ge"),
    pytest.param(Property("cmin_gt", {"k": 1}), "none", id="cmin_gt"),
    pytest.param(Property("gmin_gt", {"k": 1}), "none", id="gmin_gt"),
    pytest.param(Property("tmax_ge", {"r": 2}), "some", id="tmax_ge"),
    pytest.param(Property("tmin_ge", {"r": 1}), "none", id="tmin_ge"),
    pytest.param(Property("equal_run", {"k": 2}), "some", id="equal_run"),
    pytest.param(Property("exact_consec", spec="e:[1,1]"), "some", id="exact_consec-appear"),
    pytest.param(Property("exact_consec", {"side": "disappear"}, spec="e:[0,1]"), "some",
                 id="exact_consec-disappear"),
    pytest.param(Property("upper_consec", spec="u:[1,1]"), "some", id="upper_consec"),
    pytest.param(Property("lower_consec", spec="l:[0,1]"), "some", id="lower_consec"),
    pytest.param(Property("contains", spec="e:[2]"), "some", id="contains"),
    # the exact pattern k^k: at n = 10^6 the oracle gives 0.632120 (k = 1) and 0.630282 (k = 2)
    pytest.param(Property("square", {"k": 1}), "some", id="square-1-appear"),
    pytest.param(Property("square", {"k": 2, "side": "disappear"}), "some",
                 id="square-2-disappear"),
]


def _theory_params(prop):
    return {**prop.params, "spec": prop.spec}


def test_poisson_cases_cover_every_statistic_with_an_oracle_and_a_limit():
    both = set()
    for prop in PROPERTIES:
        try:
            theory.poisson_limit(prop.statistic_id, _theory_params(prop), 1.0)
        except UnsupportedProperty:
            continue
        if prop.oracle_form() is not None:
            both.add(prop.statistic_id)
    # carlitz disappears at q ~ 1/n, and the disappearance side of equal_run at
    # q ~ n^(-1/(k-1)): there the value-tracking automaton needs about
    # log(n/width)/q value classes, too many to build
    assert both - {"carlitz"} == {case.values[0].statistic_id for case in POISSON_CASES}


@pytest.mark.parametrize("prop,polarity", POISSON_CASES)
def test_oracle_meets_the_poisson_limit_at_each_threshold(prop, polarity):
    # threshold row -> oracle at p or q = 1 * n^exponent -> Poisson row at alpha = 1
    n, params = 10 ** 6, _theory_params(prop)
    where = theory.threshold_location(prop.statistic_id, params, n)
    p = where.value if where.details["param"] == "p" else 1.0 - where.value
    res = exact_prob_geometric_consecutive(n, p, prop.oracle_form())
    limit = theory.poisson_limit(prop.statistic_id, params, 1.0)
    want = limit.prob_some() if polarity == "some" else limit.prob_none()
    assert abs(res.value - want) <= 5e-3


def test_unsupported_properties():
    with pytest.raises(UnsupportedProperty):
        exact_prob_geometric_consecutive(5, 0.5, parse_pattern("o:[0,1]"))
    with pytest.raises(UnsupportedProperty):
        exact_prob_geometric_consecutive(5, 0.5, parse_pattern("e:1,1"))
    with pytest.raises(UnsupportedProperty):
        exact_prob_geometric_consecutive(5, 0.5, ("equal_terms", {"k": 2}))


def test_window_enumeration_matches_formulas():
    # e/u/l windows come from the prefix-set automaton, exact; the value-tuple
    # grid took 0.25 s for e:[2,0,2] at p = 0.9 and refused e:[1,1,1,1]
    for text, p in [("e:[2,0,2]", 0.5), ("o:[0,1,2]", 0.5), ("o:[0,1,0]", 0.3),
                    ("u:[1,1]", 0.4), ("l:[0,2]", 0.6), ("e:[2,0,2]", 0.9),
                    ("e:[1,1,1,1]", 0.9)]:
        spec = parse_pattern(text)
        res = window_prob_geometric(spec, p)
        assert res.width == 0.0 or spec.kind is PatternKind.ORDERING
        if text.startswith("e"):
            want = theory.prob_exact_consecutive_at_position(spec, p).value
        elif text.startswith("o"):
            want = theory.prob_ordering_at_position(spec, p).value
        else:
            want = _brute_geometric(spec.length, p,
                                    Property("contains", spec=spec), V=30)
        assert res.lo - 1e-9 <= want <= res.hi + 1e-9


def test_window_ordering_at_p_zero_and_past_its_guard():
    # at p = 0 every term is 0, so only an all-equal ordering window matches
    for text, want in [("o:[0,0,0]", 1.0), ("o:[0,1]", 0.0)]:
        res = window_prob_geometric(parse_pattern(text), 0.0)
        assert (res.lo, res.hi, res.method) == (want, want, "window_enum")
    # four terms, each cut at V = 209, the least with 4 * 0.9**(V + 1) <= 1e-9: 210**4 tuples
    with pytest.raises(GuardExceeded, match="needs 1944810000 tuples"):
        window_prob_geometric(parse_pattern("o:[0,1,2,3]"), 0.9)


def test_window_cap_names_the_true_tuple_count():
    # V + 1 = 214164209 terms per place, from the closed form of 2 * p**(V + 1) <= 1e-9;
    # a cap search stepping V up to the guard took 5 s and named its capped count
    with pytest.raises(GuardExceeded, match="needs 45866270295374400 tuples"):
        window_prob_geometric(parse_pattern("o:[0,1]"), 0.9999999)


def test_pattern_longer_than_n_never_occurs():
    res = exact_prob_geometric_consecutive(3, 0.5, parse_pattern("u:[0,0,0,0]"))
    assert (res.lo, res.hi) == (0.0, 0.0)


def test_window_pattern_term_beyond_int64():
    spec = parse_pattern("e:[99999999999999999999]")
    assert window_prob_geometric(spec, 0.5).lo == 0.0


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
