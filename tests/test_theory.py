import itertools
import math

import pytest
from scipy import optimize

from compevo import theory
from compevo.core import PatternKind, PatternSpec, UnsupportedProperty
from compevo.patterns import parse_pattern


def test_expected_components_and_gaps():
    assert theory.expected_components(100, 0.3).value == pytest.approx(21.09)
    assert theory.expected_gaps(100, 0.3).value == pytest.approx(21.49)
    assert theory.expected_components(50, 0.0).value == 0.0
    assert theory.expected_gaps(50, 0.0).value == 1.0


def test_component_limit_towards_p_one():
    val = theory.expected_components(50, 1 - 1e-9).value
    assert val == pytest.approx(1.0, abs=1e-6)
    assert theory.expected_gaps(50, 1 - 1e-9).value == pytest.approx(0.0, abs=1e-6)


def test_mean_lengths():
    assert theory.mean_component_length(100, 0.5).value == pytest.approx(100 / 50.5)
    assert theory.mean_gap_length(100, 1e-9).value == pytest.approx(100, rel=1e-6)
    assert theory.mean_component_length(100, 1 - 1e-12).value == pytest.approx(100)
    with pytest.raises(ValueError):
        theory.mean_component_length(10, 0.0)


def test_prob_exact_consecutive():
    assert theory.prob_exact_consecutive_at_position(
        parse_pattern("e:[1]"), 0.5).value == pytest.approx(0.25)
    assert theory.prob_exact_consecutive_at_position(
        parse_pattern("e:[2,0,2]"), 0.5).value == pytest.approx(2 ** -7)
    assert theory.prob_exact_consecutive_at_position(
        parse_pattern("e:[1,1]"), 0.0).value == 0.0


def test_exact_count_argmax():
    # the per-position probability q^k p^s peaks at p = s/(s+k)
    spec = parse_pattern("e:[2,0,2]")  # k=3, s=4
    res = optimize.minimize_scalar(
        lambda p: -theory.prob_exact_consecutive_at_position(spec, p).value,
        bounds=(1e-9, 1 - 1e-9), method="bounded",
        options={"xatol": 1e-10})
    assert abs(res.x - 4 / 7) < 1e-6
    assert theory.prob_exact_consecutive_at_position(spec, 0.5).details["argmax_p"] \
        == pytest.approx(4 / 7)


def test_prob_exact_uniform():
    pred = theory.prob_exact_consecutive_at_position_uniform(3, 2, parse_pattern("e:[2,0]"))
    assert pred.value == pytest.approx(1 / 6)
    # converges to p^s q^k at p = m/(m+n)
    pred = theory.prob_exact_consecutive_at_position_uniform(1000, 1000, parse_pattern("e:[1]"))
    assert pred.value == pytest.approx(0.25, rel=0.01)
    # whole-composition pattern
    pred = theory.prob_exact_consecutive_at_position_uniform(2, 2, parse_pattern("e:[1,1]"))
    assert pred.value == pytest.approx(1 / 3)
    assert theory.prob_exact_consecutive_at_position_uniform(
        3, 1, parse_pattern("e:[1,1]")).value == 0.0


def test_prob_ordering():
    assert theory.prob_ordering_at_position(
        parse_pattern("o:[0,1,2]"), 0.5).value == pytest.approx(1 / 21)
    assert theory.prob_ordering_at_position(
        parse_pattern("o:[0,0]"), 0.5).value == pytest.approx(1 / 3)
    # order independence within the window
    a = theory.prob_ordering_at_position(parse_pattern("o:[0,1,0]"), 0.37).value
    b = theory.prob_ordering_at_position(parse_pattern("o:[0,0,1]"), 0.37).value
    assert a == pytest.approx(b)


def _all_ordering_patterns(k):
    seen = set()
    for t in itertools.product(range(k), repeat=k):
        vals = sorted(set(t))
        if vals == list(range(len(vals))):
            seen.add(t)
    return seen


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_ordering_patterns_partition_window(k, p):
    total = sum(theory.prob_ordering_at_position(
        PatternSpec(PatternKind.ORDERING, (t,)), p).value
        for t in _all_ordering_patterns(k))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_ordering_limit_is_uniform_over_permutations(k):
    # distinct-term patterns all approach 1/k! as q -> 0
    p = 1 - 1e-6
    for perm in itertools.permutations(range(k)):
        val = theory.prob_ordering_at_position(
            PatternSpec(PatternKind.ORDERING, (tuple(perm),)), p).value
        assert abs(val - 1 / math.factorial(k)) < 1e-4


def test_tmax_tmin_formulas():
    assert theory.prob_tmax_lt(1, 0.5, 1).value == pytest.approx(0.5)
    assert theory.prob_tmax_lt(10 ** 4, 0.01, 2).value == pytest.approx(
        math.exp(-1), rel=1e-3)
    assert theory.prob_tmax_lt(100, 0.0, 3).value == 1.0
    assert theory.prob_tmin_ge(3, 0.5, 2).value == pytest.approx(0.5 ** 6)
    assert theory.prob_tmin_ge(3, 0.0, 1).value == 0.0


def test_poisson_rows():
    pred = theory.poisson_limit("cmax_ge", {"k": 2}, 1.0)
    assert pred.prob_some() == pytest.approx(1 - math.exp(-1))
    assert theory.poisson_limit("equal_terms", {"k": 2}, 1.0).value == pytest.approx(0.25)
    assert theory.poisson_limit("cmin_gt", {"k": 3}, 2.0).prob_none() == pytest.approx(
        math.exp(-4 * 3))
    assert theory.poisson_limit("increasing_run", {"k": 4}, 2.0).value == pytest.approx(2 ** 6)
    assert theory.poisson_limit("tmin_ge", {"r": 3}, 1.0).prob_none() == pytest.approx(
        math.exp(-3))
    assert theory.poisson_limit("equal_run", {"k": 3, "side": "disappear"},
                                2.0).value == pytest.approx(4 / 3)
    assert theory.poisson_limit("exact_consec", {"spec": "e:[1,1]"}, 1.0).value == 1.0


def test_repeated_ordering_disappearance():
    # pattern with terms 0,1,0: multiplicities (2,1), d = 1, lambda = 3*1
    d, lam = theory.ordering_disappearance_params(parse_pattern("o:[0,1,0]"))
    assert (d, lam) == (1, 3)
    pred = theory.poisson_limit("ordering_consec", {"spec": "o:[0,1,0]"}, 1.0)
    assert pred.value == pytest.approx(1 / 3)
    with pytest.raises(UnsupportedProperty):
        theory.ordering_disappearance_params(parse_pattern("o:[0,1,2]"))


def test_lower_pattern_rho():
    spec = parse_pattern("l:[1,2]")
    assert theory.lower_pattern_rho(spec) == 6
    pred = theory.poisson_limit("lower_consec", {"spec": spec}, 1.0)
    assert pred.value == pytest.approx(6.0)


def test_unknown_statistic():
    with pytest.raises(UnsupportedProperty):
        theory.poisson_limit("nope", {}, 1.0)
    with pytest.raises(UnsupportedProperty):
        theory.threshold_location("nope", {}, 100)


@pytest.mark.parametrize("sid,params", [
    ("equal_terms", {"k": 1}), ("increasing_run", {"k": 1}),
    ("equal_run", {"k": 1, "side": "disappear"}),
])
def test_degenerate_k_has_no_threshold(sid, params):
    # each property always holds at k = 1, so no count grows with n
    with pytest.raises(UnsupportedProperty, match="has no threshold at k = 1"):
        theory.poisson_limit(sid, params, 1.0)
    with pytest.raises(UnsupportedProperty, match="has no threshold at k = 1"):
        theory.threshold_location(sid, params, 100)


@pytest.mark.parametrize("sid,params,at", [
    ("cmin_gt", {"k": 0}, "k = 0"), ("cmin_gt", {"k": -1}, "k = -1"),
    ("gmin_gt", {"k": 0}, "k = 0"), ("gmin_gt", {"k": -2}, "k = -2"),
    ("tmin_ge", {"r": 0}, "r = 0"), ("tmin_ge", {"r": -1}, "r = -1"),
])
def test_degenerate_count_has_no_threshold(sid, params, at):
    # no component, gap or term is ever this short: the Poisson mean k*alpha^2
    # or r*alpha was <= 0, and cmin_gt k = -1 gave prob_some = -1.718
    with pytest.raises(UnsupportedProperty, match=f"has no threshold at {at}$"):
        theory.poisson_limit(sid, params, 1.0)
    with pytest.raises(UnsupportedProperty, match=f"has no threshold at {at}$"):
        theory.threshold_location(sid, params, 100)


def test_theory_answers_only_the_side_a_statistic_has():
    # zero runs are there from the start: no appearance side with nonzero=False
    with pytest.raises(UnsupportedProperty):
        theory.poisson_limit("equal_run", {"k": 2, "nonzero": False}, 1.0)
    assert theory.poisson_limit("equal_run", {"k": 3, "nonzero": False, "side": "disappear"},
                                2.0).value == pytest.approx(4 / 3)
    with pytest.raises(UnsupportedProperty, match="'disappear'"):
        theory.threshold_location("cmax_ge", {"k": 2, "side": "disappear"}, 100)


def test_contains_threshold_follows_the_pattern_structure():
    def where(spec, side="appear"):
        t = theory.threshold_location("contains", {"spec": spec, "side": side}, 10 ** 4)
        return t.details["param"], t.details["exponent"]

    assert where("e:1,3") == ("p", pytest.approx(-1 / 3))      # largest term
    assert where("e:1,3", "disappear") == ("q", -1.0)
    assert where("e:[1,2],0") == ("p", pytest.approx(-1 / 3))  # largest block size
    assert where("e:[1,2],0", "disappear") == ("q", -0.5)      # longest block
    assert where("o:0,2,1") == ("p", -0.5)                      # total ordering, length 3
    for spec in ("u:1,2", "o:0,1,0", "o:[0,1],2"):
        with pytest.raises(UnsupportedProperty):
            theory.threshold_location("contains", {"spec": spec}, 10 ** 4)
    with pytest.raises(UnsupportedProperty):
        theory.poisson_limit("contains", {"spec": "e:1,3"}, 1.0)


@pytest.mark.parametrize("spec,side,kind_row", [
    ("e:[1,1]", "appear", "exact_consec"), ("e:[1,0,1]", "disappear", "exact_consec"),
    ("u:[1,1]", "appear", "upper_consec"), ("l:[0,1]", "disappear", "lower_consec"),
    ("o:[0,1,0]", "disappear", "ordering_consec"),
])
def test_contains_a_consecutive_pattern_scales_as_its_kind_row(spec, side, kind_row):
    # contains e:[1,1] raised "no threshold is known" while exact_consec answered
    params = {"spec": spec, "side": side}
    assert (theory.threshold_location("contains", params, 10 ** 4)
            == theory.threshold_location(kind_row, params, 10 ** 4))
    assert theory.poisson_limit("contains", params, 1.5) == theory.poisson_limit(kind_row,
                                                                              params, 1.5)


def _run(k: int, term: int) -> str:
    return "[" + ",".join([str(term)] * k) + "]"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_each_run_row_takes_its_consecutive_pattern_threshold(k):
    # a k-square is the exact pattern k^k, on both sides; a component of length
    # >= k the upper pattern 1^k, a gap the exact pattern 0^k and a term >= r
    # the upper pattern [r]
    pairs = [(("square", {"k": k, "side": side}),
              ("exact_consec", {"spec": "e:" + _run(k, k), "side": side}))
             for side in ("appear", "disappear")]
    pairs += [(("cmax_ge", {"k": k}), ("upper_consec", {"spec": "u:" + _run(k, 1)})),
              (("gmax_ge", {"k": k}), ("exact_consec", {"spec": "e:" + _run(k, 0),
                                                        "side": "disappear"})),
              (("tmax_ge", {"r": k}), ("upper_consec", {"spec": f"u:[{k}]"}))]
    for (sid, params), (pattern_sid, pattern_params) in pairs:
        for n in (100, 10 ** 4):
            row = theory.threshold_location(sid, params, n)
            pattern = theory.threshold_location(pattern_sid, pattern_params, n)
            assert (row.value, row.details) == (pattern.value, pattern.details)
        assert (theory.poisson_limit(sid, params, 1.5).value
                == theory.poisson_limit(pattern_sid, pattern_params, 1.5).value)


def test_run_rows_at_a_huge_k_build_no_terms():
    # a run row reads its pattern's size and length: 10^20 terms would not fit in memory
    for sid, key in [("cmax_ge", "k"), ("gmax_ge", "k"), ("square", "k"), ("tmax_ge", "r")]:
        assert theory.poisson_limit(sid, {key: 10 ** 20}, 1.0).value == 1.0
    # q* = n^(-1e-20) rounds to 1, so p* and m* to 0
    assert theory.threshold_location("gmax_ge", {"k": 10 ** 20}, 100).details["m_star"] == 0.0


def test_threshold_exponents():
    spec = "e:[3,1,4,1,5,9]"  # length 6, size 23
    up = theory.threshold_location("exact_consec", {"spec": spec, "side": "appear"}, 10 ** 4)
    assert up.details["m_exponent"] == pytest.approx(22 / 23)
    down = theory.threshold_location("exact_consec", {"spec": spec, "side": "disappear"}, 10 ** 4)
    assert down.details["m_exponent"] == pytest.approx(7 / 6)
    gaps = theory.threshold_location("gmax_ge", {"k": 3}, 10 ** 4)
    assert gaps.details["m_exponent"] == pytest.approx(1 + 1 / 3)
    carlitz = theory.threshold_location("carlitz", {}, 10 ** 4)
    assert carlitz.details["exponent"] == -1.0
    assert carlitz.details["param"] == "q"


def test_threshold_transfer():
    n = 10 ** 4
    pred = theory.threshold_location("cmax_ge", {"k": 2}, n)
    p_star = pred.value
    assert p_star == pytest.approx(n ** -0.5)
    assert pred.details["m_star"] == pytest.approx(n * p_star / (1 - p_star))


def test_square_heuristic_monotone():
    k5 = theory.square_threshold(10 ** 5, 0.0).value
    k9 = theory.square_threshold(10 ** 9, 0.0).value
    assert k9 > k5 > 1


@pytest.mark.parametrize("n", [1, 2])
def test_square_threshold_needs_log_log_n_positive(n):
    # n = 1 died in log(0) and n = 2 answered a negative side
    with pytest.raises(ValueError, match="need n >= 3"):
        theory.square_threshold(n, 0.0)


@pytest.mark.parametrize("n", [-4, 0, 1])
def test_threshold_location_needs_n_at_least_2(n):
    # p* = n^exponent is below 1 only from n = 2: n = 1 divided by zero in
    # m* = n p*/q*, and n = -4 gave a complex p*
    with pytest.raises(ValueError, match="need n >= 2"):
        theory.threshold_location("cmax_ge", {"k": 2}, n)
