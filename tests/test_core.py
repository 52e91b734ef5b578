import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import compevo
from compevo import oracle, samplers, theory
from compevo.core import Composition, EstimateResult, PatternKind, PatternSpec, count_compositions
from compevo.experiment import ExperimentConfig
from compevo.oracle import iter_uniform
from compevo.patterns import parse_pattern
from compevo.rng import RngStream


def test_composition_size_examples(chart_a):
    assert Composition([0, 0, 0]).size == 0
    assert Composition(chart_a).size == 80
    assert Composition([7]).size == 7


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition([])
    with pytest.raises(ValueError):
        Composition([1, -1])
    with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
        Composition([99999999999999999999, 1])
    c = Composition([1, 2])
    with pytest.raises(ValueError):
        c.terms[0] = 5


def test_count_compositions():
    assert count_compositions(3, 2) == 6
    assert count_compositions(5, 0) == 1
    assert count_compositions(1, 9) == 1
    assert count_compositions(100, 300) == math.comb(399, 300)


def test_count_matches_enumeration():
    for n in range(1, 8):
        for m in range(0, 21 - n):
            assert count_compositions(n, m) == sum(1 for _ in iter_uniform(n, m))


@given(st.lists(st.integers(0, 50), min_size=1, max_size=30), st.randoms())
def test_size_permutation_invariant(terms, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert Composition(terms).size == Composition(shuffled).size


def test_pattern_spec_classification():
    cons = PatternSpec(PatternKind.EXACT, ((2, 0, 2),))
    assert cons.structure.value == "consecutive"
    assert cons.length == 3 and cons.size == 4
    noncons = PatternSpec(PatternKind.EXACT, ((1,), (2,)))
    assert noncons.structure.value == "nonconsecutive"
    vinc = PatternSpec(PatternKind.EXACT, ((1, 2), (0,)))
    assert vinc.structure.value == "vincular"


def test_ordering_initial_segment_rule():
    PatternSpec(PatternKind.ORDERING, ((0, 1, 0, 2),))
    with pytest.raises(ValueError):
        PatternSpec(PatternKind.ORDERING, ((0, 3, 2, 2),))
    with pytest.raises(ValueError):
        PatternSpec(PatternKind.ORDERING, ((1, 2),))


def test_estimate_result_invariant():
    EstimateResult(point=0.5, ci_low=0.4, ci_high=0.6, trials=10, seed=1)
    with pytest.raises(ValueError):
        EstimateResult(point=0.3, ci_low=0.4, ci_high=0.6, trials=10, seed=1)


def test_every_exported_name_resolves():
    assert [name for name in compevo.__all__ if not hasattr(compevo, name)] == []


# -- one rule per model ------------------------------------------------------

def _uniform_error(n, m):
    return f"need n >= 1 and m >= 0, got n={n}, m={m}"


def _geometric_error(n, p):
    return f"need n >= 1 and 0 <= p < 1, got n={n}, p={p}"


def _sweep(model, point):
    return ExperimentConfig.from_dict({
        "version": 1, "model": model, "grid": [point], "trials": 10, "seed": 0,
        "property": {"statistic": "cmax_ge", "params": {"k": 2}}})


_RNG = RngStream(0)
_E11 = parse_pattern("e:[1,1]")
_O01 = parse_pattern("o:[0,1]")

# (entry called at an invalid model point, the one message it must raise)
INVALID_POINTS = {
    "count_compositions": (lambda: count_compositions(3, -1), _uniform_error(3, -1)),
    "geometric_terms": (lambda: samplers.geometric_terms(0, 0.5, _RNG, count=2),
                        _geometric_error(0, 0.5)),
    "sample_geometric": (lambda: samplers.sample_geometric(3, -0.1, _RNG),
                         _geometric_error(3, -0.1)),
    "bridge_terms-n": (lambda: samplers.bridge_terms(0, 0.2, 0.5, _RNG),
                       _geometric_error(0, 0.2)),
    "bridge_terms-p2": (lambda: samplers.bridge_terms(3, 0.2, 1.0, _RNG),
                        _geometric_error(3, 1.0)),
    "sample_bridge": (lambda: samplers.sample_bridge(3, -0.5, 0.5, _RNG),
                      _geometric_error(3, -0.5)),
    "sample_uniform_bars": (lambda: samplers.sample_uniform_bars(0, 3, _RNG), _uniform_error(0, 3)),
    "uniform_bars_batch": (lambda: samplers.uniform_bars_batch(3, -1, 4, _RNG),
                           _uniform_error(3, -1)),
    # expected_components(-5, 0.3) used to answer -0.96
    "expected_components": (lambda: theory.expected_components(-5, 0.3),
                            _geometric_error(-5, 0.3)),
    "expected_gaps": (lambda: theory.expected_gaps(0, 0.3), _geometric_error(0, 0.3)),
    "mean_component_length": (lambda: theory.mean_component_length(0, 0.3),
                              _geometric_error(0, 0.3)),
    "mean_gap_length": (lambda: theory.mean_gap_length(10, 1.5), _geometric_error(10, 1.5)),
    "prob_tmax_lt": (lambda: theory.prob_tmax_lt(0, 0.5, 1), _geometric_error(0, 0.5)),
    "prob_tmin_ge": (lambda: theory.prob_tmin_ge(-1, 0.5, 1), _geometric_error(-1, 0.5)),
    "prob_exact_consecutive_at_position": (
        lambda: theory.prob_exact_consecutive_at_position(_E11, 1.0), _geometric_error(2, 1.0)),
    "prob_exact_consecutive_at_position_uniform": (
        lambda: theory.prob_exact_consecutive_at_position_uniform(0, 3, _E11), _uniform_error(0, 3)),
    "prob_ordering_at_position": (
        lambda: theory.prob_ordering_at_position(_O01, -0.2), _geometric_error(2, -0.2)),
    "iter_uniform": (lambda: oracle.iter_uniform(0, 2), _uniform_error(0, 2)),
    "negbin_log_pmf-p": (lambda: oracle.negbin_log_pmf(3, 1.0, 2), _geometric_error(3, 1.0)),
    "negbin_log_pmf-m": (lambda: oracle.negbin_log_pmf(3, 0.5, -1), _uniform_error(3, -1)),
    "exact_prob_geometric_consecutive": (
        lambda: oracle.exact_prob_geometric_consecutive(0, 0.5, ("cmax_ge", {"k": 2})),
        _geometric_error(0, 0.5)),
    "window_prob_geometric": (lambda: oracle.window_prob_geometric(_E11, 1.0),
                              _geometric_error(2, 1.0)),
    "experiment-uniform": (lambda: _sweep("uniform", {"n": 0, "m": 3}),
                           "grid point (n=0, m=3): " + _uniform_error(0, 3)),
    "experiment-geometric": (lambda: _sweep("geometric", {"n": 5, "p": 1.0}),
                             "grid point (n=5, p=1.0): " + _geometric_error(5, 1.0)),
}


@pytest.mark.parametrize("entry", sorted(INVALID_POINTS))
def test_every_entry_refuses_an_invalid_point_with_one_message(entry):
    call, message = INVALID_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
