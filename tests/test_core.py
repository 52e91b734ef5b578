import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import compevo
from compevo.core import (Composition, EstimateResult, GeometricModel, PatternKind,
                          PatternSpec, UniformModel, composition_size,
                          count_compositions)
from compevo.oracle import iter_uniform


def test_composition_size_examples(chart_a):
    assert composition_size(Composition([0, 0, 0])) == 0
    assert composition_size(Composition(chart_a)) == 80
    assert composition_size(Composition([7])) == 7


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


def test_with_increment():
    c = Composition([1, 0])
    d = c.with_increment(1)
    assert list(d.terms) == [1, 1]
    assert list(c.terms) == [1, 0]


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
    assert composition_size(Composition(terms)) == composition_size(Composition(shuffled))


def test_geometric_model_validation():
    m = GeometricModel(4, 0.5)
    assert m.q == 0.5 and m.mean_size == 4.0
    GeometricModel(4, 0.0)
    with pytest.raises(ValueError):
        GeometricModel(4, 1.0)
    with pytest.raises(ValueError):
        GeometricModel(4, -0.1)
    with pytest.raises(ValueError):
        UniformModel(0, 3)


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
