"""Route agreement: the vectorized ``holds_batch`` against the scalar ``holds``.

``holds`` goes through ``analysis`` and ``patterns.match`` one composition at
a time; ``holds_batch`` decides a whole (trials, n) matrix with array
operations.  Every statistic id must give the same answer on every row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compevo.core import UnsupportedProperty
from compevo.properties import KNOWN_STATISTICS, Property

PROPERTIES = [
    Property("cmax_ge", {"k": 1}), Property("cmax_ge", {"k": 3}),
    Property("gmax_ge", {"k": 2}),
    Property("cmin_gt", {"k": 1}), Property("gmin_gt", {"k": 2}),
    Property("tmax_ge", {"r": 2}), Property("tmin_ge", {"r": 1}),
    Property("equal_run", {"k": 2}), Property("equal_run", {"k": 3, "nonzero": False}),
    Property("equal_terms", {"k": 3}),
    Property("carlitz"),
    Property("increasing_run", {"k": 3}),
    Property("square", {"k": 1}), Property("square", {"k": 2}),
    Property("any_square"), Property("any_square", {"min_k": 0}),
    Property("any_square", {"min_k": 2}),
    Property("exact_consec", spec="e:[1,0]"),
    Property("upper_consec", spec="u:[1,1]"),
    Property("lower_consec", spec="l:[0,1]"),
    Property("ordering_consec", spec="o:[0,1,0]"),
    Property("contains", spec="e:[2]"),
    # vincular exact/upper/lower: the greedy block-chain scan
    Property("contains", spec="e:1,[0,2]"),
    Property("contains", spec="u:[1,1],2"),
    Property("contains", spec="l:[0,1],0,[1]"),
    Property("contains", spec="e:[0,0],[0,0]"),
    # all-singleton exact/upper/lower: the same scan
    Property("contains", spec="e:1,2"),
    Property("contains", spec="u:1,1,1"),
    Property("contains", spec="l:0,0"),
    # a block longer than every n drawn below
    Property("contains", spec="e:1,[0,0,0,0,0,0,0,0,0,0,0]"),
    # nonconsecutive ordering: the per-row depth-first search
    Property("contains", spec="o:0,1,0"),
]

SMALL = st.integers(0, 3)
LARGE = st.integers(0, 2 ** 40)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 8))
    trials = draw(st.integers(1, 5))
    terms = draw(st.sampled_from([SMALL, LARGE]))
    rows = draw(st.lists(st.lists(terms, min_size=n, max_size=n),
                         min_size=trials, max_size=trials))
    if draw(st.booleans()):
        rows.append([0] * n)
    return np.array(rows, dtype=np.int64)


def _assert_routes_agree(prop, samples):
    batch = prop.holds_batch(samples)
    assert batch.dtype == bool and batch.shape == (samples.shape[0],)
    scalar = [prop.holds(row) for row in samples]
    assert batch.tolist() == scalar, (prop, samples)


def test_every_statistic_is_covered():
    assert {p.statistic_id for p in PROPERTIES} == KNOWN_STATISTICS


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_batch_route_agrees_with_scalar_route(samples):
    for prop in PROPERTIES:
        _assert_routes_agree(prop, samples)


@pytest.mark.parametrize("rows", [
    [[0]], [[1]], [[2]], [[5]],                      # n = 1
    [[0, 0, 0, 0, 0, 0]],                            # all zeros
    [[2 ** 40, 1, 0, 2 ** 40 + 1, 2]],               # large terms
    # e:1,[0,2] with the blocks adjacent, with a gap, and in the wrong order
    [[1, 0, 2, 0, 0, 1], [1, 2, 2, 0, 0, 2], [0, 2, 1, 0, 0, 1]],
])
def test_routes_agree_on_edge_shapes(rows):
    samples = np.array(rows, dtype=np.int64)
    for prop in PROPERTIES:
        _assert_routes_agree(prop, samples)


def test_mixed_block_ordering_is_unsupported_on_both_routes():
    prop = Property("contains", spec="o:0,[1,0]")
    samples = np.array([[0, 1, 0, 2], [3, 3, 3, 3]], dtype=np.int64)
    with pytest.raises(UnsupportedProperty):
        prop.holds(samples[0])
    with pytest.raises(UnsupportedProperty):
        prop.holds_batch(samples)


@pytest.mark.parametrize("k", [0, -1])
def test_square_needs_a_positive_side(k):
    # holds_batch would find a run of k = 0 equal terms on every row, while
    # holds never finds a 0-square, so the constructor refuses it
    with pytest.raises(ValueError, match="k >= 1"):
        Property("square", {"k": k})


@pytest.mark.parametrize("sid,need", [
    ("cmax_ge", "k"), ("gmax_ge", "k"), ("cmin_gt", "k"), ("gmin_gt", "k"),
    ("equal_run", "k"), ("equal_terms", "k"), ("increasing_run", "k"), ("square", "k"),
    ("tmax_ge", "r"), ("tmin_ge", "r"),
])
def test_missing_parameter_fails_at_construction(sid, need):
    # without the check the first holds_batch call dies with a bare KeyError
    with pytest.raises(ValueError, match=f"needs parameter '{need}'"):
        Property(sid, {})
