"""Route agreement: the vectorized ``holds_batch`` against the scalar ``holds``.

``holds`` goes through ``analysis`` and ``patterns.match`` one composition at
a time; ``holds_batch`` decides a whole (trials, n) matrix with array
operations, in row blocks of about ``BLOCK_TERMS`` terms.  Every statistic id
must give the same answer on every row, and the blocks the same answers as
one call of the row's predicate on the whole matrix.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compevo import core, experiment, patterns, properties, theory
from compevo.cli import main
from compevo.core import GuardExceeded, PatternKind, PatternSpec, UnsupportedProperty
from compevo.oracle import exact_prob_geometric_consecutive
from compevo.properties import PARAMS, STATISTICS, Property
from compevo.rng import RngStream
from compevo.samplers import geometric_terms
from conftest import PROPERTIES

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


def _assert_blocks_agree(props, samples):
    """``holds_batch`` equals one call of each row's predicate on the whole matrix."""
    for prop in props:
        whole = STATISTICS[prop.statistic_id].holds_batch(prop, samples)
        blocked = prop.holds_batch(samples)
        assert blocked.dtype == bool and blocked.tolist() == whole.tolist(), (prop, samples)


def test_every_statistic_is_covered():
    assert {p.statistic_id for p in PROPERTIES} == set(STATISTICS)


def test_every_statistic_is_in_the_readme():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text[text.index("## Statistics"):]
    assert [sid for sid in STATISTICS if f"| `{sid}` |" not in table] == []


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_batch_route_agrees_with_scalar_route(samples):
    for prop in PROPERTIES + RUNS:
        _assert_routes_agree(prop, samples)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_row_blocks_agree_with_one_call(samples):
    # three copies: 3 to 18 rows in blocks of two, the last one short when odd
    samples = np.concatenate([samples, samples[::-1], samples])
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(core, "BLOCK_TERMS", 2 * samples.shape[1])
        _assert_blocks_agree(PROPERTIES + RUNS, samples)


EDGE_SHAPES = [
    [[0]], [[1]], [[2]], [[5]],                      # n = 1
    [[0, 0, 0, 0, 0, 0]],                            # all zeros
    [[2 ** 40, 1, 0, 2 ** 40 + 1, 2]],               # large terms
    [[127, 127, 0, 126, 1, 127]],                    # at the int8 maximum
    [[32767, 32767, 1, 32766, 0, 2]],                # at the int16 maximum
    # e:1,[0,2] with the blocks adjacent, with a gap, and in the wrong order
    [[1, 0, 2, 0, 0, 1], [1, 2, 2, 0, 0, 2], [0, 2, 1, 0, 0, 1]],
    # e:1,[0,2] with the first block only at the last term (the next block's
    # window starts past the end), and with only the last block
    [[0, 0, 0, 0, 0, 1], [0, 2, 0, 0, 2, 0]],
]


# parameters past the narrow dtypes' range: a comparison must not wrap them
WIDE = [Property("tmax_ge", {"r": 1000}), Property("tmin_ge", {"r": 40000}),
        Property("square", {"k": 300}), Property("equal_terms", {"k": 200}),
        Property("contains", spec="u:[200]"), Property("contains", spec="e:[40000,1]"),
        Property("contains", spec="l:[1000],127")]

# runs of k consecutive terms for every k from 4 to 9, past the n <= 8 of the
# drawn matrices, and negative k: k = n, k = n + 1 and lengths that are no power of two
RUNS = ([Property(sid, {"k": k})
         for sid in ("cmax_ge", "gmax_ge", "cmin_gt", "gmin_gt", "equal_run", "increasing_run")
         for k in (-1, *range(4, 10))]
        + [Property("square", {"k": k}) for k in range(4, 10)]  # a square needs k >= 1
        + [Property("contains", spec=text) for text in ("u:[1,1,1,1,1]", "e:[0,0,1,1,1]",
                                                        "l:[1,1,0]")])


# the samplers return the narrowest signed dtype that holds their terms; the
# unsigned copies check that no route takes a difference of two terms, which wraps
@pytest.mark.parametrize("rows", [
    np.array(r, dtype=dtype) for dtype in (np.int64, np.int8, np.int16, np.uint16)
    for r in EDGE_SHAPES if max(map(max, r)) <= np.iinfo(dtype).max])
def test_routes_agree_on_edge_shapes(monkeypatch, rows):
    for prop in PROPERTIES + WIDE + RUNS:
        _assert_routes_agree(prop, rows)
    # five copies in blocks of two rows, the last one short
    monkeypatch.setattr(core, "BLOCK_TERMS", 2 * rows.shape[1])
    _assert_blocks_agree(PROPERTIES + WIDE + RUNS, np.concatenate([rows] * 5))


def _real_size_rows():
    """40 rows of 2500 terms at each p, so that most statistics hold on some rows
    and not others; 91 distinct values in all, and 17 all-zero rows."""
    return np.concatenate([geometric_terms(2500, p, RngStream(5, i), count=40) for i, p in
                           enumerate((0.0005, 0.002, 0.01, 0.03, 0.1, 0.3, 0.6, 0.9))])


def test_row_blocks_at_the_real_block_size():
    samples = _real_size_rows()
    rows = core.block_rows(2500)
    assert 1 < rows < 320 and 320 % rows  # several blocks, the last one short
    _assert_blocks_agree(PROPERTIES + WIDE, samples)


def test_long_runs_agree_on_real_size_rows():
    # 16 to 1000 consecutive terms, each holding on some rows and not on others; every
    # term of the stretched rows repeats 25 times, so some have no short component
    real = _real_size_rows()
    samples = np.concatenate([real, np.repeat(real[::4, :100], 25, axis=1)])
    long_runs = [Property("gmax_ge", {"k": 1000}), Property("cmax_ge", {"k": 40}),
                 Property("gmin_gt", {"k": 100}), Property("cmin_gt", {"k": 49}),
                 Property("equal_run", {"k": 1000, "nonzero": False}),
                 Property("contains", spec=f"e:[{','.join('0' * 16)}]"),
                 Property("contains", spec=f"u:[{','.join('1' * 20 + '2' * 3)}]")]
    for prop in long_runs:
        _assert_routes_agree(prop, samples)
        assert 0 < prop.holds_batch(samples).sum() < len(samples), prop


def test_ordering_patterns_scan_only_the_rows_not_found(monkeypatch):
    # one call expands o:0,1,0 over all 91 values into 4095 exact patterns; the
    # rows without it once made every pattern scan every row (15 s)
    samples = _real_size_rows()
    samples[-1] = 0
    prop = Property("contains", spec="o:0,1,0")
    scanned = []  # the rows of each block-chain scan
    scan = properties._batch_block_chain

    def counted(rows, chain):
        scanned.append(len(rows))
        return scan(rows, chain)

    monkeypatch.setattr(properties, "_batch_block_chain", counted)
    whole = STATISTICS["contains"].holds_batch(prop, samples)
    assert len(patterns.exact_patterns(prop.spec, np.unique(samples).tolist())) == 4095
    assert sum(scanned) < 2 * len(samples)  # not 4095 x 320 row scans
    assert not whole[samples.max(axis=1) == 0].any() and whole.sum() > 250
    monkeypatch.undo()
    assert prop.holds_batch(samples).tolist() == whole.tolist()


def test_zero_rows_give_an_empty_answer():
    for prop in PROPERTIES + WIDE + RUNS:
        out = prop.holds_batch(np.zeros((0, 5), dtype=np.int8))
        assert out.dtype == bool and out.shape == (0,)


def test_mixed_block_ordering_agrees_on_both_routes(monkeypatch):
    # o:0,[1,0]: a term, later two adjacent terms, the first above it and the second equal
    prop = Property("contains", spec="o:0,[1,0]")
    samples = np.array([[0, 1, 0, 2], [3, 3, 3, 3], [1, 0, 2, 1], [2, 0, 3, 1]],
                       dtype=np.int64)
    want = [True, False, True, False]
    assert [prop.holds(row) for row in samples] == want
    assert prop.holds_batch(samples).tolist() == want
    monkeypatch.setattr(core, "BLOCK_TERMS", 4)  # one row per block, its own values
    assert prop.holds_batch(samples).tolist() == want


def test_ordering_occurrence_after_long_runs():
    # the last three terms hold o:0,1,0; a depth-first search over the 600
    # leading terms once gave up at its node cap and answered False
    row = [0] * 200 + [1] * 400 + [2, 3, 2]
    spec = patterns.parse_pattern("o:0,1,0")
    report = patterns.match(row, spec, with_positions=True)
    assert report.count == 1 and report.positions == ((601, 602, 603),)
    prop = Property("contains", spec=spec)
    assert prop.holds(row)
    # the same row without the descent back to 2 holds no occurrence
    rows = np.array([row, row[:600] + [2, 3, 3]], dtype=np.int8)
    assert prop.holds_batch(rows).tolist() == [True, False]


def test_too_many_values_are_refused_before_any_work(monkeypatch, capsys):
    # 2500 distinct values give C(2500, 2) exact patterns of o:0,1,0
    def no_work(*args):
        raise AssertionError("an exact pattern was counted")

    monkeypatch.setattr(patterns, "_count_anchor_tuples", no_work)
    monkeypatch.setattr(properties, "_batch_block_chain", no_work)
    row = list(range(2500))
    prop = Property("contains", spec="o:0,1,0")
    for call in (lambda: patterns.match(row, prop.spec), lambda: prop.holds(row),
                 lambda: prop.holds_batch(np.array([row], dtype=np.int16))):
        with pytest.raises(GuardExceeded, match="3123750 exact patterns"):
            call()
    assert main(["match", ",".join(map(str, row)), "o:0,1,0"], out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("error: ordering pattern o:0,1,0")


@pytest.mark.parametrize("p", [0.02, 0.5, 0.9, 0.99])
def test_any_square_routes_agree_at_any_term_size(p):
    # the batch route once made a pass per side up to the largest term, each
    # as long as the side: 5.8 s per 4096-row chunk at p = 0.9
    samples = geometric_terms(2500, p, RngStream(7, 0), count=24).astype(np.int64)
    samples[:3, 99:108] = 0
    samples[0, 100:107] = 7  # a square of side 7
    samples[1, 100:106] = 7  # six 7s: no square of side 7 or 6
    samples[2, 100:107] = 8  # seven 8s: none of side 8 or 7
    for min_k in (1, 2, 3, 6, 7):
        _assert_routes_agree(Property("any_square", {"min_k": min_k}), samples)
    assert Property("any_square", {"min_k": 7}).holds_batch(samples)[:3].tolist() == [
        True, False, False]


def test_rows_under_the_cap_are_answered_whatever_their_union():
    # each row holds at most 30 distinct values, so it needs at most C(30, 3) =
    # 4060 exact patterns of o:0,1,2, but the four rows hold 72 values; the
    # batch route once expanded the pattern over their union and refused them
    rng = np.random.default_rng(3)
    samples = np.array([
        rng.permutation(np.arange(30) % 12),            # 12 values in random order
        np.repeat(np.arange(114, 99, -1), 2),            # never rising
        np.repeat(np.r_[np.arange(207, 199, -1), np.arange(214, 207, -1)], 2),  # rising once
        rng.permutation(np.arange(300, 330)),
    ])
    assert [np.unique(row).size for row in samples] == [12, 15, 15, 30]
    assert np.unique(samples).size == 72
    specs = [prop.spec for prop in PROPERTIES if prop.spec is not None
             and prop.spec.kind is PatternKind.ORDERING and len(prop.spec.blocks) > 1]
    for spec in specs + [patterns.parse_pattern(text) for text in ("o:0,1,2", "o:[0,1],2")]:
        _assert_routes_agree(Property("contains", spec=spec), samples)
    assert Property("contains", spec="o:0,1,2").holds_batch(samples).tolist() == [
        True, False, False, True]
    # a row of 31 values is refused by both routes, whatever rows are beside it
    over = np.vstack([np.c_[samples, samples[:, -1]], np.arange(400, 431)])
    prop = Property("contains", spec="o:0,1,2")
    for call in (lambda: prop.holds(over[-1]), lambda: prop.holds_batch(over)):
        with pytest.raises(GuardExceeded, match="over 31 distinct values"):
            call()


def test_pattern_rows_refuse_other_patterns():
    with pytest.raises(UnsupportedProperty, match="needs a consecutive pattern"):
        Property("exact_consec", spec="e:[1],2")
    with pytest.raises(UnsupportedProperty, match="does not fit 'ordering_consec'"):
        Property("ordering_consec", spec="e:[0,1]")


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


@pytest.mark.parametrize("sid", sorted(STATISTICS))
def test_unknown_parameter_fails_at_construction(sid):
    # a misspelled key would otherwise be dropped and its default used
    assert set(STATISTICS[sid].needs) <= set(STATISTICS[sid].keys) <= set(PARAMS)
    with pytest.raises(ValueError, match="takes no parameter 'bogus'"):
        Property(sid, {"bogus": 1})


@pytest.mark.parametrize("sid,params,key,kind", [
    ("cmax_ge", {"k": "2"}, "k", "int"),
    ("cmax_ge", {"k": 2.5}, "k", "int"),
    ("cmax_ge", {"k": True}, "k", "int"),
    # holds_batch read r = 1.5 as r = 2, the oracle as the mass of p**1.5
    ("tmax_ge", {"r": 1.5}, "r", "int"),
    ("equal_run", {"k": 2, "nonzero": "yes"}, "nonzero", "bool"),
    # a raw TypeError traceback from the minimum check
    ("square", {"k": "2"}, "k", "int"),
])
def test_mistyped_parameter_fails_before_any_work(monkeypatch, tmp_path, capsys,
                                                  sid, params, key, kind):
    # a sweep once failed inside chunk 0 with a ChunkError
    def no_chunks(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(experiment, "_chunk_successes", no_chunks)
    message = f"statistic '{sid}' parameter '{key}' must be {kind}, got "
    doc = {"version": 1, "model": "geometric", "grid": [{"n": 20, "p": 0.3}],
           "property": {"statistic": sid, "params": params}, "trials": 10, "seed": 1}
    with pytest.raises(ValueError, match=message):
        experiment.ExperimentConfig.from_dict(doc)
    with pytest.raises(ValueError, match=message):
        exact_prob_geometric_consecutive(20, 0.3, (sid, params))
    with pytest.raises(ValueError, match=message):
        theory.poisson_limit(sid, params, 1.0)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", str(path)], out=io.StringIO()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_non_integer_pattern_term_is_refused():
    # the geometric oracle answered the p**1.5 mass of u:[1.5]
    for term in (1.5, True):
        with pytest.raises(ValueError, match="pattern terms must be nonnegative integers"):
            PatternSpec(PatternKind.UPPER, ((term,),))
    assert PatternSpec(PatternKind.UPPER, ((np.int64(2),),)).terms == (2,)


def test_holds_on_a_term_beyond_int64():
    terms = [2 ** 70, 1]
    assert Property("square", {"k": 1}).holds(terms)
    assert Property("tmax_ge", {"r": 2 ** 65}).holds(terms)
    assert Property("contains", spec="e:[1]").holds(terms)
    assert not Property("cmax_ge", {"k": 3}).holds(terms)
