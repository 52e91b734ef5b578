import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from compevo.core import BlockStructure, PatternKind, PatternSpec
from compevo import patterns
from compevo.patterns import PatternSyntaxError, match, parse_pattern
from compevo.oracle import iter_uniform
from conftest import naive_match_count, naive_placements

compositions = st.lists(st.integers(0, 4), min_size=1, max_size=12)


# -- parser ------------------------------------------------------------------

def test_parse_consecutive():
    spec = parse_pattern("e:[2,0,2]")
    assert spec.kind is PatternKind.EXACT
    assert spec.structure is BlockStructure.CONSECUTIVE
    assert spec.length == 3 and spec.size == 4


def test_parse_vincular_blocks():
    spec = parse_pattern("e:[1,2],0,4,[0,0,3]")
    assert [len(b) for b in spec.blocks] == [2, 1, 1, 3]
    assert [sum(b) for b in spec.blocks] == [3, 0, 4, 3]
    assert spec.structure is BlockStructure.VINCULAR


def test_parse_multi_digit_terms():
    spec = parse_pattern("u:[10,2],13")
    assert spec.blocks == ((10, 2), (13,))


def test_parse_rejects_bad_ordering_alphabet():
    with pytest.raises(PatternSyntaxError):
        parse_pattern("o:[0,3,2,2]")


@pytest.mark.parametrize("text", ["", "e", "x:[1]", "e:", "e:[1", "e:[]",
                                  "e:1,,2", "e:[1,a]", "e:1 2", "e:[1],"])
def test_parse_errors_report_position(text):
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern(text)
    assert err.value.position >= 0


def test_str_round_trip():
    for text in ["e:[2,0,2]", "u:[1,2],0,[3,3]", "o:0,1,0", "l:7"]:
        spec = parse_pattern(text)
        assert parse_pattern(str(spec)) == spec


# -- published counts --------------------------------------------------------

def test_chart_b_counts(chart_b):
    assert match(chart_b, parse_pattern("e:[2,0,2]")).count == 4
    assert match(chart_b, parse_pattern("e:[0,2,0,3,1,0,2,0]")).count == 3


def test_chart_a_ordering_occurrence(chart_a):
    report = match(chart_a, parse_pattern("o:[0,2,1,1]"), with_positions=True)
    assert report.count == 1
    (pos,) = report.positions
    window = chart_a[pos[0] - 1 : pos[0] + 3]
    assert window == [1, 6, 3, 3]


def test_zero_pattern_windows():
    assert match([0] * 5, parse_pattern("e:[0,0]")).count == 4


# -- vincular semantics ------------------------------------------------------

def test_vincular_examples():
    spec = parse_pattern("e:[1,2],3")
    assert match([1, 2, 9, 3], spec).exists
    assert match([1, 2, 3], spec).exists          # gap 0 allowed
    assert not match([1, 2, 3], spec, strict=True).exists
    assert match([1, 2, 9, 3], spec, strict=True).exists


def test_adjacent_singletons():
    report = match([0, 0], parse_pattern("e:0,0"))
    assert report.exists and report.count == 1


def test_strict_only_affects_vincular():
    # fully nonconsecutive patterns carry no adjacency constraint at all
    assert match([1, 2], parse_pattern("e:1,2"), strict=True).count == 1


def test_vincular_positions():
    spec = parse_pattern("e:[1,2],0")
    report = match([1, 2, 0, 0], spec, with_positions=True)
    assert report.count == 2
    assert report.positions == ((1, 3), (1, 4))


def test_vincular_ordering_agrees_with_brute_force():
    spec = parse_pattern("o:[0,1],0")
    for terms in ([1, 2, 3], [0, 2, 1, 0, 2], [1, 2, 1, 1], [5, 7, 5, 7, 5]):
        for strict in (False, True):
            report = match(terms, spec, strict=strict, with_positions=True)
            assert report.positions == tuple(naive_placements(terms, spec, strict))
            assert report.count == len(report.positions)
    assert match([1, 2, 1], spec).count == 1 and match([1, 2, 1], spec, strict=True).count == 0


# -- nonconsecutive ----------------------------------------------------------

def test_nonconsecutive_examples():
    assert match([0, 5, 0, 9], parse_pattern("e:5,9")).exists
    assert not match([3, 1, 2, 0], parse_pattern("o:1,0,2")).exists
    assert match([1, 0, 2], parse_pattern("o:1,0,2")).exists


def test_triple_equal_terms_pattern():
    spec = parse_pattern("o:0,0,0")
    assert match([2, 0, 2, 1, 2], spec).exists
    assert not match([2, 0, 2, 1, 1], spec).exists


# -- cross checks ------------------------------------------------------------

SPEC_TEXTS = ["e:[1,0]", "e:1,0", "e:[1,2],0", "e:1,[0,2]", "u:[1,1]", "u:1,1",
              "l:[0,1],2", "o:[0,1,0]", "o:0,1", "o:0,0,1", "u:[2],1,[1,0]",
              "o:[0,1],0", "o:0,[1,0]"]


def test_matchers_agree_with_brute_force_exhaustive():
    specs = [parse_pattern(t) for t in SPEC_TEXTS]
    for n in range(1, 6):
        for m in range(0, 6):
            for terms in iter_uniform(n, m):
                for spec in specs:
                    for strict in (False, True):
                        got = match(terms, spec, strict=strict)
                        want = naive_match_count(terms, spec, strict)
                        assert got.count == want
                        assert got.exists == (want > 0)


def test_consistency_between_matchers():
    rng = random.Random(7)
    specs = [parse_pattern("e:[2,0]"), parse_pattern("e:2,0"), parse_pattern("e:[2],0,[0,1]")]
    for _ in range(200):
        terms = [rng.randint(0, 3) for _ in range(rng.randint(1, 10))]
        for spec in specs:
            for strict in (False, True):
                got = match(terms, spec, strict=strict, with_positions=True)
                want = naive_placements(terms, spec, strict)
                assert got.count == len(want)
                assert got.positions == tuple(want)


def test_positions_are_the_brute_force_placements():
    specs = [parse_pattern(t) for t in SPEC_TEXTS]
    for n in range(1, 6):
        for m in range(0, 6):
            for terms in iter_uniform(n, m):
                for spec in specs:
                    for strict in (False, True):
                        got = match(terms, spec, strict=strict, with_positions=True)
                        assert got.positions == tuple(naive_placements(terms, spec, strict))


def test_count_is_exact_beyond_int64():
    count = match([0] * 1000, parse_pattern("e:0,0,0,0,0,0,0,0")).count
    assert count == math.comb(1000, 8) and count > 2 ** 63


def test_positions_stop_at_the_cap_while_the_count_stays_exact(monkeypatch):
    monkeypatch.setattr(patterns, "POSITION_CAP", 3)
    for text, terms, count in [("e:[0]", [0] * 10, 10), ("e:0,[0,0]", [0] * 10, 36)]:
        report = match(terms, parse_pattern(text), with_positions=True)
        assert report.count == count
        assert len(report.positions) == 3
    report = match([0] * 10, parse_pattern("e:0,[0,0]"), with_positions=True)
    assert report.positions == ((1, 2), (1, 3), (1, 4))


@given(compositions, st.integers(0, 10))
def test_ordering_relabel_invariance(terms, shiftseed):
    # any strictly monotone relabeling of values preserves ordering matches
    spec = parse_pattern("o:[0,1,0]")
    relabeled = [2 * t + shiftseed for t in terms]
    assert match(terms, spec).count == match(relabeled, spec).count


@given(compositions, st.integers(0, 11))
def test_upper_preserved_under_increment(terms, j):
    spec = parse_pattern("u:[1,1]")
    if not match(terms, spec).exists:
        return
    bumped = list(terms)
    bumped[j % len(bumped)] += 1
    assert match(bumped, spec).exists


@given(compositions, st.integers(0, 11))
def test_lower_preserved_under_decrement(terms, j):
    spec = parse_pattern("l:[1,2]")
    if not match(terms, spec).exists:
        return
    lowered = list(terms)
    idx = j % len(lowered)
    lowered[idx] = max(lowered[idx] - 1, 0)
    assert match(lowered, spec).exists


def test_ordering_counts_all_windows():
    # every window of distinct terms matches exactly one total ordering pattern
    terms = [3, 1, 4, 0, 2]
    total = 0
    for perm in itertools.permutations(range(3)):
        spec = PatternSpec(PatternKind.ORDERING, (perm,))
        total += match(terms, spec).count
    assert total == len(terms) - 2
