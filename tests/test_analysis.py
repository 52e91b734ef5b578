import numpy as np
from hypothesis import given, strategies as st

from compevo import analysis, match, parse_pattern
from compevo.rng import RngStream
from compevo.samplers import geometric_terms
from conftest import naive_stats

compositions = st.lists(st.integers(0, 6), min_size=1, max_size=40)


def test_chart_a_components_and_gaps(chart_a):
    comp = analysis.components(chart_a)
    gap = analysis.gaps(chart_a)
    assert comp.count == 10 and comp.longest == 7
    assert gap.count == 10 and gap.longest == 4


def test_degenerate_runs():
    assert analysis.components([0, 0, 0]).count == 0
    assert analysis.gaps([0, 0, 0]).runs == (analysis.Run(1, 3),)
    assert analysis.components([1, 2, 3]).runs == (analysis.Run(1, 3),)
    assert analysis.gaps([1, 2, 3]).count == 0


def test_chart_a_extremes(chart_a):
    ex = analysis.extremes(chart_a)
    assert (ex.cmax, ex.gmax, ex.tmax, ex.tmin) == (7, 4, 6, 0)
    ex0 = analysis.extremes([0, 0])
    assert (ex0.cmax, ex0.gmax, ex0.tmax, ex0.tmin) == (0, 2, 0, 0)
    ex5 = analysis.extremes([5])
    assert (ex5.cmax, ex5.gmax, ex5.tmax, ex5.tmin) == (1, 0, 5, 5)


def test_equal_runs(chart_a):
    runs = analysis.equal_runs(chart_a, nonzero_only=True).runs
    assert analysis.Run(25, 4) in runs  # the run of four 4s
    assert analysis.equal_runs([1, 1, 1]).runs == (analysis.Run(1, 3),)
    assert analysis.equal_runs([0, 0], nonzero_only=True).count == 0
    assert analysis.equal_runs([0, 0]).runs == (analysis.Run(1, 2),)


def test_squares(chart_a):
    assert analysis.largest_square(chart_a) == 4
    assert analysis.square_counts(chart_a) == {4: 1, 2: 2}
    assert analysis.largest_square([0, 0, 0]) == 0
    assert analysis.largest_square([3, 3, 3]) == 3
    assert analysis.largest_square([1, 0]) == 1
    assert analysis.square_counts([2, 2, 2]) == {2: 2}


def test_increasing_run(chart_a):
    assert analysis.longest_increasing_run([0, 1, 2, 0]) == 3
    assert analysis.longest_increasing_run([5, 5, 5]) == 1
    assert analysis.longest_increasing_run(chart_a) == 3


def test_carlitz(chart_a):
    assert analysis.is_carlitz([0, 1, 0, 2])
    assert not analysis.is_carlitz([1, 1])
    assert not analysis.is_carlitz(chart_a)


def test_max_multiplicity(chart_a):
    assert analysis.max_multiplicity([3, 1, 4]) == 1
    assert analysis.max_multiplicity([0, 0, 0, 0]) == 4
    assert analysis.max_multiplicity(chart_a) == 17


@given(compositions)
def test_components_gaps_alternate(terms):
    comp = analysis.components(terms)
    gap = analysis.gaps(terms)
    assert abs(comp.count - gap.count) <= 1
    assert sum(r.length for r in comp.runs) + sum(r.length for r in gap.runs) == len(terms)


@given(compositions)
def test_extreme_conventions(terms):
    ex = analysis.extremes(terms)
    assert (ex.cmax == 0) == all(t == 0 for t in terms)
    assert (ex.gmax == 0) == (ex.tmin >= 1)


@given(compositions)
def test_equal_runs_partition(terms):
    runs = analysis.equal_runs(terms).runs
    covered = [i for r in runs for i in range(r.start, r.start + r.length)]
    assert covered == list(range(1, len(terms) + 1))


@given(compositions)
def test_multiplicity_matches_ordering_pattern(terms):
    has_pair = match(terms, parse_pattern("o:0,0")).exists
    assert has_pair == (analysis.max_multiplicity(terms) >= 2)


@given(compositions)
def test_against_naive_stats(terms):
    report = analysis.stats_report(terms)
    ref = naive_stats(terms)
    for key, want in ref.items():
        got = report[key]
        if key == "square_counts":
            got = {int(k): v for k, v in got.items()}
        assert got == want, key


def test_mean_counts_match_formulas():
    # 10^4 draws at n=100, p=0.3: means 21.09 components and 21.49 gaps
    samples = geometric_terms(100, 0.3, RngStream(99), count=10 ** 4)
    nz = samples > 0
    pad = np.zeros((samples.shape[0], 1), dtype=bool)
    comp_starts = np.concatenate([pad, nz], axis=1)
    ncomp = (comp_starts[:, 1:] & ~comp_starts[:, :-1]).sum(axis=1)
    z = ~nz
    gap_starts = np.concatenate([pad, z], axis=1)
    ngap = (gap_starts[:, 1:] & ~gap_starts[:, :-1]).sum(axis=1)
    se_c = ncomp.std(ddof=1) / 100.0
    se_g = ngap.std(ddof=1) / 100.0
    assert abs(ncomp.mean() - 21.09) < 3 * se_c
    assert abs(ngap.mean() - 21.49) < 3 * se_g


def test_terms_beyond_int64_in_a_plain_list():
    # a list is read as Python ints, with no int64 array in between
    comps = analysis.components([2 ** 70, 1])
    assert comps.count == 1 and comps.longest == 2
    assert analysis.gaps([2 ** 70, 0, 1]).longest == 1
    assert analysis.extremes([2 ** 70, 1]).tmax == 2 ** 70
    assert match([0, 2 ** 70, 1], parse_pattern("u:[1,1]")).count == 1
