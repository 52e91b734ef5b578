import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps

from compevo.core import BLOCK_TERMS, block_rows, count_compositions
from compevo.experiment import GridPoint, _chunk_successes
from compevo.oracle import exact_prob_geometric_consecutive, iter_uniform, negbin_log_pmf
from compevo.properties import Property
from compevo.rng import RngStream, derive_key, splitmix64
from compevo.samplers import (SPARSE_BELOW, _geometric_gaps, _matrix, _sparse_blocks,
                              _term_dtype, bridge_terms, geometric_blocks, geometric_terms,
                              sample_bridge, sample_geometric, sample_uniform_bars,
                              uniform_bars_batch, uniform_blocks)
from conftest import chi_square_gof, chi_square_two_sample

ALPHA = 1e-4


def test_splitmix_reference_values():
    # published test vector: state 0 produces these first outputs
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert derive_key(1, 0) != derive_key(1, 1)
    assert derive_key(1, 0) != derive_key(2, 0)


def test_reproducibility_bitwise():
    a = geometric_terms(1000, 0.6, RngStream(42, 7))
    b = geometric_terms(1000, 0.6, RngStream(42, 7))
    assert np.array_equal(a, b)
    c = geometric_terms(1000, 0.6, RngStream(42, 8))
    assert not np.array_equal(a, c)


def test_substream_independent_of_sibling_count():
    root = RngStream(5)
    x = root.substream(3)
    y = RngStream(5).substream(3)
    assert np.array_equal(x.generator.random(10), y.generator.random(10))


def test_geometric_p_zero():
    c = sample_geometric(4, 0.0, RngStream(0))
    assert list(c.terms) == [0, 0, 0, 0]


def test_geometric_validation():
    with pytest.raises(ValueError):
        geometric_terms(3, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        geometric_terms(3, -0.5, RngStream(0))


def test_geometric_marginal():
    draws = geometric_terms(1, 0.5, RngStream(11), count=10 ** 5).ravel()
    assert abs((draws == 0).mean() - 0.5) < 0.01
    # pmf chi-square against q p^k over a truncated support
    kmax = 12
    counts = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    probs = np.array([0.5 ** (k + 1) for k in range(kmax)] + [0.5 ** kmax])
    _, pval = chi_square_gof(counts, probs)
    assert pval > ALPHA


# -- the sparse path: p below SPARSE_BELOW, count * n spanning many rows ------

P_SPARSE = 0.15


def test_sparse_marginal_pmf():
    assert P_SPARSE < SPARSE_BELOW
    p, q = P_SPARSE, 1 - P_SPARSE
    draws = geometric_terms(50, p, RngStream(41), count=4000).ravel()
    kmax = 5  # the last cell, >= 5, still expects ~15 of the 2e5 draws
    counts = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    probs = np.array([q * p ** k for k in range(kmax)] + [p ** kmax])
    _, pval = chi_square_gof(counts, probs)
    assert pval > ALPHA


def test_sparse_row_counts_are_binomial():
    # nonzero positions come from one flat process over all rows; each row's
    # count must still be Binomial(n, p), independently of where rows start
    n, p = 50, P_SPARSE
    nonzero = (geometric_terms(n, p, RngStream(42), count=4000) > 0).sum(axis=1)
    lo, hi = 2, 15
    counts = np.bincount(np.clip(nonzero, lo, hi) - lo, minlength=hi - lo + 1)
    binom = sps.binom(n, p)
    probs = np.concatenate([[binom.cdf(lo)], binom.pmf(np.arange(lo + 1, hi)),
                            [binom.sf(hi - 1)]])
    _, pval = chi_square_gof(counts, probs)
    assert pval > ALPHA


def test_sparse_cmax_rate_matches_the_exact_oracle():
    n, p, trials = 20, P_SPARSE, 20000
    samples = geometric_terms(n, p, RngStream(43), count=trials)
    rate = Property("cmax_ge", {"k": 2}).holds_batch(samples).mean()
    want = exact_prob_geometric_consecutive(n, p, ("cmax_ge", {"k": 2})).value
    assert abs(rate - want) < 4 * math.sqrt(want * (1 - want) / trials)


def test_sparse_reproducibility_bitwise():
    a = geometric_terms(300, P_SPARSE, RngStream(42, 7), count=40)
    b = geometric_terms(300, P_SPARSE, RngStream(42, 7), count=40)
    assert np.array_equal(a, b)
    c = geometric_terms(300, P_SPARSE, RngStream(42, 8), count=40)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n, count, shape", [(7, None, (7,)), (7, 0, (0, 7)),
                                             (1, 500, (500, 1)), (1, None, (1,))])
def test_sparse_shapes(n, count, shape):
    # a term of 128 has probability P_SPARSE**128, so every draw fits int8
    out = geometric_terms(n, P_SPARSE, RngStream(44), count=count)
    assert out.shape == shape and out.dtype == np.int8 and np.all(out >= 0)


def test_sparse_positions_span_gap_blocks():
    # with the gaps drawn a few at a time the process must continue from the
    # last position: the nonzero positions are the same as with one block
    class FewGaps:
        def __init__(self, gen):
            self.gen = gen

        def standard_exponential(self, size):
            return self.gen.standard_exponential(min(size, 5))

        def geometric(self, prob, size):
            return self.gen.geometric(prob, size=size)

    def terms(gen):
        return _matrix(_sparse_blocks(40, 30, P_SPARSE, gen), 30, 40)

    whole = terms(RngStream(45).generator)
    pieces = terms(FewGaps(RngStream(45).generator))
    assert np.array_equal(whole > 0, pieces > 0)


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.01, 0.05,
                               P_SPARSE, np.nextafter(SPARSE_BELOW, 0.0)])
def test_gap_kernel_is_numpy_geometric(p):
    # bit for bit, under a cap that the gaps of small p pass and one that only
    # the gaps of p <= 1e-100 reach
    for cap in (10 ** 6 + 1, 2 ** 62):
        got = _geometric_gaps(RngStream(72).generator, p, 50_000, cap)
        want = np.minimum(RngStream(72).generator.geometric(p, size=50_000), cap)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _flat_sparse_draw(n, count, p, gen):
    """The sparse path as one flat scatter into a zeroed (count, n) matrix, with
    numpy's own geometric gaps."""
    total = count * n
    mean = total * p
    size = int(mean + 4.0 * math.sqrt(mean)) + 16
    blocks, reach = [], 0
    while reach <= total:
        positions = np.cumsum(np.minimum(gen.geometric(p, size=size), total + 1)) + (reach - 1)
        blocks.append(positions)
        reach = int(positions[-1]) + 1
    positions = np.concatenate(blocks)
    positions = positions[:np.searchsorted(positions, total)]
    values = gen.geometric(1.0 - p, size=positions.size)
    out = np.zeros(total, dtype=_term_dtype(int(values.max(initial=0))))
    out[positions] = values
    return out.reshape(count, n)


@pytest.mark.parametrize("n, count, p", [(7, 37450, 0.15), (200, 4096, 0.05), (2500, 4096, 0.02),
                                         (2500, 105, 1e-6), (2500, 0, 0.05)])
def test_sparse_blocks_are_the_flat_draw(n, count, p):
    got = geometric_terms(n, p, RngStream(73), count=count)
    want = _flat_sparse_draw(n, count, p, RngStream(73).generator)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_dense_path_is_the_inverse_cdf():
    p = SPARSE_BELOW
    u = RngStream(46).generator.random((20, 30))
    want = np.floor(np.log1p(-u) / math.log(p)).astype(np.int64)
    assert np.array_equal(geometric_terms(30, p, RngStream(46), count=20), want)


def test_geometric_mean_size():
    # mean np/q = 100, per-draw variance n p/q^2 = 200
    sizes = geometric_terms(100, 0.5, RngStream(13), count=10 ** 4).sum(axis=1)
    se = math.sqrt(200.0 / 10 ** 4)
    assert abs(sizes.mean() - 100.0) < 3 * se


def test_uniform_trivial():
    assert list(sample_uniform_bars(3, 0, RngStream(1)).terms) == [0, 0, 0]
    assert list(sample_uniform_bars(5, 0, RngStream(1)).terms) == [0] * 5
    assert list(sample_uniform_bars(1, 7, RngStream(1)).terms) == [7]


def _support_index(n, m):
    return {c: i for i, c in enumerate(iter_uniform(n, m))}


def _counts_from_batch(batch, index):
    counts = np.zeros(len(index), dtype=np.int64)
    for row in batch:
        counts[index[tuple(int(x) for x in row)]] += 1
    return counts


def test_uniform_bars_uniformity():
    n, m, trials = 3, 2, 10 ** 5
    index = _support_index(n, m)
    batch = uniform_bars_batch(n, m, trials, RngStream(21))
    counts = _counts_from_batch(batch, index)
    assert batch.sum(axis=1).tolist() == [m] * trials
    _, pval = chi_square_gof(counts, np.full(6, 1 / 6))
    assert pval > ALPHA
    freqs = counts / trials
    assert np.all(np.abs(freqs - 1 / 6) < 0.01)


def test_uniform_two_of_two():
    n, m, trials = 2, 2, 10 ** 5
    index = _support_index(n, m)
    counts = _counts_from_batch(uniform_bars_batch(n, m, trials, RngStream(22)), index)
    assert np.all(np.abs(counts / trials - 1 / 3) < 0.01)


@pytest.mark.parametrize("n, m, seed", [(5, 2, 51), (6, 3, 52), (6, 4, 54)])
def test_uniform_batch_stars_branch_law(n, m, seed):
    # m < n-1: the urn drops the m stars into the n boxes.  Copying ball
    # j-N-1 in place of j-N keeps the law for m <= 3 but not at m = 4
    trials = 2 * 10 ** 5
    index = _support_index(n, m)
    counts = _counts_from_batch(uniform_bars_batch(n, m, trials, RngStream(seed)), index)
    _, pval = chi_square_gof(counts, np.full(len(index), 1 / len(index)))
    assert pval > ALPHA


@pytest.mark.parametrize("n, m, count", [(10, 10 ** 5, 500), (7, 0, 50), (1, 9, 50),
                                         (1, 0, 5), (5, 3, 0), (3, 5, 0),
                                         (3, 2 ** 31, 100),  # past int32
                                         # m at each edge of a dtype, on both branches
                                         (2, 127, 50), (200, 127, 50), (2, 128, 50),
                                         (2, 2 ** 15 - 1, 50), (2, 2 ** 15, 50),
                                         (2, 2 ** 31 - 1, 50)])
def test_uniform_batch_shapes(n, m, count):
    # no term exceeds m: the dtype is the narrowest signed one that holds m,
    # which is the one that holds -1 - m; the sums check that no term wrapped
    out = uniform_bars_batch(n, m, count, RngStream(53))
    assert out.shape == (count, n) and out.dtype == np.min_scalar_type(-1 - m)
    assert np.all(out >= 0) and np.all(out.sum(axis=1, dtype=np.int64) == m)


# Rows drawn by the int64 samplers, before their output dtype was narrowed.
# Narrowing the output must leave every draw as it was.
PINNED = {
    "stars": (lambda: uniform_bars_batch(6, 3, 4, RngStream(61)),
              [[1, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 2], [0, 0, 1, 1, 0, 1], [0, 2, 0, 0, 1, 0]]),
    "bars": (lambda: uniform_bars_batch(4, 9, 4, RngStream(62)),
             [[2, 3, 2, 2], [1, 4, 4, 0], [0, 6, 0, 3], [0, 5, 2, 2]]),
    "sparse": (lambda: geometric_terms(12, 0.05, RngStream(89), count=3),
               [[0] * 11 + [1], [0, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0], [0] * 12]),
    "dense": (lambda: geometric_terms(6, 0.5, RngStream(64), count=4),
              [[1, 6, 0, 1, 0, 0], [0, 2, 0, 0, 0, 2], [0, 3, 0, 2, 0, 0], [0, 2, 1, 0, 1, 1]]),
    "p=0": (lambda: geometric_terms(3, 0.0, RngStream(65), count=2), [[0, 0, 0], [0, 0, 0]]),
    "bridge": (lambda: bridge_terms(6, 0.2, 0.5, RngStream(66), count=3),
               [[3, 1, 4, 0, 0, 0], [0, 3, 0, 0, 0, 0], [0, 0, 0, 4, 2, 0]]),
}


@pytest.mark.parametrize("branch", PINNED)
def test_pinned_draws(branch):
    draw, rows = PINNED[branch]
    out = draw()
    assert out.dtype == np.int8 and out.tolist() == rows


def _reference_urn(n, m, count, gen):
    """The urn row by row in plain Python, fed the sampler's ``integers`` calls:
    the same bounds, size and dtype, in the same order."""
    stars = m < n - 1
    k, boxes = (m, n) if stars else (n - 1, m + 1)
    token = np.int32 if boxes + k <= np.iinfo(np.int32).max else np.int64
    picks = [gen.integers(0, boxes + t, size=count, dtype=token).tolist() for t in range(k)]
    rows = []
    for r in range(count):
        balls = []
        for t in range(k):
            j = picks[t][r]
            balls.append(j if j < boxes else balls[j - boxes])
        if stars:
            terms = [0] * n
            for box in balls:
                terms[box] += 1
        else:
            gaps = [0] + sorted(balls) + [m]
            terms = [b - a for a, b in zip(gaps, gaps[1:])]
        rows.append(terms)
    return rows


@pytest.mark.parametrize("n, m, count", [
    # stars; at n = 2500 a block is 104 rows: one short block, one whole
    # block, a whole one and one row, and a short last block
    (2500, 7, 1), (2500, 354, 104), (2500, 50, 105), (2500, 7, 300),
    (BLOCK_TERMS + 1, 5, 3),  # one row per block
    (2500, 2499, 105), (6, 40, 300),  # bars
    (3, 2 ** 31, 20),  # bars with int64 tokens
    (2500, 50, 0),
])
def test_uniform_batch_is_the_reference_urn(n, m, count):
    out = uniform_bars_batch(n, m, count, RngStream(67))
    want = _reference_urn(n, m, count, RngStream(67).generator)
    assert out.shape == (count, n) and out.dtype == np.min_scalar_type(-1 - m)
    assert out.tolist() == want


# -- the block route: each chunk one row block at a time ----------------------

# each sampler path: its model, and its m or p at n
BLOCK_PATHS = {
    "stars": ("uniform", lambda n: min(50, n - 2)),
    "bars": ("uniform", lambda n: n + 200),  # int16 terms
    "sparse": ("geometric", lambda n: 0.05),
    "dense": ("geometric", lambda n: 0.9),  # int16 terms at the larger counts
    "p=0": ("geometric", lambda n: 0.0),
}
BLOCK_CASES = [(path, n, count) for path in BLOCK_PATHS for n in (1, 7, 200, 2500)
               if not (path == "stars" and n == 1)  # m < n - 1 has no m at n = 1
               for count in (0, 1, block_rows(n) - 1, block_rows(n) + 1, 4096)]


@pytest.mark.parametrize("path, n, count", BLOCK_CASES)
def test_blocks_are_the_matrix(path, n, count):
    model, param = BLOCK_PATHS[path]
    point = (GridPoint(n, model, m=param(n)) if model == "uniform"
             else GridPoint(n, model, p=param(n)))

    def stream():
        return RngStream(74, 0).substream(2).substream(3)

    if model == "uniform":
        blocks = uniform_blocks(n, point.m, count, stream())
        matrix = uniform_bars_batch(n, point.m, count, stream())
    else:
        blocks = geometric_blocks(n, point.p, stream(), count)
        matrix = geometric_terms(n, point.p, stream(), count=count)
    # a block is a reused buffer: keep a copy of each before the next is drawn
    got = [block.copy() for block in blocks]
    rows = block_rows(n)
    assert [len(b) for b in got] == ([min(rows, count - s) for s in range(0, count, rows)] or [0])
    joined = np.concatenate(got)
    assert joined.shape == matrix.shape == (count, n) and joined.dtype == matrix.dtype
    assert joined.tobytes() == matrix.tobytes()
    prop = Property("contains", {}, spec="e:[1,1]")
    assert _chunk_successes(point, prop, 74, 2, 3, count) == int(prop.holds_batch(matrix).sum())


def test_uniform_batch_validation():
    for n, m in [(0, 3), (10, -1)]:
        with pytest.raises(ValueError, match="need n >= 1 and m >= 0"):
            uniform_bars_batch(n, m, 4, RngStream(0))


def test_bridge_validation():
    with pytest.raises(ValueError):
        bridge_terms(3, 0.5, 0.5, RngStream(0))
    with pytest.raises(ValueError):
        bridge_terms(3, 0.6, 0.5, RngStream(0))


def test_bridge_zero_mass():
    draws = bridge_terms(1, 0.2, 0.5, RngStream(31), count=10 ** 5).ravel()
    assert abs((draws == 0).mean() - 0.625) < 0.01


def test_bridge_convolution():
    # geometric(p1) + bridge(p1, p2) must equal geometric(p2) in distribution
    p1, p2, trials = 0.2, 0.5, 10 ** 5
    g1 = geometric_terms(1, p1, RngStream(32), count=trials).ravel()
    inc = bridge_terms(1, p1, p2, RngStream(33), count=trials).ravel()
    direct = geometric_terms(1, p2, RngStream(34), count=trials).ravel()
    summed = g1 + inc
    hi = int(max(summed.max(), direct.max()))
    _, pval = chi_square_two_sample(np.bincount(summed, minlength=hi + 1),
                                    np.bincount(direct, minlength=hi + 1))
    assert pval > ALPHA


def test_conditioned_matches_uniform():
    # conditioning the geometric model on its size recovers the uniform model
    n, m, p, trials = 3, 2, 0.5, 3 * 10 ** 4
    index = _support_index(n, m)
    counts = np.zeros(len(index), dtype=np.int64)
    base = RngStream(35)
    got = 0
    chunk = 0
    while got < trials:
        draws = geometric_terms(n, p, base.substream(chunk), count=4096)
        chunk += 1
        for row in draws[draws.sum(axis=1) == m]:
            counts[index[tuple(int(x) for x in row)]] += 1
            got += 1
            if got == trials:
                break
    _, pval = chi_square_gof(counts, np.full(len(index), 1 / len(index)))
    assert pval > ALPHA


def test_negbin_pmf_normalizes():
    n, p = 3, 0.4
    total = sum(math.exp(negbin_log_pmf(n, p, m)) for m in range(200))
    assert abs(total - 1.0) < 1e-12
    assert negbin_log_pmf(2, 0.0, 0) == 0.0
