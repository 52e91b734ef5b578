"""Random composition generators.

Two models plus the coupling bridge:

* geometric: n i.i.d. terms, P(term = k) = q * p**k.  Below a cut-off in p
  only the nonzero terms are drawn: their positions as a Bernoulli(p)
  process, their values as Geometric(q) on {1, 2, ...}.  At or above it
  every term is drawn by inverse CDF;
* uniform: the Polya urn, run on every row at once over the fewer of stars
  and bars, O(min(m, n-1)) work per row besides the output.  Its stars
  branch is the paper's evolutionary chain, m single-ball steps whose
  marginal at time m is the uniform distribution on C(n, m); the stars are
  counted into the output after the last step, in cache-sized row blocks.
  Its bars branch runs the same urn with the roles of stars and bars
  exchanged.  A single draw is one row of it;
* bridge: the independent increment whose term-wise sum turns a geometric
  composition with parameter p1 into one with parameter p2.

All samplers are pure given an RngStream.  Batch variants return a
(count, n) matrix and are the fast path for Monte Carlo work.  Its dtype is
the narrowest signed integer type (int8, int16, int32 or int64) that holds
its largest term, so it depends on the draw; a ``Composition`` built from a
row stores int64 as always.  Every sampler
first refuses an invalid model point through ``core.check_uniform`` or
``core.check_geometric`` (both bridge parameters are geometric points).
"""

from __future__ import annotations

import math

import numpy as np

from .core import Composition, block_rows, check_geometric, check_uniform
from .rng import RngStream


# Below this p the sparse draw is faster. Median ns per term, inverse CDF /
# sparse, narrow int8 output, numpy 2.4.6 on a 2-core x86-64 host:
#   (4096, 2500):  p=0.1 13.1/6.0  p=0.2 12.5/11.2  p=0.25 12.6/14.3  p=0.3 15.1/20.4
#   (4096, 200):   p=0.1 10.0/4.7  p=0.2 10.2/10.4  p=0.25 10.1/11.8  p=0.3  9.4/17.6
#   (10**5, 1):    p=0.1 11.8/5.4  p=0.2 12.0/9.5   p=0.25 12.0/14.3  p=0.3 12.3/19.5
# The sparse cost grows with p and the inverse-CDF cost does not, so the
# crossover is p ~ 0.2-0.25 for every shape.  Moving the cut would change
# the draws of every p between the old and the new cut.
SPARSE_BELOW = 0.2


def _term_dtype(largest: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every term in [0, largest]."""
    for dtype in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _sparse_geometric_terms(shape: tuple[int, ...], p: float, gen: np.random.Generator) -> np.ndarray:
    """Geometric terms drawn as a flat Bernoulli(p) process of nonzero positions.

    The gaps between nonzero positions are Geometric(p) on {1, 2, ...} and
    a nonzero term is k >= 1 with probability q p^(k-1), so each term is k
    with probability q p^k, independently.  Scratch memory is O(nonzeros).
    """
    total = math.prod(shape)
    mean = total * p
    block = int(mean + 4.0 * math.sqrt(mean)) + 16  # one block almost always reaches the end
    blocks, reach = [], 0
    while reach <= total:
        # a gap past the end ends the process; capping it keeps the sum in int64
        gaps = np.minimum(gen.geometric(p, size=block), total + 1)
        positions = np.cumsum(gaps) + (reach - 1)
        blocks.append(positions)
        reach = int(positions[-1]) + 1
    positions = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    positions = positions[:np.searchsorted(positions, total)]
    values = gen.geometric(1.0 - p, size=positions.size)
    out = np.zeros(total, dtype=_term_dtype(int(values.max(initial=0))))
    out[positions] = values
    return out.reshape(shape)


def geometric_terms(n: int, p: float, rng: RngStream, count: int | None = None) -> np.ndarray:
    """i.i.d. geometric terms; shape (n,) or (count, n).

    The dtype is the narrowest signed integer type that holds the largest
    term drawn; int8 at p = 0.
    """
    check_geometric(n, p)
    shape = (n,) if count is None else (count, n)
    if p == 0.0:
        return np.zeros(shape, dtype=np.int8)
    if p < SPARSE_BELOW:
        return _sparse_geometric_terms(shape, p, rng.generator)
    u = rng.generator.random(shape)
    # 1-u is in (0, 1], so the log is finite; floor(log(U)/log(p)) is the
    # inverse CDF of P(term = k) = q p^k.  Each step writes into u, which
    # leaves the same bytes as the expression with its temporaries.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, math.log(p), out=u)
    np.floor(u, out=u)
    return u.astype(_term_dtype(int(u.max(initial=0))))


def sample_geometric(n: int, p: float, rng: RngStream) -> Composition:
    """One composition from the geometric model C(n, p)."""
    return Composition(geometric_terms(n, p, rng))


def check_urn(n: int, m: int) -> None:
    """``check_uniform``, and that uniform_bars_batch can draw (n, m): its
    largest token count, m + n - 1, must fit in int64."""
    check_uniform(n, m)
    if m + n - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"need m + n - 1 < 2**63, got n={n}, m={m}")


def uniform_bars_batch(n: int, m: int, count: int, rng: RngStream) -> np.ndarray:
    """(count, n) matrix of independent uniform compositions of m.

    Runs the Polya urn of the evolutionary chain on every row at once, over
    the fewer of stars and bars: k = m stars into N = n boxes, or else k = n-1
    bars into the N = m+1 gaps around the m stars.  Ball t picks one of N + t
    tokens; a pick j >= N copies the box of ball j - N of the same row.  After
    k balls the boxes are a uniform multiset.  k steps, each vectorized over
    the rows, record every ball's box.  The stars are counted into the output
    after the last step, one ``np.add.at`` per row block of ``BLOCK_TERMS``
    terms (whole rows, at least one), so that a block's cells stay in cache;
    the bars are sorted into gaps.  Scratch memory is O(count k) plus one
    block's indices.  No term exceeds m, so the dtype is the narrowest signed
    integer type that holds m.
    """
    check_urn(n, m)
    stars = m < n - 1
    k, boxes = (m, n) if stars else (n - 1, m + 1)
    # int32 halves the memory traffic and sorts faster than int64
    token = np.int32 if boxes + k <= np.iinfo(np.int32).max else np.int64
    out = np.zeros((count, n), dtype=_term_dtype(m))
    gen = rng.generator
    balls = np.empty((k, count), dtype=token)  # ball-major: row t is ball t of every draw
    flat = balls.ravel()
    for t in range(k):
        pick = gen.integers(0, boxes + t, size=count, dtype=token)
        copy = np.flatnonzero(pick >= boxes)
        pick[copy] = flat[(pick[copy] - boxes).astype(np.intp) * count + copy]
        balls[t] = pick
    if stars:
        # a row's k flat indices land in its own n cells; intp indices and an
        # increment of out's dtype keep np.add.at off its slow generic path
        cells, one = out.ravel(), out.dtype.type(1)
        rows = block_rows(n)
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            index = balls[:, start:stop].T.astype(np.intp)
            index += np.arange(start * n, stop * n, n)[:, None]
            np.add.at(cells, index.ravel(), one)
        return out
    # bars after g_1 <= ... <= g_k stars give the terms g_1, diff(g), m - g_k
    gaps = np.ascontiguousarray(balls.T)
    gaps.sort(axis=1)
    out[:, :-1] = gaps
    out[:, -1] = m
    out[:, 1:] -= gaps
    return out


def sample_uniform_bars(n: int, m: int, rng: RngStream) -> Composition:
    """One composition from the uniform model C(n, m): one row of the urn."""
    return Composition(uniform_bars_batch(n, m, 1, rng)[0])


def bridge_terms(n: int, p1: float, p2: float, rng: RngStream, count: int | None = None) -> np.ndarray:
    """i.i.d. increment terms: P(0) = q2/q1, P(k) = (q2/q1)(1 - p1/p2) p2^k for k >= 1."""
    check_geometric(n, p1)
    check_geometric(n, p2)
    if not p1 < p2:
        raise ValueError(f"bridge requires p1 < p2, got p1={p1}, p2={p2}")
    q1, q2 = 1.0 - p1, 1.0 - p2
    shape = (n,) if count is None else (count, n)
    gen = rng.generator
    u = gen.random(shape)
    v = gen.random(shape)
    # conditioned on being nonzero the law is 1 + geometric(1-p2)
    nonzero = u >= q2 / q1
    tail = 1 + np.floor(np.log1p(-v) / math.log(p2)).astype(np.int64)
    terms = np.where(nonzero, tail, 0)
    return terms.astype(_term_dtype(int(terms.max(initial=0))))


def sample_bridge(n: int, p1: float, p2: float, rng: RngStream) -> Composition:
    """One composition from the coupling increment law between C(n,p1) and C(n,p2)."""
    return Composition(bridge_terms(n, p1, p2, rng))
