"""Random composition generators.

Two models plus the coupling bridge:

* geometric: n i.i.d. terms, P(term = k) = q * p**k.  Below a cut-off in p
  only the nonzero terms are drawn: their positions as a Bernoulli(p)
  process, their values as Geometric(q) on {1, 2, ...}.  At or above it
  every term is drawn by inverse CDF;
* uniform: the Polya urn, run on every row at once over the fewer of stars
  and bars, O(min(m, n-1)) work per row besides the output.  Its stars
  branch is the paper's evolutionary chain, m single-ball steps whose
  marginal at time m is the uniform distribution on C(n, m).  Its bars
  branch runs the same urn with the roles of stars and bars exchanged.  A
  single draw is one row of it;
* bridge: the independent increment whose term-wise sum turns a geometric
  composition with parameter p1 into one with parameter p2.

All samplers are pure given an RngStream.  Batch variants return a
(count, n) matrix.  Its dtype is the narrowest signed integer type (int8,
int16, int32 or int64) that holds its largest term, so it depends on the
draw; a ``Composition`` built from a row stores int64 as always.

The Monte Carlo fast path is ``geometric_blocks`` and ``uniform_blocks``:
the same matrix, with the same draws and dtype, handed on as row blocks of
``core.block_rows(n)`` rows (the blocks of ``Property.holds_batch``), so
that a sweep decides each block while it is still in cache and no chunk-
sized matrix is built.  The urn counts its stars or sorts its bars into one
reused block buffer, and the sparse path scatters its nonzero terms into one
and clears them after use, so a block is valid only until the next one is
asked for.  Scratch memory is one token per ball and row (urn), one position
and one value per nonzero term in their narrowest dtypes (sparse), or the
whole chunk (dense inverse CDF), plus one block.  ``geometric_terms`` and
``uniform_bars_batch`` are those blocks written into one matrix.

Every sampler first refuses an invalid model point through
``core.check_uniform`` or ``core.check_geometric`` (both bridge parameters
are geometric points).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .core import Composition, block_rows, check_geometric, check_uniform
from .rng import RngStream


# Below this p the sparse draw is faster. Median ns per term of a chunk's
# blocks, inverse CDF / sparse, int8 terms, numpy 2.4.6 on a 2-core x86-64 host:
#   (4096, 2500):  p=0.1 9.7/3.0  p=0.2 10.1/7.1  p=0.25 10.0/9.2  p=0.3 10.1/11.4
#   (4096, 200):   p=0.1 6.7/2.9  p=0.2  7.0/6.1  p=0.25  6.7/7.5  p=0.3  6.7/9.3
#   (10**5, 1):    p=0.1 5.9/3.3  p=0.2  5.9/6.0  p=0.25  5.9/7.7  p=0.3  5.9/9.6
# The sparse cost grows with p and the inverse-CDF cost does not, so the
# crossover is p ~ 0.2 for one-term rows and ~0.27 at n = 2500.  The cut
# stays at 0.2: moving it would change the draws of every p between the old
# and the new cut.  It must stay below 1/3, where _geometric_gaps holds.
SPARSE_BELOW = 0.2


def _term_dtype(largest: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every term in [0, largest]."""
    for dtype in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _row_blocks(count: int, n: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each row block of a (count, n) chunk; count = 0 gives
    one empty block, so that even an empty chunk hands on its dtype."""
    rows = block_rows(n)
    for start in range(0, max(count, 1), rows):
        yield start, min(start + rows, count)


def _matrix(blocks: Iterator[np.ndarray], count: int, n: int) -> np.ndarray:
    """The blocks of one chunk written into one (count, n) matrix."""
    out, start = None, 0
    for block in blocks:
        if out is None:
            out = np.empty((count, n), dtype=block.dtype)
        out[start:start + len(block)] = block
        start += len(block)
    return out


def _geometric_gaps(gen: np.random.Generator, p: float, size: int, cap: int) -> np.ndarray:
    """``np.minimum(gen.geometric(p, size), cap)``, the same draws bit for bit, for p < 1/3.

    There numpy inverts one standard exponential E per draw, ceil(E / -log1p(-p)),
    so one vectorised division and ceil give its draws.  Capping before the
    int64 cast keeps a quotient past int64 (p ~ 1e-300 and below) finite.
    """
    z = gen.standard_exponential(size)
    with np.errstate(over="ignore"):  # p at 1e-308 and below: E / -log1p(-p) is inf
        np.divide(z, -math.log1p(-p), out=z)
    np.ceil(z, out=z)
    np.minimum(z, cap, out=z)
    return z.astype(np.int64)


def _sparse_blocks(n: int, count: int, p: float, gen: np.random.Generator) -> Iterator[np.ndarray]:
    """Geometric terms drawn as a flat Bernoulli(p) process of nonzero positions.

    The gaps between nonzero positions are Geometric(p) on {1, 2, ...} and
    a nonzero term is k >= 1 with probability q p^(k-1), so each term is k
    with probability q p^k, independently.  Each row block's share of the
    nonzero terms is scattered into one reused buffer, cleared after use.
    """
    total = count * n
    mean = total * p
    size = int(mean + 4.0 * math.sqrt(mean)) + 16  # one gap block almost always reaches the end
    blocks, reach = [], 0
    while reach <= total:
        # a gap past the end ends the process; capping it keeps the sum in int64
        positions = _geometric_gaps(gen, p, size, total + 1)
        np.cumsum(positions, out=positions)
        positions += reach - 1
        blocks.append(positions)
        reach = int(positions[-1]) + 1
    positions = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    del blocks
    values = gen.geometric(1.0 - p, size=np.searchsorted(positions, total))
    dtype = _term_dtype(int(values.max(initial=0)))
    # kept while the blocks are handed on, so in their narrowest dtypes
    index = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    positions = positions[:values.size].astype(index)
    values = values.astype(dtype)
    buffer = np.zeros(min(count, block_rows(n)) * n, dtype=dtype)
    lo = 0
    for start, stop in _row_blocks(count, n):
        # a needle of the positions' own dtype: a Python int would cast the whole array
        hi = int(np.searchsorted(positions, positions.dtype.type(stop * n)))
        cells = positions[lo:hi] - start * n
        buffer[cells] = values[lo:hi]
        yield buffer[:(stop - start) * n].reshape(stop - start, n)
        buffer[cells] = 0
        lo = hi


def _dense_blocks(n: int, count: int, p: float, gen: np.random.Generator) -> Iterator[np.ndarray]:
    """Geometric terms by inverse CDF, the whole chunk at once, handed on as row views."""
    u = gen.random((count, n))
    # 1-u is in (0, 1], so the log is finite; floor(log(U)/log(p)) is the
    # inverse CDF of P(term = k) = q p^k.  Each step writes into u, which
    # leaves the same bytes as the expression with its temporaries.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.divide(u, math.log(p), out=u)
    np.floor(u, out=u)
    terms = u.astype(_term_dtype(int(u.max(initial=0))))
    del u
    for start, stop in _row_blocks(count, n):
        yield terms[start:stop]


def _zero_blocks(n: int, count: int) -> Iterator[np.ndarray]:
    zeros = np.zeros((min(count, block_rows(n)), n), dtype=np.int8)
    for start, stop in _row_blocks(count, n):
        yield zeros[:stop - start]


def geometric_blocks(n: int, p: float, rng: RngStream, count: int) -> Iterator[np.ndarray]:
    """The (count, n) matrix of ``geometric_terms``, as row blocks of
    ``core.block_rows(n)`` rows; each is valid until the next one is asked for."""
    check_geometric(n, p)
    if p == 0.0:
        return _zero_blocks(n, count)
    if p < SPARSE_BELOW:
        return _sparse_blocks(n, count, p, rng.generator)
    return _dense_blocks(n, count, p, rng.generator)


def geometric_terms(n: int, p: float, rng: RngStream, count: int | None = None) -> np.ndarray:
    """i.i.d. geometric terms; shape (n,) or (count, n).

    The dtype is the narrowest signed integer type that holds the largest
    term drawn; int8 at p = 0.
    """
    rows = 1 if count is None else count
    out = _matrix(geometric_blocks(n, p, rng, rows), rows, n)
    return out[0] if count is None else out


def sample_geometric(n: int, p: float, rng: RngStream) -> Composition:
    """One composition from the geometric model C(n, p)."""
    return Composition(geometric_terms(n, p, rng))


def check_urn(n: int, m: int) -> None:
    """``check_uniform``, and that uniform_bars_batch can draw (n, m): its
    largest token count, m + n - 1, must fit in int64."""
    check_uniform(n, m)
    if m + n - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"need m + n - 1 < 2**63, got n={n}, m={m}")


def uniform_blocks(n: int, m: int, count: int, rng: RngStream) -> Iterator[np.ndarray]:
    """The (count, n) matrix of ``uniform_bars_batch``, as row blocks of
    ``core.block_rows(n)`` rows; each is valid until the next one is asked for.

    Runs the Polya urn of the evolutionary chain on every row at once, over
    the fewer of stars and bars: k = m stars into N = n boxes, or else k = n-1
    bars into the N = m+1 gaps around the m stars.  Ball t picks one of N + t
    tokens; a pick j >= N copies the box of ball j - N of the same row.  After
    k balls the boxes are a uniform multiset.  k steps, each vectorized over
    the rows, record every ball's box.  Then each row block's stars are
    counted, one ``np.add.at``, or its bars sorted into gaps, in one reused
    block buffer.  No term exceeds m, so the dtype is the narrowest signed
    integer type that holds m.
    """
    check_urn(n, m)
    return _urn_blocks(n, m, count, rng.generator)


def _urn_blocks(n: int, m: int, count: int, gen: np.random.Generator) -> Iterator[np.ndarray]:
    stars = m < n - 1
    k, boxes = (m, n) if stars else (n - 1, m + 1)
    # int32 halves the memory traffic and sorts faster than int64
    token = np.int32 if boxes + k <= np.iinfo(np.int32).max else np.int64
    balls = np.empty((k, count), dtype=token)  # ball-major: row t is ball t of every draw
    flat = balls.ravel()
    for t in range(k):
        pick = gen.integers(0, boxes + t, size=count, dtype=token)
        copy = np.flatnonzero(pick >= boxes)
        pick[copy] = flat[(pick[copy] - boxes).astype(np.intp) * count + copy]
        balls[t] = pick
    buffer = np.zeros((min(count, block_rows(n)), n), dtype=_term_dtype(m))
    one = buffer.dtype.type(1)
    for start, stop in _row_blocks(count, n):
        out = buffer[:stop - start]
        if stars:
            # a row's k flat indices land in its own n cells; intp indices and
            # an increment of out's dtype keep np.add.at off its slow generic path
            index = balls[:, start:stop].T.astype(np.intp)
            index += np.arange(0, out.size, n)[:, None]
            np.add.at(out.ravel(), index.ravel(), one)
        else:
            # bars after g_1 <= ... <= g_k stars give the terms g_1, diff(g), m - g_k
            gaps = np.ascontiguousarray(balls[:, start:stop].T)
            gaps.sort(axis=1)
            out[:, :-1] = gaps
            out[:, -1] = m
            out[:, 1:] -= gaps
        yield out
        out.fill(0)  # the next block's stars are counted into zeros


def uniform_bars_batch(n: int, m: int, count: int, rng: RngStream) -> np.ndarray:
    """(count, n) matrix of independent uniform compositions of m, drawn by
    the urn of ``uniform_blocks``.  Scratch memory is O(count k) for
    k = min(m, n-1), plus one block."""
    return _matrix(uniform_blocks(n, m, count, rng), count, n)


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
