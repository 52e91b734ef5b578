"""Exact ground truth, independent of the closed forms.

Two routes:

* uniform model: full lexicographic enumeration; probabilities are exact
  rationals (#satisfying / binom(m+n-1, m));
* geometric model: the transition matrix of a small automaton that
  recognizes the property from the term sequence, raised to the n-th power
  by repeated squaring, O(S^3 log n) for S automaton states.  The automaton
  reads each term through its value class, an interval [a, b) between
  sorted cut points with mass p**a - p**b (p**a for the last, [a, inf)).
  Patterns, run lengths and the largest term need finitely many classes and
  come out exact, with lo == hi; the longest component and gap, the largest
  term and a k-square are the patterns u:[1^k], e:[0^k], u:[r] and e:[k^k],
  so one prefix-set automaton decides all of them.  Value-tracking automata
  give each value up to a cap V a class and lump the rest; the result is a
  certified interval [lo, hi] whose width is at most n * p**(V+1), the union
  bound on any term exceeding V (``any_square`` caps the square side
  instead, see _square_exists_lo).  Only ``tmin_ge`` is a closed form, p**(r*n).  Exact
  means exact up to float64 rounding, which the interval does not cover:
  at n = 2*10^4 it measured at most 3.3e-13 against the same matrices
  powered in 40-digit arithmetic (12 forms, p = 0.05 to 0.95).  It grows
  about linearly in n: the criterion-6 forms at p or q = n^(-1/2) were off
  by up to 2e-9 at n = 10^8 and 2.3e-8 at n = 10^9.

The automata here are built by the active-prefix-set construction, not from
the product formulas of the theory module, so agreement between the two is a
real cross-check.

Every public entry refuses an invalid model point before any work, through
``core.check_uniform`` or ``core.check_geometric``; ``window_prob_geometric``
checks (pattern length, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (GuardExceeded, PatternKind, PatternSpec, UnsupportedProperty,
                   check_geometric, check_uniform, count_compositions)
from .patterns import COMPARE, match, relation

ENUMERATION_GUARD = 10_000_000
DEFAULT_WIDTH = 1e-9

FOUND = "FOUND"
DEAD = "DEAD"


@dataclass(frozen=True)
class ExactProbability:
    lo: float
    hi: float
    method: str  # "enumeration" | "transfer_dp" | "window_enum" | "closed_form" (tmin_ge)
    rational: Fraction | None = None  # set for enumeration results

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0 + 1e-12):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def value(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack


# ---------------------------------------------------------------------------
# uniform model: enumeration

def iter_uniform(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All n-term compositions of m in lexicographic order."""
    check_uniform(n, m)
    terms = [0] * (n - 1) + [m]
    yield tuple(terms)
    while True:
        # successor: find the rightmost position before the last that can grow
        rest = terms[-1]
        if rest > 0 and n > 1:
            terms[-2] += 1
            terms[-1] -= 1
            yield tuple(terms)
            continue
        # carry: find rightmost nonzero among the first n-1 positions
        i = n - 2
        while i >= 0 and terms[i] == 0:
            i -= 1
        if i <= 0:
            return
        terms[i - 1] += 1
        total = terms[i] - 1 + sum(terms[i + 1:])
        for j in range(i, n - 1):
            terms[j] = 0
        terms[-1] = total
        yield tuple(terms)


def exact_prob_uniform(n: int, m: int,
                       predicate: Callable[[tuple[int, ...]], bool]) -> ExactProbability:
    """Exact rational probability of the predicate under the uniform model."""
    total = count_compositions(n, m)
    if total > ENUMERATION_GUARD:
        raise GuardExceeded(f"binom({m + n - 1},{m}) = {total} exceeds {ENUMERATION_GUARD}")
    hits = sum(1 for comp in iter_uniform(n, m) if predicate(comp))
    frac = Fraction(hits, total)
    return ExactProbability(float(frac), float(frac), "enumeration", rational=frac)


def negbin_log_pmf(n: int, p: float, m: int) -> float:
    """log P(|C(n,p)| = m) = log binom(m+n-1, m) + m log p + n log q."""
    check_geometric(n, p)
    check_uniform(n, m)
    if p == 0.0:
        return 0.0 if m == 0 else -math.inf
    lb = math.lgamma(m + n) - math.lgamma(m + 1) - math.lgamma(n)
    return lb + m * math.log(p) + n * math.log1p(-p)


# ---------------------------------------------------------------------------
# geometric model: automaton transfer matrix

def _transfer(n: int, classes: list[float], start, step,
              accept: Callable[[object], bool] | None = None) -> float:
    """P(reach FOUND within n steps), plus P(the state after n steps satisfies
    ``accept``) when it is given.

    ``step(state, class_index)`` returns the next state, FOUND (absorbing
    success) or DEAD (absorbing failure); states are discovered lazily from
    ``start``.  The S reachable states and the two absorbing ones make one
    dense (S+2)x(S+2) transition matrix T, and e_start^T T^n comes from
    binary powering: O(S^3 log n) work, so n = 10^9 costs about 30
    squarings.  The module docstring gives the float64 rounding error.
    """
    states = [FOUND, DEAD, start]  # the absorbing states take rows 0 and 1
    index = {st: i for i, st in enumerate(states)}
    edges = []  # (from, to, weight)
    i = 2
    while i < len(states):
        for ci, w in enumerate(classes):
            t = step(states[i], ci)
            if t not in index:
                index[t] = len(states)
                states.append(t)
            edges.append((i, index[t], w))
        i += 1
    tmat = np.zeros((len(states), len(states)))
    tmat[0, 0] = tmat[1, 1] = 1.0
    for i, j, w in edges:
        tmat[i, j] += w
    v = np.zeros(len(states))
    v[2] = 1.0
    while n:
        if n & 1:
            v = v @ tmat
        n >>= 1
        if n:
            tmat = tmat @ tmat
    total = v[0]
    if accept is not None:
        total += sum(v[i] for i in range(2, len(states)) if accept(states[i]))
    return float(total)


def _weights(cuts: Sequence[int], p: float) -> list[float]:
    """Masses of the value classes [a, b) between the sorted ``cuts``:
    P(a <= X < b) = p**a - p**b, and p**a for the last class [a, inf)."""
    return [p ** a - p ** b for a, b in zip(cuts, cuts[1:])] + [p ** cuts[-1]]


# ----- consecutive e/u/l pattern existence: exact ---------------------------

def _prefix_set_prob(n: int, p: float, spec: PatternSpec) -> float:
    """P(the consecutive e/u/l pattern occurs in C(n, p)); exact.

    Cut at 0 and at every term r and r + 1, each term r is a class of its
    own, so a class's least value decides every comparison with a term.
    """
    pat, k = spec.terms, spec.length
    cuts = sorted({0, *pat, *(r + 1 for r in pat)})
    match = [[COMPARE[spec.kind](a, r) for r in pat] for a in cuts]

    def step(state, ci):
        row = match[ci]
        nxt = {j + 1 for j in state if j < k and row[j]}
        if k in nxt:
            return FOUND
        nxt.add(0)
        return frozenset(nxt)

    return _transfer(n, _weights(cuts, p), frozenset([0]), step)


# ----- shortest-run automaton over the zero/nonzero alphabet: exact ----------
# cuts [0, 1]: class 0 = zero term, class 1 = nonzero term

def _shortest_run_gt(n: int, p: float, k: int, run_class: int) -> float:
    """P(a run of ``run_class`` terms exists and every such run is longer than k)."""
    # state: (current run length capped at k+1, any run seen)
    def step(state, ci):
        run, seen = state
        if ci == run_class:
            return (min(run + 1, k + 1), True)
        if 0 < run <= k:
            return DEAD
        return (0, seen)

    def accept(state):
        run, seen = state
        return seen and not (0 < run <= k)

    return _transfer(n, _weights([0, 1], p), (0, False), step, accept)


# ----- value-tracking automata with truncation ------------------------------
# cuts range(V + 2): values 0..V are classes of their own, the last lumps > V

def _value_cap(n: int, p: float, width: float) -> int:
    """Smallest V with n * p**(V+1) <= width."""
    if p == 0.0:
        return 0
    v = max(int(math.ceil(math.log(width / n) / math.log(p))) - 1, 0)
    while n * p ** (v + 1) > width:
        v += 1
    return v


BIG = -1  # class index sentinel for the lumped > V values


def _equal_run_lo(n: int, p: float, k: int, nonzero_only: bool, width: float):
    """Pessimistic P(a run of k equal terms exists); big values never extend runs."""
    V = _value_cap(n, p, width)

    def step(state, ci):
        val = ci if ci <= V else BIG
        last, run = state
        if val != BIG and val == last and not (nonzero_only and val == 0):
            run += 1
        elif val != BIG and not (nonzero_only and val == 0):
            run = 1
        else:
            run = 0
        if run >= k:
            return FOUND
        return (val, run)

    lo = _transfer(n, _weights(range(V + 2), p), (None, 0), step)
    return lo, min(n * p ** (V + 1), 1.0)


def _square_exists_lo(n: int, p: float, width: float):
    """Pessimistic P(some k >= 1 square exists: k consecutive terms equal k).

    Values above a side cap W share one class: none of them can be part of a
    square of side <= W, so lo = P(a square of side <= W) is exact.  A square
    of side s occurs with probability at most n * p**(s*s), so the sides above
    W add at most n * p**((W+1)**2) / (1 - p), which sets W near the square
    root of the term cap.  The automaton has about W**2 / 2 states, and the
    transfer matrix's cost is cubic in that.
    """
    def side_tail(w):  # bound on P(a square of side > w); none is longer than n
        return n * p ** ((w + 1) ** 2) / (1.0 - p) if w < n else 0.0

    W = 0
    while side_tail(W) > width:
        W += 1

    def step(state, ci):
        val = ci if ci <= W else BIG
        last, run = state
        if val == BIG or val == 0:
            return (BIG, 0)
        run = run + 1 if val == last else 1
        if run >= val:
            return FOUND
        return (val, run)

    lo = _transfer(n, _weights(range(W + 2), p), (BIG, 0), step)
    return lo, min(side_tail(W), 1.0)


# ----- public dispatch ------------------------------------------------------

def _exact(v: float, method: str = "transfer_dp") -> ExactProbability:
    v = min(max(v, 0.0), 1.0)
    return ExactProbability(v, v, method)


def _pattern_prob(n: int, p: float, spec: PatternSpec) -> ExactProbability:
    if len(spec.blocks) != 1:
        raise UnsupportedProperty("only consecutive patterns are automaton-recognizable here")
    if spec.kind is PatternKind.ORDERING:
        raise UnsupportedProperty("ordering existence needs unbounded value tracking; "
                                  "use window_prob_geometric for per-position values")
    if spec.length > n:
        return _exact(0.0)
    return _exact(_prefix_set_prob(n, p, spec))


def _run_prob(n: int, p: float, kind: PatternKind, term: int, k: int) -> ExactProbability:
    """P(k consecutive terms each match ``term`` under ``kind``): the pattern term^k."""
    if k <= 0:
        return _exact(1.0)  # every composition has a run of length >= 0
    return _pattern_prob(n, p, PatternSpec(kind, ((term,) * k,)))


def _interval(lo: float, tail: float) -> ExactProbability:
    return ExactProbability(min(lo, 1.0), min(lo + tail, 1.0), "transfer_dp")


def _carlitz(n, p, params, width):
    lo, tail = _equal_run_lo(n, p, 2, False, width)
    # carlitz = no adjacent equal pair; the pessimistic existence lo flips
    return ExactProbability(max(1.0 - lo - tail, 0.0), min(1.0 - lo, 1.0), "transfer_dp")


# statistic id -> (n, p, params, width) -> P(the statistic holds for C(n, p));
# Property.oracle_form offers (id, params) for exactly these ids
GEOMETRIC_FORMS: dict[str, Callable[[int, float, dict, float], ExactProbability]] = {
    # a component of length >= k is the upper pattern 1^k, a gap the exact pattern 0^k
    "cmax_ge": lambda n, p, params, width: _run_prob(n, p, PatternKind.UPPER, 1, params["k"]),
    "gmax_ge": lambda n, p, params, width: _run_prob(n, p, PatternKind.EXACT, 0, params["k"]),
    "cmin_gt": lambda n, p, params, width: _exact(_shortest_run_gt(n, p, params["k"], 1)),
    "gmin_gt": lambda n, p, params, width: _exact(_shortest_run_gt(n, p, params["k"], 0)),
    # tmax >= r is the one-term upper pattern [r]; [0] for r <= 0 matches every term
    "tmax_ge": lambda n, p, params, width: _pattern_prob(
        n, p, PatternSpec(PatternKind.UPPER, ((max(params["r"], 0),),))),
    "tmin_ge": lambda n, p, params, width: _exact(p ** (params["r"] * n), "closed_form"),
    "equal_run": lambda n, p, params, width: _interval(
        *_equal_run_lo(n, p, params["k"], params.get("nonzero", True), width)),
    # a k-square is a run of k terms equal to k: the exact pattern k^k
    "square": lambda n, p, params, width: _pattern_prob(
        n, p, PatternSpec(PatternKind.EXACT, ((params["k"],) * params["k"],))),
    "any_square": lambda n, p, params, width: _interval(*_square_exists_lo(n, p, width)),
    "carlitz": _carlitz,
}


def exact_prob_geometric_consecutive(n: int, p: float, statistic,
                                     width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(property holds for C(n, p)) as a certified interval.

    ``statistic`` is a consecutive PatternSpec (exact/upper/lower kinds;
    existence probability) or a (statistic_id, params) pair with an id of
    ``GEOMETRIC_FORMS``: cmax_ge/gmax_ge/cmin_gt/gmin_gt {k}, tmax_ge/tmin_ge
    {r}, equal_run {k, nonzero}, square {k}, any_square {}, carlitz {}.
    """
    check_geometric(n, p)
    if isinstance(statistic, PatternSpec):
        return _pattern_prob(n, p, statistic)
    sid, params = statistic
    form = GEOMETRIC_FORMS.get(sid)
    if form is None:
        raise UnsupportedProperty(f"statistic {sid!r} is not automaton-recognizable")
    return form(n, p, params, width)


def window_prob_geometric(spec: PatternSpec, p: float,
                          width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(the consecutive pattern matches one fixed window of i.i.d. terms).

    Brute enumeration over value tuples with each term truncated at V; the
    tail correction is the union bound k * p**(V+1).  Supports all four kinds.
    """
    if len(spec.blocks) != 1:
        raise UnsupportedProperty("per-window probability needs a consecutive pattern")
    k = spec.length
    check_geometric(k, p)
    if p == 0.0:
        v = 1.0 if match((0,) * k, spec).exists else 0.0
        return ExactProbability(v, v, "window_enum")
    V = _value_cap(k, p, width)
    if (V + 1) ** k > 20_000_000:
        raise GuardExceeded(f"window enumeration needs {(V + 1) ** k} tuples")
    q = 1.0 - p
    # vectorized over the full grid of value tuples
    grids = np.indices((V + 1,) * k, dtype=np.int32).reshape(k, -1)
    logw = math.log(q) * k + math.log(p) * grids.sum(axis=0, dtype=np.float64)
    pat = spec.terms
    ok = np.ones(grids.shape[1], dtype=bool)
    if spec.kind is PatternKind.ORDERING:
        # every pair of terms must be ordered as the pattern orders them
        for i, j in combinations(range(k), 2):
            ok &= relation(pat[i], pat[j])(grids[i], grids[j])
    else:
        for values, r in zip(grids, pat):
            ok &= COMPARE[spec.kind](values, r)
    lo = float(np.exp(logw[ok]).sum())
    tail = min(k * p ** (V + 1), 1.0)
    return ExactProbability(min(lo, 1.0), min(lo + tail, 1.0), "window_enum")
