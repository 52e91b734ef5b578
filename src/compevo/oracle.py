"""Exact ground truth, independent of the closed forms.

Two routes:

* uniform model: full lexicographic enumeration; probabilities are exact
  rationals (#satisfying / binom(m+n-1, m));
* geometric model: the transition matrix of a small automaton that
  recognizes the property from the term sequence, raised to the n-th power
  by repeated squaring, O(S^3 log n) for S automaton states.  The automaton
  reads each term through its value class, an interval [a, b) between
  sorted cut points with mass p**a - p**b (p**a for the last, [a, inf)).

Three automata make the geometric model, and each row of
``properties.STATISTICS`` states its form through them.  The prefix set of a
consecutive e/u/l pattern and the shortest run over the zero/nonzero
alphabet are exact, with lo == hi.  The (value, run) automaton gives each
value up to a cap a class and lumps the rest, so its answer is a certified
interval [lo, hi] whose width is a tail bound on the values above the cap.
k terms hold a length-k pattern only as their one window, so the prefix set
answers e/u/l windows exactly too.  Exact means exact up to float64
rounding, which the interval does not cover: at n = 2*10^4 it measured at
most 3.3e-13 against the same matrices powered in 40-digit arithmetic (12
forms, p = 0.05 to 0.95).  It grows about linearly in n: the criterion-6
forms at p or q = n^(-1/2) were off by up to 2e-9 at n = 10^8 and 2.3e-8
at n = 10^9.

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
    method: str  # "enumeration" | "transfer_dp" | "window_enum"
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


# ---------------------------------------------------------------------------
# uniform model: enumeration

def iter_uniform(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All n-term compositions of m in lexicographic order."""
    check_uniform(n, m)
    return _lexicographic(n, m)


def _lexicographic(n: int, m: int) -> Iterator[tuple[int, ...]]:
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

def pattern_prob(n: int, p: float, spec: PatternSpec) -> ExactProbability:
    """P(the consecutive e/u/l pattern ``spec`` occurs in C(n, p)); exact.

    Cut at 0 and at every term r and r + 1, each term r is a class of its
    own, so a class's least value decides every comparison with a term.
    """
    if len(spec.blocks) != 1:
        raise UnsupportedProperty("only consecutive patterns are automaton-recognizable here")
    if spec.kind is PatternKind.ORDERING:
        raise UnsupportedProperty("ordering existence needs unbounded value tracking; "
                                  "use window_prob_geometric for per-position values")
    pat, k = spec.terms, spec.length
    if k > n:
        return _exact(0.0)
    cuts = sorted({0, *pat, *(r + 1 for r in pat)})
    match = [[COMPARE[spec.kind](a, r) for r in pat] for a in cuts]

    def step(state, ci):
        row = match[ci]
        nxt = {j + 1 for j in state if j < k and row[j]}
        if k in nxt:
            return FOUND
        nxt.add(0)
        return frozenset(nxt)

    return _exact(_transfer(n, _weights(cuts, p), frozenset([0]), step))


# ----- shortest-run automaton over the zero/nonzero alphabet: exact ----------
# cuts [0, 1]: class 0 = zero term, class 1 = nonzero term

def shortest_run_prob(n: int, p: float, k: int, run_class: int) -> ExactProbability:
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

    return _exact(_transfer(n, _weights([0, 1], p), (0, False), step, accept))


# ----- (value, run) automaton with truncation --------------------------------
# cuts range(cap + 2): values 0..cap are classes of their own, the last lumps > cap

def _cap(tail: Callable[[int], float], width: float) -> int:
    """Least cap c >= 0 with tail(c) <= width."""
    c = 0
    while tail(c) > width:
        c += 1
    return c


def value_run_prob(n: int, p: float, need: Callable[[int], int | None],
                   width: float = DEFAULT_WIDTH,
                   tail: Callable[[int], float] | None = None) -> ExactProbability:
    """P(some value v occurs as need(v) equal consecutive terms) as an interval.

    ``need(v)`` is the run length value v needs, or None when v breaks every
    run.  ``tail(c)`` bounds P(some value above c completes its run); by
    default it is n * p**(c+1), the union bound on any term exceeding c.
    Values above the cap, the least c with tail(c) <= width, share one class
    and break runs, so lo = P(some value <= cap completes its run) is exact
    and [lo, lo + tail(cap)] is certified.
    """
    tail = tail or (lambda c: n * p ** (c + 1))
    cap = _cap(tail, width)

    def step(state, v):
        k = need(v) if v <= cap else None
        if k is None:
            return (None, 0)
        last, run = state
        run = run + 1 if v == last else 1
        return FOUND if run >= k else (v, run)

    lo = _transfer(n, _weights(range(cap + 2), p), (None, 0), step)
    return ExactProbability(min(lo, 1.0), min(lo + tail(cap), 1.0), "transfer_dp")


# ----- public dispatch ------------------------------------------------------

def _exact(v: float) -> ExactProbability:
    v = min(max(v, 0.0), 1.0)
    return ExactProbability(v, v, "transfer_dp")


def complement(res: ExactProbability) -> ExactProbability:
    """The interval of the complementary event."""
    return ExactProbability(max(1.0 - res.hi, 0.0), min(1.0 - res.lo, 1.0), res.method)


def exact_prob_geometric_consecutive(n: int, p: float, statistic,
                                     width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(property holds for C(n, p)) as a certified interval.

    ``statistic`` is a consecutive e/u/l PatternSpec (existence
    probability), a form from ``Property.oracle_form()``, or a
    (statistic_id, params) pair, which names the Property whose form is used.
    A form other than a pattern is called as form(n, p, width).
    """
    check_geometric(n, p)
    form = statistic
    if not isinstance(form, PatternSpec) and not callable(form):
        from .properties import Property  # properties builds its forms from this module
        sid, params = statistic
        form = Property(sid, dict(params)).oracle_form()
        if form is None:
            raise UnsupportedProperty(f"statistic {sid!r} has no geometric-model oracle")
    if isinstance(form, PatternSpec):
        return pattern_prob(n, p, form)
    return form(n, p, width)


def window_prob_geometric(spec: PatternSpec, p: float,
                          width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(the consecutive pattern matches one fixed window of i.i.d. terms).

    k terms hold a length-k e/u/l pattern only as their one window, so the
    prefix-set automaton answers it exactly.  Ordering patterns enumerate
    value tuples with each term truncated at V; the tail correction is the
    union bound k * p**(V+1).
    """
    if len(spec.blocks) != 1:
        raise UnsupportedProperty("per-window probability needs a consecutive pattern")
    k = spec.length
    check_geometric(k, p)
    if spec.kind is not PatternKind.ORDERING:
        return pattern_prob(k, p, spec)
    if p == 0.0:
        v = 1.0 if match((0,) * k, spec).exists else 0.0
        return ExactProbability(v, v, "window_enum")
    V = _cap(lambda v: k * p ** (v + 1), width)
    if (V + 1) ** k > 20_000_000:
        raise GuardExceeded(f"window enumeration needs {(V + 1) ** k} tuples")
    q = 1.0 - p
    # vectorized over the full grid of value tuples
    grids = np.indices((V + 1,) * k, dtype=np.int32).reshape(k, -1)
    logw = math.log(q) * k + math.log(p) * grids.sum(axis=0, dtype=np.float64)
    pat = spec.terms
    ok = np.ones(grids.shape[1], dtype=bool)
    # every pair of terms must be ordered as the pattern orders them
    for i, j in combinations(range(k), 2):
        ok &= relation(pat[i], pat[j])(grids[i], grids[j])
    lo = float(np.exp(logw[ok]).sum())
    tail = min(k * p ** (V + 1), 1.0)
    return ExactProbability(min(lo, 1.0), min(lo + tail, 1.0), "window_enum")
