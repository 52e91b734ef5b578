"""Exact ground truth, independent of the closed forms.

Two routes:

* uniform model: full lexicographic enumeration; probabilities are exact
  rationals (#satisfying / binom(m+n-1, m));
* geometric model: an ``Automaton`` that recognizes the property from the
  term sequence, read by ``transfer``, the one evaluator: its transition
  matrix raised to the n-th power by repeated squaring, O(S^3 log n) for S
  states.  The automaton reads each term through its value class, an
  interval [a, b) between sorted cut points with mass p**a - p**b (p**a for
  the last, [a, inf)), or with no cuts each value up to a cap and one lump
  above it.

Each row of ``properties.STATISTICS`` states its geometric form as an
Automaton.  With cuts the answer is exact, with lo == hi: the prefix set of a
consecutive e/u/l pattern, the shortest run over the zero/nonzero alphabet,
and tmin_ge's term below r.  Without cuts (equal runs, squares, carlitz) the
automaton never says the property holds where it does not, so its answer is
the certified interval [lo, lo + tail(cap)] for the least cap whose tail
bound is within the width.  Each automaton recognizes its own event, so no
answer is a 1 - x that would lose a tiny probability to rounding.  k terms
hold a length-k pattern only as their one window, so the prefix set answers
e/u/l windows exactly too.  The interval covers truncation, not float64
rounding: at n = 2*10^4 the rounding measured at most 3.3e-13 against the
same matrices powered in 40-digit arithmetic (12 forms, p = 0.05 to 0.95).
It grows about linearly in n: the criterion-6 forms at p or q = n^(-1/2)
were off by up to 2e-9 at n = 10^8 and 2.3e-8 at n = 10^9.

The automata here read the terms one by one (patterns by the active-prefix-set
construction), not the product formulas of the theory module, so agreement
between the two is a real cross-check.

Every public entry refuses an invalid model point before any work, through
``core.check_uniform`` or ``core.check_geometric``; ``window_prob_geometric``
checks (pattern length, p).  ``transfer`` and ``window_prob_geometric`` refuse
a width that is not positive and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Callable, Hashable, Iterator, NamedTuple

import numpy as np

from .core import (GuardExceeded, PatternKind, PatternSpec, UnsupportedProperty,
                   check_geometric, check_uniform, count_compositions)
from .patterns import COMPARE, match, relation

ENUMERATION_GUARD = 10_000_000
WINDOW_GUARD = 20_000_000  # value tuples of one ordering window
DEFAULT_WIDTH = 1e-9

FOUND = "FOUND"
DEAD = "DEAD"


@dataclass(frozen=True)
class ExactProbability:
    """P in [lo, hi]; the width bounds the mass that truncation leaves out, not
    float64 rounding (see the module docstring)."""

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
# geometric model: automata and their transfer matrix

# The most value classes, and the most states, that ``transfer`` builds a
# matrix for.  carlitz at n = 100 has about as many states as classes; its
# median s of three runs and peak RSS, numpy 2.4.6 on a 2-core x86-64 host:
#   p = 0.9      242 classes   0.12 s    31 MB
#       0.95     495           0.09      35
#       0.98    1255           0.59      64
#       0.99    2522           2.6      159
#       0.9915  2969           4.0      208
# Steps grow as classes x states and memory as states^2: n = 5, p = 0.999
# would need 22,000 classes, 5*10^8 steps and a 4 GB matrix.
TRANSFER_GUARD = 3000


def union_bound(n: int, p: float, cap: int) -> float:
    """n * p**(cap+1) >= P(some of the n terms exceeds cap)."""
    return n * p ** (cap + 1)


class Automaton(NamedTuple):
    """A property of the term sequence as an automaton over value classes.

    ``step(state, a)`` returns the next state, FOUND (absorbing success) or
    DEAD (absorbing failure) after a term of class ``a``.  With ``cuts`` the
    classes are the intervals [a, b) between the sorted cut points, the last
    [a, inf), and ``a`` is a class's least value.  With ``cuts`` None each
    value up to a cap is a class of its own, and ``a`` is None for every value
    above it.  The property holds on reaching FOUND or, when ``accept`` is
    given, on ending in a state that it accepts.

    An automaton never says the property holds where it does not, and
    ``tail(n, p, cap)`` bounds the mass it misses; with cuts it misses none.
    """

    start: Hashable
    step: Callable[[Hashable, int | None], Hashable]
    cuts: tuple[int, ...] | None = None
    accept: Callable[[Hashable], bool] | None = None
    tail: Callable[[int, float, int], float] = union_bound


def _check_width(width: float) -> None:
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must be positive and finite, got {width!r}")


def _cap(tail: Callable[[int], float], width: float, most: int) -> int:
    """Least cap c >= 0 with tail(c) <= width, or most + 1 if none is up to most."""
    c = 0
    while tail(c) > width and c <= most:
        c += 1
    return c


def transfer(n: int, p: float, automaton: Automaton,
             width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(``automaton`` accepts C(n, p)) as the certified interval [P, P + tail].

    Without cuts the cap is the least c with tail(n, p, c) <= width, so the
    values 0..cap and the lump above them make cap + 2 classes.  States are
    discovered lazily from ``start``; the S reachable ones and the two
    absorbing ones make one dense (S+2)x(S+2) transition matrix T, and
    e_start^T T^n comes from binary powering: O(S^3 log n) work, so n = 10^9
    costs about 30 squarings.  More than ``TRANSFER_GUARD`` classes or states
    raise GuardExceeded.  The module docstring gives the float64 rounding error.
    """
    check_geometric(n, p)
    _check_width(width)
    start, step, cuts, accept, tail = automaton
    miss, reads = 0.0, cuts
    if cuts is None:
        cap = _cap(lambda c: tail(n, p, c), width, TRANSFER_GUARD)
        miss, cuts, reads = tail(n, p, cap), range(cap + 2), [*range(cap + 1), None]
    if len(cuts) > TRANSFER_GUARD:
        raise GuardExceeded(f"the automaton needs more than {TRANSFER_GUARD} value classes")
    weights = [p ** a - p ** b for a, b in zip(cuts, cuts[1:])] + [p ** cuts[-1]]
    states = [FOUND, DEAD, start]  # the absorbing states take rows 0 and 1
    index = {st: i for i, st in enumerate(states)}
    rows = []  # the state each class leads to, for each live state
    for state in islice(states, 2, None):  # sees the states the steps discover
        row = []
        for a in reads:
            t = step(state, a)
            j = index.get(t)
            if j is None:
                if len(states) > TRANSFER_GUARD + 1:
                    raise GuardExceeded(f"the automaton has more than {TRANSFER_GUARD} states")
                j = index[t] = len(states)
                states.append(t)
            row.append(j)
        rows.append(np.array(row, dtype=np.int32))
    size = len(states)
    tmat = np.zeros((size, size))
    tmat[0, 0] = tmat[1, 1] = 1.0
    for i, row in enumerate(rows, 2):
        tmat[i] = np.bincount(row, weights, minlength=size)
    v = np.zeros(size)
    v[2] = 1.0
    while n:
        if n & 1:
            v = v @ tmat
        n >>= 1
        if n:
            tmat = tmat @ tmat
    lo = v[0] + (sum(v[i] for i in range(2, size) if accept(states[i])) if accept else 0.0)
    lo = min(max(float(lo), 0.0), 1.0)
    return ExactProbability(lo, min(lo + miss, 1.0), "transfer_dp")


def pattern_automaton(spec: PatternSpec) -> Automaton:
    """The consecutive e/u/l pattern ``spec`` occurs; exact.

    The state is the set of pattern prefixes that end at the last term.  Cut
    at 0 and at every term r and r + 1, each term r is a class of its own, so
    a class's least value decides every comparison with a term.
    """
    if len(spec.blocks) != 1:
        raise UnsupportedProperty("only consecutive patterns are automaton-recognizable here")
    if spec.kind is PatternKind.ORDERING:
        raise UnsupportedProperty("ordering existence needs unbounded value tracking; "
                                  "use window_prob_geometric for per-position values")
    pat, k = spec.terms, spec.length
    cuts = tuple(sorted({0, *pat, *(r + 1 for r in pat)}))
    match = {a: [COMPARE[spec.kind](a, r) for r in pat] for a in cuts}

    def step(state, a):
        row = match[a]
        nxt = {j + 1 for j in state if row[j]}
        return FOUND if k in nxt else frozenset(nxt | {0})

    return Automaton(frozenset([0]), step, cuts)


def shortest_run_automaton(k: int, run_class: int) -> Automaton:
    """A run of class-``run_class`` terms exists and every such run is longer
    than k; exact.  Class 0 is a zero term and class 1 a nonzero one, and the
    state is (current run length capped at k + 1, any run seen)."""
    def step(state, a):
        run, seen = state
        if a == run_class:
            return (min(run + 1, k + 1), True)
        return DEAD if 0 < run <= k else (0, seen)

    def accept(state):
        run, seen = state
        return seen and not (0 < run <= k)

    return Automaton((0, False), step, (0, 1), accept)


def value_run_automaton(need: Callable[[int], int | None],
                        tail: Callable[[int, float, int], float] = union_bound) -> Automaton:
    """Some value v occurs as need(v) equal consecutive terms.

    ``need(v)`` is the run length value v needs, or None when v breaks every
    run.  Values above the cap break runs too, so the automaton misses only
    runs of them, whose mass ``tail`` bounds.  The state is (value, run length).
    """
    def step(state, v):
        k = None if v is None else need(v)
        if k is None:
            return (None, 0)
        last, run = state
        run = run + 1 if v == last else 1
        return FOUND if run >= k else (v, run)

    return Automaton((None, 0), step, None, None, tail)


def exact_prob_geometric_consecutive(n: int, p: float, statistic,
                                     width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(property holds for C(n, p)) as a certified interval.

    ``statistic`` is a consecutive e/u/l PatternSpec (existence
    probability), an Automaton such as ``Property.oracle_form()`` gives, or a
    (statistic_id, params) pair, which names the Property whose form is used.
    """
    check_geometric(n, p)
    if isinstance(statistic, PatternSpec):
        statistic = pattern_automaton(statistic)
    elif not isinstance(statistic, Automaton):
        from .properties import Property  # properties builds its forms from this module
        sid, params = statistic
        statistic = Property(sid, dict(params)).oracle_form()
        if statistic is None:
            raise UnsupportedProperty(f"statistic {sid!r} has no geometric-model oracle")
    return transfer(n, p, statistic, width)


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
    _check_width(width)
    if spec.kind is not PatternKind.ORDERING:
        return transfer(k, p, pattern_automaton(spec), width)
    if p == 0.0:
        v = 1.0 if match((0,) * k, spec).exists else 0.0
        return ExactProbability(v, v, "window_enum")
    # the least V with union_bound(k, p, V) <= width, in closed form and then
    # checked against union_bound itself, which the rounding of log may miss by one
    V = max(math.ceil(math.log(width / k) / math.log(p)) - 1, 0)
    while V > 0 and union_bound(k, p, V - 1) <= width:
        V -= 1
    while union_bound(k, p, V) > width:
        V += 1
    if (V + 1) ** k > WINDOW_GUARD:
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
    return ExactProbability(min(lo, 1.0), min(lo + union_bound(k, p, V), 1.0), "window_enum")
