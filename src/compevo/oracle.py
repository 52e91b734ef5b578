"""Exact ground truth, independent of the closed forms.

Two routes:

* uniform model: full lexicographic enumeration; probabilities are exact
  rationals (#satisfying / binom(m+n-1, m));
* geometric model: the transition matrix of a small automaton that
  recognizes the property from the term sequence, raised to the n-th power
  by repeated squaring, O(S^3 log n) for S automaton states.  Term values
  are truncated at a cap V; the result is a certified interval [lo, hi] whose
  width is at most n * p**(V+1), the union bound on any term exceeding V
  (``any_square`` caps the square side instead, see _square_exists_lo).
  Properties whose automaton only needs finitely many value classes (exact,
  upper and lower consecutive patterns, value-specific squares, component and
  gap run lengths) come out exact, with lo == hi.  Exact means exact up to
  float64 rounding, which the interval does not cover: at n = 2*10^4 it
  measured at most 2.6e-13 against the same matrices powered in 40-digit
  arithmetic (9 forms, 5 values of p each).  It grows about linearly in n:
  the criterion-6 forms at p or q = n^(-1/2) were off by up to 2e-9 at
  n = 10^8 and 2.3e-8 at n = 10^9.

The automata here are built by the active-prefix-set construction, not from
the product formulas of the theory module, so agreement between the two is a
real cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .core import (GuardExceeded, PatternKind, PatternSpec, UnsupportedProperty,
                   count_compositions)

ENUMERATION_GUARD = 10_000_000
DEFAULT_WIDTH = 1e-9

FOUND = "FOUND"
DEAD = "DEAD"


@dataclass(frozen=True)
class ExactProbability:
    lo: float
    hi: float
    method: str  # "enumeration" | "transfer_dp" | "closed_form" | "window_enum"
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
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
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


def enumerate_uniform(n: int, m: int,
                      visitor: Callable[[tuple[int, ...]], None] | None = None) -> int:
    """Visit every n-composition of m once, lexicographically; return the count."""
    total = count_compositions(n, m)
    if total > ENUMERATION_GUARD:
        raise GuardExceeded(f"binom({m + n - 1},{m}) = {total} exceeds {ENUMERATION_GUARD}")
    seen = 0
    for comp in iter_uniform(n, m):
        if visitor is not None:
            visitor(comp)
        seen += 1
    return seen


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
    if not (0.0 <= p < 1.0):
        raise ValueError("need 0 <= p < 1")
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
    squarings.  The result is exact up to float64 rounding in the products,
    measured at most 2.6e-13 at n = 2*10^4 (the module docstring gives
    larger n).
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


# ----- consecutive e/u/l pattern existence: exact, value classes collapse ---

def _pattern_classes(spec: PatternSpec, p: float):
    """Value classes of an e/u pattern with exact geometric probabilities, plus a match table.

    match[class][j] says whether a value of that class matches pattern
    position j.  The class partition is chosen so membership determines every
    per-position comparison, making the DP exact.
    """
    pat = spec.terms
    q = 1.0 - p
    if spec.kind is PatternKind.EXACT:
        vals = sorted(set(pat))
        probs = [q * p ** v for v in vals]
        probs.append(max(1.0 - sum(probs), 0.0))  # any other value
        match = [[v == r for r in pat] for v in vals]
        match.append([False] * len(pat))
        return probs, match
    # upper: v >= r is decided by the interval between sorted cut points;
    # lower patterns split at r + 1 instead (_pattern_classes_lower).
    cuts = sorted(set(pat) | {0})
    edges = cuts + [None]
    probs, reps = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        probs.append(p ** a - (p ** b if b is not None else 0.0))
        reps.append(a)
    return probs, [[v >= r for r in pat] for v in reps]


def _pattern_classes_lower(spec: PatternSpec, p: float):
    pat = spec.terms
    cuts = sorted({r + 1 for r in pat} | {0})
    edges = cuts + [None]
    probs, match = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        probs.append(p ** a - (p ** b if b is not None else 0.0))
        # every v in [a, b) satisfies v <= r iff b <= r + 1; the interval
        # endpoints are cut points, so the test is well defined
        match.append([b is not None and b <= r + 1 for r in pat])
    return probs, match


def _prefix_set_prob(n: int, p: float, spec: PatternSpec) -> float:
    """P(the consecutive e/u/l pattern occurs in C(n, p)); exact."""
    if spec.kind is PatternKind.LOWER:
        probs, match = _pattern_classes_lower(spec, p)
    else:
        probs, match = _pattern_classes(spec, p)
    k = spec.length
    start = frozenset([0])

    def step(state, ci):
        row = match[ci]
        nxt = {j + 1 for j in state if j < k and row[j]}
        if k in nxt:
            return FOUND
        nxt.add(0)
        return frozenset(nxt)

    return _transfer(n, probs, start, step)


# ----- run-length automata over the zero/nonzero alphabet: exact ------------

def _binary_probs(p: float) -> list[float]:
    return [1.0 - p, p]  # class 0 = zero term, class 1 = nonzero term


def _cmax_ge(n: int, p: float, k: int) -> float:
    def step(state, ci):
        if ci == 0:
            return 0
        return FOUND if state + 1 >= k else state + 1
    return _transfer(n, _binary_probs(p), 0, step)


def _gmax_ge(n: int, p: float, k: int) -> float:
    def step(state, ci):
        if ci == 1:
            return 0
        return FOUND if state + 1 >= k else state + 1
    return _transfer(n, _binary_probs(p), 0, step)


def _cmin_gt(n: int, p: float, k: int) -> float:
    """P(there is at least one component and every component has length > k)."""
    # state: (current run length capped at k+1, any component seen)
    def step(state, ci):
        run, seen = state
        if ci == 1:
            return (min(run + 1, k + 1), True)
        if 0 < run <= k:
            return DEAD
        return (0, seen)

    def accept(state):
        run, seen = state
        if 0 < run <= k:
            return False
        return seen

    return _transfer(n, _binary_probs(p), (0, False), step, accept)


def _gmin_gt(n: int, p: float, k: int) -> float:
    def step(state, ci):
        run, seen = state
        if ci == 0:
            return (min(run + 1, k + 1), True)
        if 0 < run <= k:
            return DEAD
        return (0, seen)

    def accept(state):
        run, seen = state
        return seen and not (0 < run <= k)

    return _transfer(n, _binary_probs(p), (0, False), step, accept)


# ----- value-tracking automata with truncation ------------------------------

def _value_cap(n: int, p: float, width: float) -> int:
    """Smallest V with n * p**(V+1) <= width."""
    if p == 0.0:
        return 0
    v = max(int(math.ceil(math.log(width / n) / math.log(p))) - 1, 0)
    while n * p ** (v + 1) > width:
        v += 1
    return v


def _truncated_classes(p: float, cap: int) -> list[float]:
    """Values 0..cap each their own class, plus one lumped class for > cap."""
    q = 1.0 - p
    return [q * p ** v for v in range(cap + 1)] + [p ** (cap + 1)]


BIG = -1  # class index sentinel for the lumped > V values


def _equal_run_lo(n: int, p: float, k: int, nonzero_only: bool, width: float):
    """Pessimistic P(a run of k equal terms exists); big values never extend runs."""
    V = _value_cap(n, p, width)
    probs = _truncated_classes(p, V)

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

    lo = _transfer(n, probs, (None, 0), step)
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
    probs = _truncated_classes(p, W)

    def step(state, ci):
        val = ci if ci <= W else BIG
        last, run = state
        if val == BIG or val == 0:
            return (BIG, 0)
        run = run + 1 if val == last else 1
        if run >= val:
            return FOUND
        return (val, run)

    lo = _transfer(n, probs, (BIG, 0), step)
    return lo, min(side_tail(W), 1.0)


# ----- public dispatch ------------------------------------------------------

def exact_prob_geometric_consecutive(n: int, p: float, statistic,
                                     width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(property holds for C(n, p)) as a certified interval.

    ``statistic`` is a consecutive PatternSpec (exact/upper/lower kinds;
    existence probability) or a (statistic_id, params) pair among:
    cmax_ge/gmax_ge/cmin_gt/gmin_gt {k}, tmax_ge/tmin_ge {r},
    equal_run {k, nonzero}, square {k}, any_square {}, carlitz {}.
    """
    if not (0.0 <= p < 1.0):
        raise ValueError("need 0 <= p < 1")
    if isinstance(statistic, PatternSpec):
        spec = statistic
        if len(spec.blocks) != 1:
            raise UnsupportedProperty("only consecutive patterns are automaton-recognizable here")
        if spec.kind is PatternKind.ORDERING:
            raise UnsupportedProperty("ordering existence needs unbounded value tracking; "
                                      "use window_prob_geometric for per-position values")
        if spec.length > n:
            return ExactProbability(0.0, 0.0, "transfer_dp")
        v = _prefix_set_prob(n, p, spec)
        v = min(max(v, 0.0), 1.0)
        return ExactProbability(v, v, "transfer_dp")

    sid, params = statistic
    if sid in ("cmax_ge", "gmax_ge", "cmin_gt", "gmin_gt"):
        k = params["k"]
        fn = {"cmax_ge": _cmax_ge, "gmax_ge": _gmax_ge,
              "cmin_gt": _cmin_gt, "gmin_gt": _gmin_gt}[sid]
        v = min(max(fn(n, p, k), 0.0), 1.0)
        return ExactProbability(v, v, "transfer_dp")
    if sid == "tmax_ge":
        r = params["r"]
        v = 1.0 - math.exp(n * math.log1p(-p ** r)) if p > 0 else 0.0
        return ExactProbability(v, v, "closed_form")
    if sid == "tmin_ge":
        r = params["r"]
        v = p ** (r * n)
        return ExactProbability(v, v, "closed_form")
    if sid == "equal_run":
        k = params["k"]
        lo, tail = _equal_run_lo(n, p, k, params.get("nonzero", True), width)
        return ExactProbability(min(lo, 1.0), min(lo + tail, 1.0), "transfer_dp")
    if sid == "square":
        # a k-square is a run of k terms equal to k: exact via a 2-value class
        k = params["k"]
        from .core import PatternSpec as PS
        spec = PS(PatternKind.EXACT, ((k,) * k,))
        return exact_prob_geometric_consecutive(n, p, spec)
    if sid == "any_square":
        lo, tail = _square_exists_lo(n, p, width)
        return ExactProbability(min(lo, 1.0), min(lo + tail, 1.0), "transfer_dp")
    if sid == "carlitz":
        lo, tail = _equal_run_lo(n, p, 2, False, width)
        # carlitz = no adjacent equal pair; the pessimistic existence lo flips
        return ExactProbability(max(1.0 - lo - tail, 0.0), min(1.0 - lo, 1.0), "transfer_dp")
    raise UnsupportedProperty(f"statistic {sid!r} is not automaton-recognizable")


def window_prob_geometric(spec: PatternSpec, p: float,
                          width: float = DEFAULT_WIDTH) -> ExactProbability:
    """P(the consecutive pattern matches one fixed window of i.i.d. terms).

    Brute enumeration over value tuples with each term truncated at V; the
    tail correction is the union bound k * p**(V+1).  Supports all four kinds.
    """
    if len(spec.blocks) != 1:
        raise UnsupportedProperty("per-window probability needs a consecutive pattern")
    k = spec.length
    if not (0.0 <= p < 1.0):
        raise ValueError("need 0 <= p < 1")
    if p == 0.0:
        from .patterns import match_consecutive
        zero = (0,) * k
        hit = match_consecutive(zero, spec).exists
        v = 1.0 if hit else 0.0
        return ExactProbability(v, v, "window_enum")
    V = _value_cap(k, p, width)
    if (V + 1) ** k > 20_000_000:
        raise GuardExceeded(f"window enumeration needs {(V + 1) ** k} tuples")
    q = 1.0 - p
    # vectorized over the full grid of value tuples
    grids = np.indices((V + 1,) * k, dtype=np.int32).reshape(k, -1)
    logw = math.log(q) * k + math.log(p) * grids.sum(axis=0, dtype=np.float64)
    pat = np.asarray(spec.terms, dtype=np.int64)[:, None]
    if spec.kind is PatternKind.EXACT:
        ok = (grids == pat).all(axis=0)
    elif spec.kind is PatternKind.UPPER:
        ok = (grids >= pat).all(axis=0)
    elif spec.kind is PatternKind.LOWER:
        ok = (grids <= pat).all(axis=0)
    else:
        # ordering: every pairwise comparison must agree with the pattern
        ok = np.ones(grids.shape[1], dtype=bool)
        for i in range(k):
            for j in range(i + 1, k):
                want = np.sign(pat[i, 0] - pat[j, 0])
                ok &= np.sign(grids[i] - grids[j]) == want
    lo = float(np.exp(logw[ok]).sum())
    tail = min(k * p ** (V + 1), 1.0)
    return ExactProbability(min(lo, 1.0), min(lo + tail, 1.0), "window_enum")
