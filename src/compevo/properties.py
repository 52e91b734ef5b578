"""Statistic registry: one stable string id per monitored property.

``STATISTICS`` maps each id to its one ``StatisticDef`` row:

* the names of its parameters, each declared once in ``PARAMS``; ``Property``
  refuses any other key, a missing required one and a value of the wrong type;
* a scalar predicate on one composition, the slow reference route that the
  enumeration oracle and the brute-force cross-checks use;
* a vectorized predicate on a (trials, n) sample matrix, the Monte Carlo
  fast path.  Its loops never run over trials, and k consecutive positions
  cost about log2 k array passes (``_run_starts``).  Each pattern is one
  greedy scan of its blocks (``_batch_block_chain``: the first block
  unmasked, ``any`` on the last).
  An ordering pattern of several blocks holds where one of its exact patterns
  (``patterns.exact_patterns`` over the values of the row) does, so a row
  whose values give more than ``patterns.ASSIGNMENT_CAP`` of them is refused
  with ``GuardExceeded``, as ``patterns.match`` refuses it.
  ``Property.holds_batch`` hands it the matrix in row blocks of about
  ``BLOCK_TERMS`` terms, so that its temporaries stay in cache; a row's
  answer depends on that row alone, so the split never changes an answer;
* its geometric oracle form, when it has one: an ``oracle.Automaton`` that
  recognizes the statistic, read by ``oracle.transfer``;
* its ``theory.Scaling`` (threshold side and exponent, Poisson mean); a row that is a
  consecutive pattern (``square`` is k^k) takes that pattern's, from ``_consecutive_scaling``.

``Property`` (id, parameters, parsed pattern) is the picklable handle callers
hold; its methods look up the row.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, oracle, patterns, theory
from .core import (BlockStructure, GuardExceeded, PatternKind, PatternSpec,
                   UnsupportedProperty, as_terms, block_rows)
from .theory import Scaling

REQUIRED = object()  # the default of a parameter that must be given


class Param(NamedTuple):
    """A statistic parameter: the type of its value and its default."""

    type: type
    default: object = REQUIRED


PARAMS: dict[str, Param] = {
    "k": Param(int), "r": Param(int), "min_k": Param(int, 1), "c": Param(float, 0.0),
    "nonzero": Param(bool, True),  # False: zero terms make runs too
    "side": Param(str, None),  # "appear" or "disappear"; None: the row's own side
    "spec": Param(PatternSpec),  # or its text
}
# the values a type admits: a bool is no int and no float
_ADMITS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str,
           PatternSpec: PatternSpec, list: list, dict: dict}


def admits(kind: type, value) -> bool:
    """Whether ``value`` is a ``kind`` as ``PARAMS`` reads types: a bool is no int or float."""
    return isinstance(value, _ADMITS[kind]) and (kind is bool or not isinstance(value, bool))


def typed(kind: type, value, name: str, least: int | None = None):
    """``value`` as a ``kind`` of at least ``least``, else a ValueError naming ``name``."""
    if not admits(kind, value):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def _checked(sid: str, key: str, value):
    """``value`` as the type of parameter ``key``; ValueError when it is none."""
    kind = PARAMS[key].type
    if kind is PatternSpec and isinstance(value, str):
        return patterns.parse_pattern(value)
    return typed(kind, value, f"statistic {sid!r} parameter {key!r}")


@dataclass(frozen=True)
class StatisticDef:
    """Everything known about one statistic id; each callable takes the Property first."""

    holds: Callable[[Property, object], bool]
    holds_batch: Callable[[Property, np.ndarray], np.ndarray]
    keys: tuple[str, ...]  # the names in PARAMS it takes
    minimum: int | None = None  # the least value its one required parameter may take
    kind: PatternKind | None = None  # consecutive patterns of this kind only
    oracle_form: Callable[[Property], oracle.Automaton] | None = None  # None: no oracle
    scaling: Callable[[Property], Scaling] | None = None

    @property
    def needs(self) -> tuple[str, ...]:
        """The parameters it cannot be decided without: those with no default."""
        return tuple(key for key in self.keys if PARAMS[key].default is REQUIRED)


def lookup(statistic_id: str) -> StatisticDef:
    """The row of ``statistic_id``; UnsupportedProperty for an unknown id."""
    row = STATISTICS.get(statistic_id)
    if row is None:
        raise UnsupportedProperty(f"unknown statistic id {statistic_id!r}")
    return row


@dataclass(frozen=True)
class Property:
    """A statistic and its parameters; a parameter left out or None takes its
    default.  Once built, ``params`` holds each parameter of the row but
    ``spec``, of its type, and ``spec`` the parsed pattern of a pattern row."""

    statistic_id: str
    params: dict = field(default_factory=dict)
    spec: PatternSpec | None = None

    def __post_init__(self):
        sid, row = self.statistic_id, lookup(self.statistic_id)
        given = {key: value for key, value in self.params.items()
                 if value is not None or key not in PARAMS}
        if self.spec is not None:
            given["spec"] = self.spec
        unknown = sorted(set(given) - set(row.keys))
        if unknown:
            raise ValueError(f"statistic {sid!r} takes no parameter "
                             f"{', '.join(map(repr, unknown))}; it takes {list(row.keys)}")
        missing = [key for key in row.needs if key not in given]
        if missing:
            raise ValueError(f"statistic {sid!r} needs parameter {missing[0]!r}")
        values = {key: _checked(sid, key, given[key]) if key in given else PARAMS[key].default
                  for key in row.keys}
        if row.minimum is not None and values[row.needs[0]] < row.minimum:
            raise ValueError(f"{sid} needs {row.needs[0]} >= {row.minimum}, "
                             f"got {values[row.needs[0]]}")
        spec = values.pop("spec", None)
        if spec is not None and row.kind is not None:
            if len(spec.blocks) != 1:
                raise UnsupportedProperty(f"statistic {sid!r} needs a consecutive pattern")
            if spec.kind is not row.kind:
                raise UnsupportedProperty(f"pattern kind {spec.kind.value!r} does not fit {sid!r}")
        object.__setattr__(self, "params", values)
        object.__setattr__(self, "spec", spec)

    def holds(self, c) -> bool:
        """Predicate on one composition; the slow, obviously-correct route."""
        return STATISTICS[self.statistic_id].holds(self, c)

    def holds_batch(self, samples: np.ndarray) -> np.ndarray:
        """Boolean vector: property holds for each row of a (trials, n) matrix.

        The row's predicate sees blocks of ``core.block_rows(n)`` rows, so its
        temporaries stay in cache; each row's answer depends on that row
        alone, so the split never changes an answer.
        """
        row_batch = STATISTICS[self.statistic_id].holds_batch
        trials, n = samples.shape
        rows = block_rows(n)
        out = np.empty(trials, dtype=bool)
        for start in range(0, trials, rows):
            out[start:start + rows] = row_batch(self, samples[start:start + rows])
        return out

    def oracle_form(self) -> oracle.Automaton | None:
        """The automaton of the geometric DP oracle, or None when unsupported."""
        form = STATISTICS[self.statistic_id].oracle_form
        return None if form is None else form(self)


# -- rows ----------------------------------------------------------------------

def _appears(prop: Property) -> bool:
    return prop.params["side"] in (None, "appear")


def _pattern_batch(prop: Property, samples: np.ndarray) -> np.ndarray:
    spec = prop.spec
    if len(spec.blocks) > 1 and spec.kind is PatternKind.ORDERING:
        return _ordering_batch(samples, spec)
    return _batch_block_chain(samples, spec)


def _ordering_batch(samples: np.ndarray, spec: PatternSpec) -> np.ndarray:
    """An ordering pattern of several blocks holds where one of its exact
    patterns over the row's values does.

    The exact patterns come from the values of all the rows, each scanned only
    over the rows not found yet that hold every one of its values.  Rows whose
    values give more than ``patterns.ASSIGNMENT_CAP`` of them are halved until
    each part is under it, so a row is refused only as ``patterns.match``
    refuses it.
    """
    trials = samples.shape[0]
    values = np.unique(samples)
    try:
        chains = patterns.exact_patterns(spec, values.tolist())
    except GuardExceeded:
        if trials <= 1:
            raise
        return np.concatenate([_ordering_batch(samples[:trials // 2], spec),
                               _ordering_batch(samples[trials // 2:], spec)])
    present = np.zeros((trials, values.size), dtype=bool)  # row i holds values[j]
    present[np.arange(trials)[:, None], np.searchsorted(values, samples)] = True
    found = np.zeros(trials, dtype=bool)
    for chain in chains:
        cols = np.searchsorted(values, sorted(set(chain.terms)))
        todo = np.flatnonzero(~found & present[:, cols].all(axis=1))
        if todo.size:
            found[todo] = _batch_block_chain(samples[todo], chain)
    return found


def _consecutive_form(prop: Property):
    spec = prop.spec
    consecutive = len(spec.blocks) == 1 and spec.kind is not PatternKind.ORDERING
    return oracle.pattern_automaton(spec) if consecutive else None


def _pattern_row(kind: PatternKind | None, scaling=None) -> StatisticDef:
    return StatisticDef(holds=lambda prop, c: patterns.match(c, prop.spec).exists,
                        holds_batch=_pattern_batch, keys=("spec", "side"), kind=kind,
                        oracle_form=None if kind is PatternKind.ORDERING else _consecutive_form,
                        scaling=scaling or _spec_scaling)


# u:[0] matches every term: the form of a statistic that always holds
_ALWAYS = oracle.pattern_automaton(PatternSpec(PatternKind.UPPER, ((0,),)))


def _run_form(kind: PatternKind, term: int, k: int) -> oracle.Automaton:
    """k consecutive terms each matching ``term`` under ``kind``: the pattern term^k."""
    return oracle.pattern_automaton(PatternSpec(kind, ((term,) * k,))) if k > 0 else _ALWAYS


def _tmin_form(prop: Property) -> oracle.Automaton:
    # every term is >= r: a term of class [0, r) is DEAD, and every live state accepts
    r = prop.params["r"]
    if r <= 0:
        return _ALWAYS
    return oracle.Automaton(0, lambda state, a: oracle.DEAD if a < r else state, (0, r),
                            lambda state: True)


def _consecutive_scaling(kind: PatternKind, size: int, length: int, side, rho=1) -> Scaling:
    """Exact and upper e/u/l patterns appear at p* = n^(-1/size); exact and lower ones disappear
    at q* = n^(-1/length), of mean rho*alpha^length.  No terms: a run's k may be 10^20."""
    if kind is PatternKind.UPPER or (kind is PatternKind.EXACT and side != "disappear"):
        return Scaling("p", size, f"{kind.name.lower()} pattern of size {size}")
    return Scaling("q", length, f"{kind.name.lower()} pattern of length {length}", coefficient=rho)


def _spec_scaling(prop: Property) -> Scaling:
    spec = prop.spec
    rho = theory.lower_pattern_rho(spec) if spec.kind is PatternKind.LOWER else 1
    return _consecutive_scaling(spec.kind, spec.size, spec.length, prop.params["side"], rho)


def _ordering_scaling(prop: Property) -> Scaling:
    d, lam = theory.ordering_disappearance_params(prop.spec)
    return Scaling("q", d, f"repeated-term ordering pattern, lambda = {lam}", coefficient=1 / lam)


def _contains_scaling(prop: Property) -> Scaling:
    """A consecutive pattern scales as in its kind's row; the nonconsecutive and
    vincular ones have thresholds but no Poisson mean."""
    spec, appear = prop.spec, _appears(prop)
    if len(spec.blocks) == 1:
        return next(row.scaling(prop) for row in STATISTICS.values() if row.kind is spec.kind)
    exact = spec.kind is PatternKind.EXACT
    if spec.structure is BlockStructure.NONCONSECUTIVE and exact:
        if appear:
            r = max(spec.terms)
            return Scaling("p", r, f"nonconsecutive exact pattern, largest term {r}", None)
        return Scaling("q", 1, "any nonconsecutive exact pattern", None)
    if spec.structure is BlockStructure.VINCULAR and exact:
        if appear:
            s = max(sum(b) for b in spec.blocks)
            return Scaling("p", s, f"vincular pattern, largest block size {s}", None)
        ell = max(len(b) for b in spec.blocks)
        return Scaling("q", ell, f"vincular pattern, longest block length {ell}", None)
    if (spec.structure is BlockStructure.NONCONSECUTIVE and spec.kind is PatternKind.ORDERING
            and len(set(spec.terms)) == spec.length):
        k = spec.length
        return Scaling("p", k - 1, f"nonconsecutive total ordering pattern of length {k}", None)
    raise UnsupportedProperty(f"no threshold is known for pattern {spec}")


def _equal_run_batch(prop: Property, samples: np.ndarray) -> np.ndarray:
    k = prop.params["k"]
    mask = samples > 0 if prop.params["nonzero"] else np.ones_like(samples, dtype=bool)
    if k == 1:
        return mask.any(axis=1)
    eq = (samples[:, 1:] == samples[:, :-1]) & mask[:, 1:] & mask[:, :-1]
    return _has_true_run(eq, k - 1)


def _equal_run_form(prop: Property) -> oracle.Automaton:
    k = prop.params["k"]
    if k <= 0:
        return _ALWAYS
    nonzero = prop.params["nonzero"]  # then a zero term breaks every run
    return oracle.value_run_automaton(lambda v: k if v or not nonzero else None)


# Carlitz iff no value occurs twice in a row.  The state is the last value; a
# value above the cap (None) counts as equal to its neighbours, so the
# automaton misses only compositions with such a term.
_CARLITZ = oracle.Automaton(None, lambda last, v: oracle.DEAD if v is None or v == last else v,
                            None, lambda last: True)


def _any_square_form(prop: Property) -> oracle.Automaton:
    """A square of side v >= min_k is a run of v terms equal to v."""
    min_k = prop.params["min_k"]
    if min_k <= 0:
        return _ALWAYS
    # a square of side s occurs with probability at most n * p**(s*s), so sides
    # above w and from min_k on add at most n * p**(max(w+1, min_k)**2) / (1 - p);
    # none is longer than n.  The cap w is near the root of a term cap: ~w**2/2 states.
    return oracle.value_run_automaton(
        lambda v: v if v >= min_k else None,
        lambda n, p, w: n * p ** (max(w + 1, min_k) ** 2) / (1.0 - p) if w < n else 0.0)


def _equal_run_scaling(prop: Property) -> Scaling:
    k = prop.params["k"]
    if not _appears(prop):
        # zero runs are as rare as any other value's here, so nonzero is moot
        return Scaling("q", k - 1, f"runs of {k} equal terms", coefficient=1 / k)
    if not prop.params["nonzero"]:
        raise UnsupportedProperty("equal_run with nonzero=False has no appearance "
                                  "threshold: zero runs are there from the start")
    return Scaling("p", k, f"runs of {k} equal nonzero terms")


def _equal_terms_batch(prop: Property, samples: np.ndarray) -> np.ndarray:
    k = prop.params["k"]
    if k <= 1:
        return np.ones(samples.shape[0], dtype=bool)
    s = np.sort(samples, axis=1)
    if s.shape[1] < k:
        return np.zeros(samples.shape[0], dtype=bool)
    return (s[:, k - 1:] == s[:, : s.shape[1] - k + 1]).any(axis=1)


def _square_holds(prop: Property, c) -> bool:
    k = prop.params["k"]
    if k == 1:  # square_counts leaves out the trivial 1-squares
        return 1 in as_terms(c)
    return analysis.square_counts(c).get(k, 0) > 0


def _any_square_batch(prop: Property, samples: np.ndarray) -> np.ndarray:
    """A square of side k >= min_k is a run of k terms equal to k.

    ``run`` marks where k equal terms start whose value could still be a side:
    at least k and min_k, so never zero.  It grows by one term per pass, so
    the passes stop at the longest such run, not at the largest term squared.
    """
    min_k = prop.params["min_k"]
    trials, n = samples.shape
    if min_k <= 0:  # side 0: every row
        return np.ones(trials, dtype=bool)
    out = np.zeros(trials, dtype=bool)
    run = samples >= min_k
    for k in range(1, n + 1):
        if k > 1:
            run = run[:, :-1] & (samples[:, k - 1:] == samples[:, : n - k + 1])
        if not run.any():
            break
        if k >= min_k:
            square = run & (samples[:, : n - k + 1] == k)
            out |= square.any(axis=1)
            run ^= square  # a run of k's is no square of a larger side
    return out


def _longest_run(report, kind: PatternKind, term: int, side: str) -> StatisticDef:
    """Longest component or gap >= k: the pattern term^k of ``kind``, on its ``side``."""
    return StatisticDef(
        holds=lambda prop, c: report(c).longest >= prop.params["k"],
        holds_batch=lambda prop, x: _has_true_run(patterns.COMPARE[kind](x, term),
                                                  prop.params["k"]),
        keys=("k", "side"),
        oracle_form=lambda prop: _run_form(kind, term, prop.params["k"]),
        scaling=lambda prop: _consecutive_scaling(kind, term * prop.params["k"],
                                                  prop.params["k"], side))


def _shortest_run(report, run_class: int, param: str, what: str) -> StatisticDef:
    """Some component (or gap) exists and every one is longer than k; the
    oracle's zero/nonzero alphabet calls its terms class ``run_class``."""
    def holds(prop, c):
        rep = report(c)
        return rep.count > 0 and rep.shortest > prop.params["k"]
    return StatisticDef(
        holds=holds,
        holds_batch=lambda prop, x: _min_run_gt((x > 0) if run_class else (x == 0),
                                                prop.params["k"]),
        keys=("k", "side"),
        oracle_form=lambda prop: oracle.shortest_run_automaton(prop.params["k"], run_class),
        scaling=lambda prop: Scaling(param, 2, f"{what} of length <= {prop.params['k']}",
                                     coefficient=prop.params["k"]))


STATISTICS: dict[str, StatisticDef] = {
    "exact_consec": _pattern_row(PatternKind.EXACT),
    "upper_consec": _pattern_row(PatternKind.UPPER),
    "lower_consec": _pattern_row(PatternKind.LOWER),
    "ordering_consec": _pattern_row(PatternKind.ORDERING, _ordering_scaling),
    "contains": _pattern_row(None, _contains_scaling),
    # a component of length >= k is the upper pattern 1^k, a gap the exact pattern 0^k
    "cmax_ge": _longest_run(analysis.components, PatternKind.UPPER, 1, "appear"),
    "gmax_ge": _longest_run(analysis.gaps, PatternKind.EXACT, 0, "disappear"),
    "cmin_gt": _shortest_run(analysis.components, 1, "q", "components"),
    "gmin_gt": _shortest_run(analysis.gaps, 0, "p", "gaps"),
    "tmax_ge": StatisticDef(
        holds=lambda prop, c: analysis.extremes(c).tmax >= prop.params["r"],
        holds_batch=lambda prop, x: (x >= prop.params["r"]).any(axis=1),
        keys=("r", "side"),
        # the one-term upper pattern [r]; [0] for r <= 0 matches every term
        oracle_form=lambda prop: _run_form(PatternKind.UPPER, max(prop.params["r"], 0), 1),
        scaling=lambda prop: _consecutive_scaling(PatternKind.UPPER, prop.params["r"], 1, None)),
    "tmin_ge": StatisticDef(
        holds=lambda prop, c: analysis.extremes(c).tmin >= prop.params["r"],
        holds_batch=lambda prop, x: (x >= prop.params["r"]).all(axis=1),
        keys=("r", "side"),
        oracle_form=_tmin_form,
        scaling=lambda prop: Scaling("q", 1, f"terms < {prop.params['r']}",
                                     coefficient=prop.params["r"])),
    "equal_run": StatisticDef(
        holds=lambda prop, c: analysis.equal_runs(
            c, nonzero_only=prop.params["nonzero"]).longest >= prop.params["k"],
        holds_batch=_equal_run_batch,
        keys=("k", "nonzero", "side"),
        oracle_form=_equal_run_form,
        scaling=_equal_run_scaling),
    "equal_terms": StatisticDef(
        holds=lambda prop, c: analysis.max_multiplicity(c) >= prop.params["k"],
        holds_batch=_equal_terms_batch,
        keys=("k", "side"),
        # k-tuples of equal terms anywhere: about n^k q^(k-1) / (k k!) of them
        # (k < 1 has no threshold, and theory refuses it by its power)
        scaling=lambda prop: Scaling(
            "q", prop.params["k"] - 1, f"{prop.params['k']} equal terms anywhere",
            coefficient=(1 / (prop.params["k"] * math.factorial(prop.params["k"]))
                         if prop.params["k"] >= 1 else None),
            positions=prop.params["k"])),
    "carlitz": StatisticDef(
        holds=lambda prop, c: analysis.is_carlitz(c),
        holds_batch=lambda prop, x: (x[:, 1:] != x[:, :-1]).all(axis=1),
        keys=("side",),
        oracle_form=lambda prop: _CARLITZ,
        scaling=lambda prop: Scaling("q", 1, "adjacent equal terms (Carlitz iff none occur)",
                                     coefficient=0.5)),
    "increasing_run": StatisticDef(
        holds=lambda prop, c: analysis.longest_increasing_run(c) >= prop.params["k"],
        # for k <= 1, _has_true_run finds k - 1 <= 0 rises on every row
        holds_batch=lambda prop, x: _has_true_run(x[:, 1:] > x[:, :-1], prop.params["k"] - 1),
        keys=("k", "side"),
        scaling=lambda prop: Scaling("p", prop.params["k"] * (prop.params["k"] - 1) // 2,
                                     f"increasing runs of length {prop.params['k']}")),
    "square": StatisticDef(
        holds=_square_holds,
        holds_batch=lambda prop, x: _has_true_run(x == prop.params["k"], prop.params["k"]),
        keys=("k", "side"),
        # a 0-square has no defined meaning: holds and holds_batch would disagree
        minimum=1,
        # a k-square is a run of k terms equal to k: the exact pattern k^k
        oracle_form=lambda prop: _run_form(PatternKind.EXACT, prop.params["k"], prop.params["k"]),
        scaling=lambda prop: _consecutive_scaling(PatternKind.EXACT, prop.params["k"] ** 2,
                                                  prop.params["k"], prop.params["side"])),
    "any_square": StatisticDef(
        holds=lambda prop, c: analysis.largest_square(c) >= prop.params["min_k"],
        holds_batch=_any_square_batch,
        keys=("min_k",),
        oracle_form=_any_square_form),
}


# -- vectorized helpers ----------------------------------------------------------

def _run_starts(mask: np.ndarray, k: int) -> np.ndarray:
    """(trials, n - k + 1) mask of where k >= 1 consecutive Trues start, no column
    when k > n.  Each pass doubles the run length checked and one overlapping
    pass adds the rest, so a run of k costs about log2 k passes."""
    acc, length = mask, 1
    while 2 * length <= k:
        acc = acc[:, :-length] & acc[:, length:]
        length *= 2
    if length < k:
        acc = acc[:, :length - k] & acc[:, k - length:]
    return acc


def _has_true_run(mask: np.ndarray, k: int) -> np.ndarray:
    """Row-wise: does a run of k consecutive True values exist."""
    if k <= 0:
        return np.ones(mask.shape[0], dtype=bool)
    return _run_starts(mask, k).any(axis=1)


def _min_run_gt(mask: np.ndarray, k: int) -> np.ndarray:
    """Row-wise: at least one maximal True run exists and all have length > k."""
    short = mask.copy()
    short[:, 1:] &= ~mask[:, :-1]  # the start of each maximal run...
    long = _run_starts(mask, max(k, 0) + 1)
    short[:, :long.shape[1]] &= ~long  # ...that k + 1 Trues do not follow
    return mask.any(axis=1) & ~short.any(axis=1)


def _anchor_mask(samples: np.ndarray, kind: PatternKind,
                 block: tuple[int, ...]) -> np.ndarray:
    """(trials, n - len + 1) mask of the anchors where ``block`` matches; the
    caller ensures len(block) <= n.  Each run of equal e/u/l terms is one
    comparison and one ``_run_starts``."""
    k = len(block)
    w = samples.shape[1] - k + 1

    def window(j, width=w):
        return samples[:, j : j + width]

    if kind is PatternKind.ORDERING:
        # compare the terms directly: a difference would wrap for narrow or unsigned dtypes
        tests = (patterns.relation(block[a], block[b])(window(a), window(b))
                 for a in range(k) for b in range(a + 1, k))
    else:
        runs = [(term, len(list(group))) for term, group in groupby(block)]
        offsets = accumulate((run for _, run in runs), initial=0)
        tests = (_run_starts(patterns.COMPARE[kind](window(j, w + run - 1), term), run)
                 for j, (term, run) in zip(offsets, runs))
    acc = next(tests, None)
    if acc is None:  # a one-term ordering block matches at every anchor
        return np.ones((samples.shape[0], w), dtype=bool)
    for test in tests:
        acc &= test
    return acc


def _batch_block_chain(samples: np.ndarray, spec: PatternSpec) -> np.ndarray:
    """Row-wise existence of a pattern whose blocks ``_anchor_mask`` decides:
    an exact, upper or lower pattern of any number of blocks, or an ordering
    pattern of one block.

    Blocks must occur in order on disjoint ranges, adjacent blocks allowed
    (``patterns.match`` with ``strict=False``).  Placing each block at its
    leftmost anchor after the previous block's end never rules out a later
    block, so one greedy pass over the blocks decides existence.  The first
    block may start anywhere, so it takes no position mask, and the last needs
    only ``any``: a one-block pattern costs one anchor mask and one ``any``.
    """
    trials = samples.shape[0]
    if spec.length > samples.shape[1]:
        return np.zeros(trials, dtype=bool)
    ok = np.ones(trials, dtype=bool)
    pos = None  # earliest allowed anchor per row, after the first block
    for i, block in enumerate(spec.blocks, 1):
        mask = _anchor_mask(samples, spec.kind, block)
        if pos is not None:
            mask &= np.arange(mask.shape[1]) >= pos[:, None]
        if i == len(spec.blocks):
            return ok & mask.any(axis=1)
        a = mask.argmax(axis=1)
        ok &= mask[np.arange(trials), a]
        pos = a + len(block)
