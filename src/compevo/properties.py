"""Statistic registry: one stable string id per monitored property.

Each id resolves to

* a scalar predicate on a single composition (used by the enumeration oracle
  and by brute-force cross-checks), and
* a vectorized predicate on a (trials, n) sample matrix (the Monte Carlo
  fast path).  Its loops run over pattern length and block count, never over
  trials, with one exception: a nonconsecutive ordering pattern has no
  greedy scan, so it is decided by one depth-first ``patterns.match`` per row.

Ids double as the selector for the theory module's Poisson means and
threshold locations and for the geometric DP oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import analysis, patterns
from .core import PatternKind, PatternSpec, UnsupportedProperty

PATTERN_STATISTICS = {"exact_consec", "upper_consec", "lower_consec", "ordering_consec",
                      "contains"}
SCALAR_STATISTICS = {"cmax_ge", "gmax_ge", "cmin_gt", "gmin_gt", "tmax_ge", "tmin_ge",
                     "equal_run", "equal_terms", "carlitz", "increasing_run", "square",
                     "any_square"}
KNOWN_STATISTICS = PATTERN_STATISTICS | SCALAR_STATISTICS
# the parameter each statistic cannot be decided without
REQUIRED_PARAM = {"cmax_ge": "k", "gmax_ge": "k", "cmin_gt": "k", "gmin_gt": "k",
                  "equal_run": "k", "equal_terms": "k", "increasing_run": "k", "square": "k",
                  "tmax_ge": "r", "tmin_ge": "r"}


@dataclass(frozen=True)
class Property:
    statistic_id: str
    params: dict = field(default_factory=dict)
    spec: PatternSpec | None = None

    def __post_init__(self):
        sid = self.statistic_id
        if sid not in KNOWN_STATISTICS:
            raise UnsupportedProperty(f"unknown statistic id {sid!r}")
        if sid in PATTERN_STATISTICS:
            spec = self.spec
            if spec is None and "spec" in self.params:
                spec = self.params["spec"]
            if isinstance(spec, str):
                spec = patterns.parse_pattern(spec)
            if not isinstance(spec, PatternSpec):
                raise UnsupportedProperty(f"statistic {sid!r} needs a pattern")
            object.__setattr__(self, "spec", spec)
            if sid != "contains" and len(spec.blocks) != 1:
                raise UnsupportedProperty(f"statistic {sid!r} needs a consecutive pattern")
            expect = {"exact_consec": PatternKind.EXACT, "upper_consec": PatternKind.UPPER,
                      "lower_consec": PatternKind.LOWER, "ordering_consec": PatternKind.ORDERING}
            if sid != "contains" and spec.kind is not expect[sid]:
                raise UnsupportedProperty(f"pattern kind {spec.kind.value!r} does not fit {sid!r}")
        need = REQUIRED_PARAM.get(sid)
        if need is not None and need not in self.params:
            raise ValueError(f"statistic {sid!r} needs parameter {need!r}")
        # a 0-square has no defined meaning: holds and holds_batch would disagree
        if sid == "square" and self.params["k"] < 1:
            raise ValueError(f"square needs k >= 1, got {self.params['k']}")

    # -- scalar route --------------------------------------------------------

    def holds(self, c) -> bool:
        """Predicate on one composition; the slow, obviously-correct route."""
        sid, pr = self.statistic_id, self.params
        if sid in PATTERN_STATISTICS:
            return patterns.match(c, self.spec).exists
        if sid == "cmax_ge":
            return analysis.components(c).longest >= pr["k"]
        if sid == "gmax_ge":
            return analysis.gaps(c).longest >= pr["k"]
        if sid == "cmin_gt":
            rep = analysis.components(c)
            return rep.count > 0 and rep.shortest > pr["k"]
        if sid == "gmin_gt":
            rep = analysis.gaps(c)
            return rep.count > 0 and rep.shortest > pr["k"]
        if sid == "tmax_ge":
            return analysis.extremes(c).tmax >= pr["r"]
        if sid == "tmin_ge":
            return analysis.extremes(c).tmin >= pr["r"]
        if sid == "equal_run":
            rep = analysis.equal_runs(c, nonzero_only=pr.get("nonzero", True))
            return rep.longest >= pr["k"]
        if sid == "equal_terms":
            return analysis.max_multiplicity(c) >= pr["k"]
        if sid == "carlitz":
            return analysis.is_carlitz(c)
        if sid == "increasing_run":
            return analysis.longest_increasing_run(c) >= pr["k"]
        if sid == "square":
            k = pr["k"]
            if k == 1:
                return bool(np.any(np.asarray(c if not hasattr(c, "terms") else c.terms) == 1))
            return analysis.square_counts(c).get(k, 0) > 0
        if sid == "any_square":
            return analysis.largest_square(c) >= pr.get("min_k", 1)
        raise UnsupportedProperty(sid)

    # -- vectorized route ----------------------------------------------------

    def holds_batch(self, samples: np.ndarray) -> np.ndarray:
        """Boolean vector: property holds for each row of a (trials, n) matrix."""
        sid, pr = self.statistic_id, self.params
        if sid == "cmax_ge":
            return _has_true_run(samples > 0, pr["k"])
        if sid == "gmax_ge":
            return _has_true_run(samples == 0, pr["k"])
        if sid == "cmin_gt":
            return _min_run_gt(samples > 0, pr["k"])
        if sid == "gmin_gt":
            return _min_run_gt(samples == 0, pr["k"])
        if sid == "tmax_ge":
            return (samples >= pr["r"]).any(axis=1)
        if sid == "tmin_ge":
            return (samples >= pr["r"]).all(axis=1)
        if sid == "carlitz":
            if samples.shape[1] == 1:
                return np.ones(samples.shape[0], dtype=bool)
            return (samples[:, 1:] != samples[:, :-1]).all(axis=1)
        if sid == "equal_run":
            k = pr["k"]
            mask = np.ones_like(samples, dtype=bool)
            if pr.get("nonzero", True):
                mask = samples > 0
            if k == 1:
                return mask.any(axis=1)
            eq = (samples[:, 1:] == samples[:, :-1]) & mask[:, 1:] & mask[:, :-1]
            return _has_true_run(eq, k - 1)
        if sid == "increasing_run":
            k = pr["k"]
            if k <= 1:
                return np.ones(samples.shape[0], dtype=bool)
            rising = samples[:, 1:] > samples[:, :-1]
            return _has_true_run(rising, k - 1)
        if sid == "equal_terms":
            k = pr["k"]
            if k <= 1:
                return np.ones(samples.shape[0], dtype=bool)
            s = np.sort(samples, axis=1)
            if s.shape[1] < k:
                return np.zeros(samples.shape[0], dtype=bool)
            return (s[:, k - 1:] == s[:, : s.shape[1] - k + 1]).any(axis=1)
        if sid == "square":
            k = pr["k"]
            return _has_true_run(samples == k, k)
        if sid == "any_square":
            kmin = pr.get("min_k", 1)
            if kmin <= 0:  # largest_square >= 0 always holds
                return np.ones(samples.shape[0], dtype=bool)
            n = samples.shape[1]
            kmax = min(int(samples.max(initial=0)), n)
            out = np.zeros(samples.shape[0], dtype=bool)
            for k in range(kmin, kmax + 1):
                out |= _has_true_run(samples == k, k)
            return out
        if sid in PATTERN_STATISTICS:
            spec = self.spec
            if len(spec.blocks) == 1:
                return _batch_consecutive(samples, spec)
            if spec.kind is not PatternKind.ORDERING:
                return _batch_block_chain(samples, spec)
            # no greedy scan decides ordering patterns; mixed-block ones raise
            # UnsupportedProperty from patterns.match on the first row
            return np.fromiter((patterns.match(row, spec).exists for row in samples),
                               dtype=bool, count=samples.shape[0])
        raise UnsupportedProperty(sid)

    # -- hooks ---------------------------------------------------------------

    def oracle_form(self):
        """Argument for the geometric DP oracle, or None when unsupported."""
        sid, pr = self.statistic_id, self.params
        if sid in PATTERN_STATISTICS:
            spec = self.spec
            if len(spec.blocks) == 1 and spec.kind is not PatternKind.ORDERING:
                return spec
            return None
        if sid in ("cmax_ge", "gmax_ge", "cmin_gt", "gmin_gt"):
            return (sid, {"k": pr["k"]})
        if sid in ("tmax_ge", "tmin_ge"):
            return (sid, {"r": pr["r"]})
        if sid == "equal_run":
            return (sid, {"k": pr["k"], "nonzero": pr.get("nonzero", True)})
        if sid == "square":
            return (sid, {"k": pr["k"]})
        if sid == "carlitz":
            return ("carlitz", {})
        if sid == "any_square" and pr.get("min_k", 1) == 1:
            # the oracle's automaton asks for a square of side >= 1 only
            return ("any_square", {})
        return None


def _has_true_run(mask: np.ndarray, k: int) -> np.ndarray:
    """Row-wise: does a run of k consecutive True values exist."""
    n = mask.shape[1]
    if k <= 0:
        return np.ones(mask.shape[0], dtype=bool)
    if k > n:
        return np.zeros(mask.shape[0], dtype=bool)
    acc = mask[:, : n - k + 1].copy()
    for i in range(1, k):
        acc &= mask[:, i : n - k + 1 + i]
    return acc.any(axis=1)


def _min_run_gt(mask: np.ndarray, k: int) -> np.ndarray:
    """Row-wise: at least one maximal True run exists and all have length > k."""
    trials, n = mask.shape
    edge = np.ones((trials, 1), dtype=bool)
    pad = np.zeros((trials, 1), dtype=bool)
    # both boundaries act as run delimiters
    z = np.concatenate([edge, ~mask, edge], axis=1)
    t = np.concatenate([pad, mask, pad], axis=1)
    # a run starting at j (z at j-1, t at j) is short iff a zero occurs
    # within the next k positions
    starts = z[:, :-1] & t[:, 1:]
    width = starts.shape[1]
    short = np.zeros_like(starts)
    for d in range(1, k + 1):
        shifted = np.zeros_like(starts)
        if width - d > 0:
            shifted[:, : width - d] = z[:, 1 + d :]
        short |= shifted
    bad = (starts & short).any(axis=1)
    return mask.any(axis=1) & ~bad


def _anchor_mask(samples: np.ndarray, kind: PatternKind,
                 block: tuple[int, ...]) -> np.ndarray:
    """(trials, n - len + 1) mask of the anchors where ``block`` matches.

    Loops only over the block length; the caller ensures len(block) <= n.
    """
    k = len(block)
    w = samples.shape[1] - k + 1
    acc = np.ones((samples.shape[0], w), dtype=bool)
    if kind is PatternKind.ORDERING:
        for a in range(k):
            for b in range(a + 1, k):
                want = np.sign(block[b] - block[a])
                acc &= np.sign(samples[:, b : b + w] - samples[:, a : a + w]) == want
    else:
        for j, r in enumerate(block):
            col = samples[:, j : j + w]
            if kind is PatternKind.EXACT:
                acc &= col == r
            elif kind is PatternKind.UPPER:
                acc &= col >= r
            else:
                acc &= col <= r
    return acc


def _batch_consecutive(samples: np.ndarray, spec: PatternSpec) -> np.ndarray:
    """Row-wise existence of a consecutive pattern; loops only over k."""
    if len(spec.terms) > samples.shape[1]:
        return np.zeros(samples.shape[0], dtype=bool)
    return _anchor_mask(samples, spec.kind, spec.terms).any(axis=1)


def _batch_block_chain(samples: np.ndarray, spec: PatternSpec) -> np.ndarray:
    """Row-wise existence of a multi-block exact/upper/lower pattern.

    Blocks must occur in order on disjoint ranges, adjacent blocks allowed
    (``patterns.match`` with ``strict=False``).  Placing each block at its
    leftmost anchor after the previous block's end never rules out a later
    block, so one greedy pass over the blocks decides existence.
    """
    trials, n = samples.shape
    rows = np.arange(trials)
    ok = np.ones(trials, dtype=bool)
    pos = np.zeros(trials, dtype=np.intp)  # earliest allowed anchor per row
    for block in spec.blocks:
        if len(block) > n:
            return np.zeros(trials, dtype=bool)
        mask = _anchor_mask(samples, spec.kind, block)
        mask &= np.arange(mask.shape[1]) >= pos[:, None]
        a = mask.argmax(axis=1)
        ok &= mask[rows, a]
        pos = a + len(block)
    return ok
