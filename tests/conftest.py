import math

import numpy as np
import pytest
from scipy import stats as sps

from compevo import experiment
from compevo.properties import Property


@pytest.fixture(autouse=True)
def _drop_kept_pool():
    """Shut down the pool run_sweep kept, if any, after each test.  Its workers
    keep the module state of the moment they were forked, so a pool kept past
    one test would carry that test's state (a monkeypatch, say) into the next."""
    yield
    experiment._drop_pool()


# 50-term composition of 80 used in the chart-fidelity tests
CHART_A = [0, 0, 2, 3, 1, 0, 1, 5, 0, 0, 0, 3, 2, 0, 1, 1, 2, 2, 2, 0,
           4, 3, 0, 0, 4, 4, 4, 4, 1, 0, 3, 1, 5, 1, 6, 3, 3, 0, 1, 0,
           0, 0, 0, 1, 0, 1, 1, 2, 1, 2]

# 24-term composition used in the pattern-count tests
CHART_B = [2, 0, 2, 0, 3, 1, 0, 2, 0, 2, 0, 3, 1, 0, 2, 0, 3, 1, 0, 2,
           0, 2, 0, 2]


# every statistic id at least once; the route-agreement and oracle tests iterate it
PROPERTIES = [
    Property("cmax_ge", {"k": 1}), Property("cmax_ge", {"k": 3}),
    Property("gmax_ge", {"k": 2}),
    # k = 0 holds on every composition
    Property("cmax_ge", {"k": 0}), Property("gmax_ge", {"k": 0}),
    Property("cmin_gt", {"k": 1}), Property("gmin_gt", {"k": 2}),
    Property("tmax_ge", {"r": 2}), Property("tmax_ge", {"r": 0}),
    Property("tmin_ge", {"r": 1}),
    Property("equal_run", {"k": 2}), Property("equal_run", {"k": 3, "nonzero": False}),
    # one term is a run of one, and a run of none is everywhere
    Property("equal_run", {"k": 1}), Property("equal_run", {"k": 0}),
    Property("equal_terms", {"k": 3}), Property("equal_terms", {"k": 1}),
    Property("carlitz"),
    Property("increasing_run", {"k": 3}),
    Property("square", {"k": 1}), Property("square", {"k": 2}),
    Property("any_square"), Property("any_square", {"min_k": 0}),
    Property("any_square", {"min_k": 2}),
    Property("exact_consec", spec="e:[1,0]"),
    Property("upper_consec", spec="u:[1,1]"),
    Property("lower_consec", spec="l:[0,1]"),
    Property("ordering_consec", spec="o:[0,1,0]"),
    Property("contains", spec="e:[2]"),
    # vincular exact/upper/lower: the greedy block-chain scan
    Property("contains", spec="e:1,[0,2]"),
    Property("contains", spec="u:[1,1],2"),
    Property("contains", spec="l:[0,1],0,[1]"),
    Property("contains", spec="e:[0,0],[0,0]"),
    # all-singleton exact/upper/lower: the same scan
    Property("contains", spec="e:1,2"),
    Property("contains", spec="u:1,1,1"),
    Property("contains", spec="l:0,0"),
    # a block longer than every n the route-agreement test draws (n <= 8)
    Property("contains", spec="e:1,[0,0,0,0,0,0,0,0,0,0,0]"),
    # ordering patterns of several blocks: a union of exact block chains
    Property("contains", spec="o:0,1,0"),
    Property("contains", spec="o:[0,1],0"), Property("contains", spec="o:0,[1,0]"),
]


@pytest.fixture
def chart_a():
    return list(CHART_A)


@pytest.fixture
def chart_b():
    return list(CHART_B)


def naive_match_count(terms, spec, strict=False):
    """Brute force over all block placements; the authoritative reference."""
    return len(naive_placements(terms, spec, strict))


def naive_placements(terms, spec, strict=False):
    """Every matching placement, as 1-based block starts in lexicographic order."""
    from compevo.core import BlockStructure, PatternKind

    terms = list(terms)
    k = spec.length
    n = len(terms)
    blocks = spec.blocks
    pat = spec.terms
    lens = [len(b) for b in blocks]
    strict = strict and spec.structure is BlockStructure.VINCULAR

    def ok_pair(v, r):
        if spec.kind is PatternKind.EXACT:
            return v == r
        if spec.kind is PatternKind.UPPER:
            return v >= r
        if spec.kind is PatternKind.LOWER:
            return v <= r
        return True

    found = []

    def rec(bi, minstart, chosen):
        if bi == len(blocks):
            idxs = []
            for st, b in zip(chosen, blocks):
                idxs += list(range(st, st + len(b)))
            vals = [terms[i] for i in idxs]
            if spec.kind is PatternKind.ORDERING:
                ok = all((vals[a] < vals[b]) == (pat[a] < pat[b])
                         and (vals[a] == vals[b]) == (pat[a] == pat[b])
                         for a in range(k) for b in range(k))
            else:
                ok = all(ok_pair(v, r) for v, r in zip(vals, pat))
            if ok:
                found.append(tuple(st + 1 for st in chosen))
            return
        lo = minstart + (1 if (strict and bi > 0) else 0)
        for st in range(lo, n - lens[bi] + 1):
            rec(bi + 1, st + lens[bi], chosen + [st])

    rec(0, 0, [])
    return found


def naive_stats(terms):
    """Independent single-pass-free reimplementation of the statistics."""
    terms = list(terms)
    n = len(terms)

    def runs(pred):
        out = []
        i = 0
        while i < n:
            if pred(terms[i]):
                j = i
                while j < n and pred(terms[j]):
                    j += 1
                out.append((i + 1, j - i))
                i = j
            else:
                i += 1
        return out

    comp = runs(lambda t: t > 0)
    gap = runs(lambda t: t == 0)
    eq = []
    i = 0
    while i < n:
        j = i
        while j < n and terms[j] == terms[i]:
            j += 1
        eq.append((i + 1, j - i, terms[i]))
        i = j
    squares = {}
    best_sq = 0
    for _, length, v in eq:
        if 1 <= v <= length:
            best_sq = max(best_sq, v)
            if v >= 2:
                squares[v] = squares.get(v, 0) + length - v + 1
    inc = best = 1
    for i in range(1, n):
        inc = inc + 1 if terms[i] > terms[i - 1] else 1
        best = max(best, inc)
    from collections import Counter
    mult = max(Counter(terms).values())
    return {
        "components": len(comp),
        "gaps": len(gap),
        "cmax": max((l for _, l in comp), default=0),
        "cmin": min((l for _, l in comp), default=0),
        "gmax": max((l for _, l in gap), default=0),
        "gmin": min((l for _, l in gap), default=0),
        "tmax": max(terms),
        "tmin": min(terms),
        "largest_square": best_sq,
        "square_counts": squares,
        "longest_increasing_run": best if n else 0,
        "is_carlitz": all(terms[i] != terms[i - 1] for i in range(1, n)),
        "max_multiplicity": mult,
    }


def chi_square_gof(observed, expected_probs) -> tuple[float, float]:
    """One-sample chi-square against given cell probabilities; (stat, p-value)."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected_probs, dtype=float) * observed.sum()
    keep = expected > 0
    if not np.all(observed[~keep] == 0):
        return math.inf, 0.0
    stat, p = sps.chisquare(observed[keep], expected[keep])
    return float(stat), float(p)


def chi_square_two_sample(counts_a, counts_b) -> tuple[float, float]:
    """Two-sample chi-square homogeneity test over a shared support."""
    table = np.vstack([np.asarray(counts_a, float), np.asarray(counts_b, float)])
    keep = table.sum(axis=0) > 0
    stat, p, _, _ = sps.chi2_contingency(table[:, keep])
    return float(stat), float(p)
