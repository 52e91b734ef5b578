"""Deterministic single-composition statistics: the scalar reference route.

Components (maximal nonzero runs), gaps (maximal zero runs), equal runs,
squares, increasing runs, extreme terms, Carlitz and multiplicity checks.
Each statistic converts its input once to a list of ints and makes a
single pass over it in plain Python, with no array set-up per call; every
run comes from one scanner, ``_runs``.  With ``patterns.match`` this is the
scalar route, the plain-Python reference that the vectorized ``holds_batch``
code is checked against, so the two share no code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import lt

from .core import TermsLike, as_terms


@dataclass(frozen=True)
class Run:
    start: int  # 1-based index of the first term of the run
    length: int


@dataclass(frozen=True)
class RunReport:
    kind: str  # "component" | "gap" | "equal-run" | "increasing-run"
    runs: tuple[Run, ...]

    @property
    def count(self) -> int:
        return len(self.runs)

    @property
    def longest(self) -> int:
        return max((r.length for r in self.runs), default=0)

    @property
    def shortest(self) -> int:
        return min((r.length for r in self.runs), default=0)


def _runs(values, key=None) -> list[tuple[object, Run]]:
    """Maximal runs of equal ``key(value)``, in order, as (key, Run) pairs."""
    out = []
    start = 1
    for k, group in groupby(values, key):
        length = len(list(group))
        out.append((k, Run(start, length)))
        start += length
    return out


def _components_and_gaps(terms: list[int]) -> tuple[RunReport, RunReport]:
    runs = _runs(terms, bool)
    return (RunReport("component", tuple(r for nonzero, r in runs if nonzero)),
            RunReport("gap", tuple(r for nonzero, r in runs if not nonzero)))


def components(c: TermsLike) -> RunReport:
    """Maximal runs of nonzero terms, in order."""
    return _components_and_gaps(as_terms(c))[0]


def gaps(c: TermsLike) -> RunReport:
    """Maximal runs of zero terms, in order."""
    return _components_and_gaps(as_terms(c))[1]


def equal_runs(c: TermsLike, nonzero_only: bool = False) -> RunReport:
    """Maximal runs of equal terms; zero runs excluded when nonzero_only."""
    runs = _runs(as_terms(c))
    return RunReport("equal-run", tuple(r for v, r in runs if not (nonzero_only and v == 0)))


@dataclass(frozen=True)
class Extremes:
    cmax: int  # longest component length; 0 when the composition is all zero
    cmin: int  # shortest component length; 0 when there are no components
    gmax: int  # longest gap length; 0 when every term is nonzero
    gmin: int  # shortest gap length; 0 when there are no gaps
    tmax: int  # largest term
    tmin: int  # smallest term


def _extremes(terms: list[int], comp: RunReport, gap: RunReport) -> Extremes:
    return Extremes(cmax=comp.longest, cmin=comp.shortest,
                    gmax=gap.longest, gmin=gap.shortest,
                    tmax=max(terms), tmin=min(terms))


def extremes(c: TermsLike) -> Extremes:
    terms = as_terms(c)
    return _extremes(terms, *_components_and_gaps(terms))


def _squares(equal: list[tuple[int, Run]]) -> Counter[int]:
    """Occurrence counts of v-squares by side v >= 1, read from the equal runs."""
    counts: Counter[int] = Counter()
    for v, r in equal:
        if 1 <= v <= r.length:
            counts[v] += r.length - v + 1
    return counts


def square_counts(c: TermsLike) -> dict[int, int]:
    """Occurrence counts of k-squares (k consecutive terms equal to k), k >= 2.

    Counted by start position: an equal-run of value v and length L contains
    L - v + 1 v-squares when v <= L.  The trivial 1-squares (any term equal
    to 1) are excluded from the multiset.
    """
    squares = _squares(_runs(as_terms(c)))
    return {v: count for v, count in squares.items() if v >= 2}


def largest_square(c: TermsLike) -> int:
    """Largest k such that k consecutive terms all equal k; 0 if none."""
    return max(_squares(_runs(as_terms(c))), default=0)


def _longest_increasing_run(terms: list[int]) -> int:
    # a run of r rising steps between neighbours is r + 1 increasing terms
    rising = _runs(map(lt, terms, terms[1:]))
    return 1 + max((r.length for up, r in rising if up), default=0)


def longest_increasing_run(c: TermsLike) -> int:
    """Length of the longest strictly increasing run of consecutive terms."""
    return _longest_increasing_run(as_terms(c))


def is_carlitz(c: TermsLike) -> bool:
    """True iff no two adjacent terms are equal."""
    terms = as_terms(c)
    return len(_runs(terms)) == len(terms)


def max_multiplicity(c: TermsLike) -> int:
    """Largest number of times any single value occurs among the terms."""
    return max(Counter(as_terms(c)).values())


def stats_report(c: TermsLike) -> dict:
    """All statistics of one composition, as a plain dict (CLI surface)."""
    terms = as_terms(c)
    comp, gap = _components_and_gaps(terms)
    ex = _extremes(terms, comp, gap)
    equal = _runs(terms)
    squares = _squares(equal)
    return {
        "n": len(terms),
        "size": sum(terms),
        "components": comp.count,
        "gaps": gap.count,
        "cmax": ex.cmax,
        "cmin": ex.cmin,
        "gmax": ex.gmax,
        "gmin": ex.gmin,
        "tmax": ex.tmax,
        "tmin": ex.tmin,
        "largest_square": max(squares, default=0),
        "square_counts": {str(v): count for v, count in sorted(squares.items()) if v >= 2},
        "longest_increasing_run": _longest_increasing_run(terms),
        "is_carlitz": len(equal) == len(terms),
        "max_multiplicity": max(Counter(terms).values()),
    }
