"""Pattern DSL parser and occurrence matching.

Grammar (a stable textual interface, shared with the CLI and config files)::

    pattern := kind ':' seq
    kind    := 'e' | 'u' | 'l' | 'o'
    seq     := element (',' element)*
    element := term | '[' term (',' term)* ']'
    term    := decimal nonnegative integer

A bracketed group is one block (terms adjacent in any occurrence); a bare
term is a singleton block.  One block => consecutive pattern, all singleton
blocks => nonconsecutive, mixed => vincular.

Matching kinds: exact (term == r), upper (term >= r), lower (term <= r),
ordering (relative order of the window, equalities included).  ``COMPARE``
and ``relation`` define these rules once; the oracle reads them too.

Vincular semantics: blocks must occur in order on disjoint index ranges.  By
default a gap of zero intervening positions between consecutive blocks is
allowed; ``strict=True`` requires at least one free position between blocks.
``strict`` only affects mixed (vincular) structures: fully nonconsecutive
patterns carry no adjacency constraint at all.

``match`` is the one matcher, and with ``analysis`` it is the scalar route:
plain Python over the terms as a list of ints, the reference that the
vectorized ``holds_batch`` code is checked against.  Every pattern takes one
path: a mask per block over the start positions where it fits, then an
exact-integer DP over increasing anchor tuples (one block: the mask's sum).
An ordering pattern of several blocks is first expanded by
``exact_patterns`` into the exact patterns over the values present: an index
tuple is an occurrence of it exactly when it is one of exactly one of them,
so their counts add up and their anchor lists merge without repeats.  The
expansion refuses with ``GuardExceeded`` past ASSIGNMENT_CAP exact patterns;
no answer is ever a lower bound.  An occurrence is the tuple of its 1-based
block starts; ``positions`` lists the first POSITION_CAP of them, for every
pattern.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations, islice

from .core import BlockStructure, GuardExceeded, PatternKind, PatternSpec, TermsLike, as_terms

POSITION_CAP = 100_000

# Most exact patterns one ordering pattern may expand into.  Cost of one exact
# pattern, numpy 2.4.6 on a 2-core x86-64 host:
#   match, one 2500-term row          o:[0,1],0  2.0-2.4 ms   o:0,1,0 / o:0,1,2  3.1-5.5 ms
#   Property.holds_batch, 104 x 2500  e:[1,2],1  0.6-0.8 ms   e:1,2,1 / e:1,2,3  0.9-1.2 ms
# At the cap, match takes 16.9 s for o:0,1,0 over 91 values (4095 patterns)
# and 18.5 s for o:0,1,2 over 30 (4060), and a row block about 4 s; past it a
# call is refused at once rather than left to run for minutes.
ASSIGNMENT_CAP = 1 << 12


class PatternSyntaxError(ValueError):
    """Pattern text failed to parse; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_pattern(text: str) -> PatternSpec:
    """Parse the pattern DSL into a validated PatternSpec."""
    if ":" not in text:
        raise PatternSyntaxError("expected 'kind:seq'", 0)
    head, _, body = text.partition(":")
    head = head.strip()
    try:
        kind = PatternKind(head)
    except ValueError:
        raise PatternSyntaxError(f"unknown pattern kind {head!r}", 0) from None

    offset = len(head) + 1
    blocks: list[tuple[int, ...]] = []
    i = 0
    expect_element = True
    while i < len(body):
        ch = body[i]
        if ch.isspace():
            i += 1
            continue
        if not expect_element:
            if ch != ",":
                raise PatternSyntaxError(f"expected ',' before {ch!r}", offset + i)
            i += 1
            expect_element = True
            continue
        if ch == "[":
            end = body.find("]", i)
            if end < 0:
                raise PatternSyntaxError("unclosed '['", offset + i)
            inner = body[i + 1:end]
            block = _parse_terms(inner, offset + i + 1)
            if not block:
                raise PatternSyntaxError("empty block", offset + i)
            blocks.append(tuple(block))
            i = end + 1
        elif ch.isdigit():
            j = i
            while j < len(body) and body[j].isdigit():
                j += 1
            blocks.append((int(body[i:j]),))
            i = j
        else:
            raise PatternSyntaxError(f"unexpected character {ch!r}", offset + i)
        expect_element = False
    if expect_element:
        raise PatternSyntaxError("empty pattern" if not blocks else "trailing ','",
                                 offset + len(body))
    try:
        return PatternSpec(kind, tuple(blocks))
    except ValueError as exc:
        raise PatternSyntaxError(str(exc), offset) from None


def _parse_terms(text: str, offset: int) -> list[int]:
    terms = []
    for piece in text.split(","):
        stripped = piece.strip()
        if not stripped or not stripped.isdigit():
            raise PatternSyntaxError(f"expected integer, got {stripped!r}", offset)
        terms.append(int(stripped))
        offset += len(piece) + 1
    return terms


@dataclass(frozen=True)
class MatchReport:
    """Occurrence report: existence, exact count, optional anchors.

    ``positions`` (only when asked for) holds the first POSITION_CAP
    block-start tuples in lexicographic order, so ``len(positions) < count``
    marks a cut list.
    """

    exists: bool
    count: int
    positions: tuple[tuple[int, ...], ...] | None = None


# pattern kind -> the test a term v must pass against its pattern term r: COMPARE[kind](v, r)
COMPARE = {PatternKind.EXACT: operator.eq, PatternKind.UPPER: operator.ge,
           PatternKind.LOWER: operator.le}


def relation(a: int, b: int):
    """The ordering rule: where an ordering pattern has terms a then b, the
    matched terms x then y must satisfy ``relation(a, b)(x, y)``."""
    return operator.lt if a < b else operator.gt if a > b else operator.eq


def _block_mask(terms: list[int], kind: PatternKind, block: tuple[int, ...]) -> list[bool]:
    """One bool per start position whose window fits: True where the block matches."""
    k = len(block)
    windows = [terms[s:s + k] for s in range(len(terms) - k + 1)]
    if kind is PatternKind.ORDERING:
        # the window must order every pair of terms as the block does, ties included
        rules = [(i, j, relation(block[i], block[j])) for i, j in combinations(range(k), 2)]
        return [all(rule(w[i], w[j]) for i, j, rule in rules) for w in windows]
    compare = COMPARE[kind]
    return [all(map(compare, w, block)) for w in windows]


def _count_anchor_tuples(masks: list[list[bool]], shifts: list[int]) -> int:
    """Exact-integer count of anchor tuples; block b + 1 starts >= shifts[b] after block b."""
    # ways[i] = number of ways to place blocks 0..b with block b anchored at i
    ways = masks[0]
    for mask, shift in zip(masks[1:], shifts):
        cum = list(accumulate(ways, initial=0))
        # anchors of the previous block must be <= i - shift
        ways = [cum[i - shift + 1] if hit and i >= shift else 0
                for i, hit in enumerate(mask)]
    return sum(ways)


def _list_anchor_tuples(masks: list[list[bool]],
                        shifts: list[int]) -> list[tuple[int, ...]]:
    """The first POSITION_CAP anchor tuples, 1-based, in lexicographic order."""
    anchors = [[i for i, hit in enumerate(m) if hit] for m in masks]
    found: list[tuple[int, ...]] = []

    def rec(b: int, lo: int, prefix: tuple[int, ...]) -> bool:
        if b == len(anchors):
            found.append(prefix)
            return len(found) < POSITION_CAP
        for i in anchors[b][bisect_left(anchors[b], lo):]:
            before = len(found)
            if not rec(b + 1, i + shifts[b], prefix + (i + 1,)):
                return False
            if len(found) == before:  # a later anchor leaves even less room
                break
        return True

    rec(0, 0, ())
    return found


def exact_patterns(spec: PatternSpec, values) -> list[PatternSpec]:
    """The exact patterns sigma(spec), blocks kept, for every strictly
    increasing map sigma from the ordering pattern's values 0..r into ``values``.

    An index tuple whose terms all lie in ``values`` is an occurrence of
    ``spec`` exactly when it is an occurrence of exactly one of them.
    GuardExceeded when there are more than ASSIGNMENT_CAP of them.
    """
    values = sorted(set(values))
    r = max(spec.terms)
    total = math.comb(len(values), r + 1)
    if total > ASSIGNMENT_CAP:
        raise GuardExceeded(f"ordering pattern {spec} over {len(values)} distinct values "
                            f"needs {total} exact patterns, more than {ASSIGNMENT_CAP}")
    return [PatternSpec(PatternKind.EXACT, tuple(tuple(sigma[t] for t in b) for b in spec.blocks))
            for sigma in combinations(values, r + 1)]


def match(c: TermsLike, spec: PatternSpec, strict: bool = False,
          with_positions: bool = False) -> MatchReport:
    """Count the occurrences of ``spec`` in ``c``; list their anchors if asked.

    ``strict`` requires a gap of at least one position between consecutive
    blocks of a vincular pattern; the default allows adjacent blocks.
    """
    terms = as_terms(c)
    gap_min = 1 if (strict and spec.structure is BlockStructure.VINCULAR) else 0
    shifts = [len(b) + gap_min for b in spec.blocks]
    # one-block ordering patterns keep their pairwise rules, which need no values
    several = spec.kind is PatternKind.ORDERING and len(spec.blocks) > 1
    count, found = 0, []
    for part in exact_patterns(spec, terms) if several else [spec]:
        masks = [_block_mask(terms, part.kind, b) for b in part.blocks]
        count += _count_anchor_tuples(masks, shifts)
        if with_positions:
            found.append(_list_anchor_tuples(masks, shifts))
    positions = tuple(islice(heapq.merge(*found), POSITION_CAP)) if with_positions else None
    return MatchReport(exists=count > 0, count=count, positions=positions)
