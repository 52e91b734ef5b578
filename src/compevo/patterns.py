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
ordering (relative order of the window, equalities included).

Vincular semantics: blocks must occur in order on disjoint index ranges.  By
default a gap of zero intervening positions between consecutive blocks is
allowed; ``strict=True`` requires at least one free position between blocks.
``strict`` only affects mixed (vincular) structures: fully nonconsecutive
patterns carry no adjacency constraint at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (BlockStructure, GuardExceeded, PatternKind, PatternSpec,
                   TermsLike, UnsupportedProperty, as_terms)

ORDERING_MAX_LENGTH = 8
DEFAULT_NODE_CAP = 10_000_000


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
    """Occurrence report: existence, count, optional anchors.

    Counts are anchored at start positions (consecutive) or block-start
    tuples (vincular / nonconsecutive); ``truncated`` marks a count that is
    only a lower bound because a search cap was hit.
    """

    exists: bool
    count: int
    positions: tuple[tuple[int, ...], ...] | None = None
    truncated: bool = False


def _consecutive_match_mask(terms: np.ndarray, kind: PatternKind,
                            pattern: tuple[int, ...]) -> np.ndarray:
    """Boolean array over start positions where the window matches."""
    k = len(pattern)
    n = terms.shape[0]
    if k > n:
        return np.zeros(0, dtype=bool)
    windows = np.lib.stride_tricks.sliding_window_view(terms, k)
    pat = np.asarray(pattern, dtype=np.int64)
    if kind is PatternKind.EXACT:
        return np.all(windows == pat, axis=1)
    if kind is PatternKind.UPPER:
        return np.all(windows >= pat, axis=1)
    if kind is PatternKind.LOWER:
        return np.all(windows <= pat, axis=1)
    # ordering: compare the sign of every pair, equalities included
    mask = np.ones(windows.shape[0], dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            if pattern[i] < pattern[j]:
                mask &= windows[:, i] < windows[:, j]
            elif pattern[i] > pattern[j]:
                mask &= windows[:, i] > windows[:, j]
            else:
                mask &= windows[:, i] == windows[:, j]
    return mask


def match_consecutive(c: TermsLike, spec: PatternSpec,
                      with_positions: bool = False) -> MatchReport:
    """Count start positions where a consecutive pattern occurs."""
    if spec.structure is not BlockStructure.CONSECUTIVE:
        raise UnsupportedProperty("match_consecutive needs a single-block pattern")
    terms = as_terms(c)
    mask = _consecutive_match_mask(terms, spec.kind, spec.blocks[0])
    count = int(mask.sum())
    positions = None
    if with_positions:
        positions = tuple((int(i) + 1,) for i in np.nonzero(mask)[0])
    return MatchReport(exists=count > 0, count=count, positions=positions)


def _padded_masks(terms: np.ndarray, spec: PatternSpec) -> list[np.ndarray]:
    """Per-block anchor masks, all padded to length n (False where no fit)."""
    n = terms.shape[0]
    out = []
    for b in spec.blocks:
        mask = _consecutive_match_mask(terms, spec.kind, b)
        full = np.zeros(n, dtype=bool)
        full[: mask.shape[0]] = mask
        out.append(full)
    return out


def _block_anchor_tuples(block_masks: list[np.ndarray], block_lengths: list[int],
                         gap_min: int) -> int:
    """Count increasing anchor tuples via prefix-sum DP.

    Masks must share a common length (see _padded_masks).
    """
    n = block_masks[0].shape[0] if block_masks else 0
    # ways[i] = number of ways to place blocks 0..b with block b anchored at i
    ways = [1 if m else 0 for m in block_masks[0]]
    for b in range(1, len(block_masks)):
        shift = block_lengths[b - 1] + gap_min
        prev = ways
        ways = [0] * n
        cum = [0] * (n + 1)
        for i in range(n):
            cum[i + 1] = cum[i] + prev[i]
        for i in range(n):
            if block_masks[b][i]:
                avail = i - shift + 1  # anchors of previous block must be <= i - shift
                if avail > 0:
                    ways[i] = cum[avail]
    return sum(ways)


def _enumerate_anchor_tuples(block_masks, block_lengths, gap_min, cap):
    n = block_masks[0].shape[0]
    found: list[tuple[int, ...]] = []

    def rec(b: int, lo: int, prefix: tuple[int, ...]) -> bool:
        if b == len(block_masks):
            found.append(tuple(p + 1 for p in prefix))
            return len(found) <= cap
        for i in range(lo, n):
            if block_masks[b][i]:
                if not rec(b + 1, i + block_lengths[b] + gap_min, prefix + (i,)):
                    return False
        return True

    complete = rec(0, 0, ())
    return found, complete


def match_vincular(c: TermsLike, spec: PatternSpec, strict: bool = False,
                   with_positions: bool = False,
                   position_cap: int = 100_000) -> MatchReport:
    """Match a multi-block pattern: blocks in order on disjoint index ranges.

    ``strict`` requires a gap of at least one position between consecutive
    blocks; the default allows adjacent blocks.
    """
    if spec.kind is PatternKind.ORDERING and spec.structure is BlockStructure.VINCULAR:
        raise UnsupportedProperty("ordering patterns with mixed blocks are not supported")
    if spec.structure is BlockStructure.CONSECUTIVE:
        return match_consecutive(c, spec, with_positions=with_positions)
    if spec.kind is PatternKind.ORDERING:
        return match_nonconsecutive(c, spec)
    terms = as_terms(c)
    gap_min = 1 if (strict and spec.structure is BlockStructure.VINCULAR) else 0
    block_masks = _padded_masks(terms, spec)
    lengths = [len(b) for b in spec.blocks]
    if any(not m.any() for m in block_masks):
        return MatchReport(exists=False, count=0,
                           positions=() if with_positions else None)
    count = _block_anchor_tuples(block_masks, lengths, gap_min)
    positions = None
    if with_positions:
        listed, complete = _enumerate_anchor_tuples(block_masks, lengths, gap_min, position_cap)
        positions = tuple(listed if complete else listed[:position_cap])
    return MatchReport(exists=count > 0, count=count, positions=positions)


def _greedy_subsequence(terms: np.ndarray, kind: PatternKind,
                        pattern: tuple[int, ...]) -> bool:
    """Left-most subsequence scan; decides existence for exact/upper/lower."""
    j = 0
    for v in terms:
        r = pattern[j]
        ok = (v == r if kind is PatternKind.EXACT
              else v >= r if kind is PatternKind.UPPER
              else v <= r)
        if ok:
            j += 1
            if j == len(pattern):
                return True
    return False


def _ordering_subsequence_dfs(terms: np.ndarray, pattern: tuple[int, ...],
                              node_cap: int, count_all: bool):
    """DFS over index tuples for a nonconsecutive ordering pattern.

    Returns (exists, count, truncated).  With count_all=False the search
    stops at the first occurrence.
    """
    n = terms.shape[0]
    k = len(pattern)
    visited = 0
    count = 0
    truncated = False
    chosen: list[int] = []

    def consistent(idx: int, t: int) -> bool:
        v = terms[idx]
        for s, prev in enumerate(chosen):
            w = terms[prev]
            if pattern[s] < pattern[t] and not w < v:
                return False
            if pattern[s] > pattern[t] and not w > v:
                return False
            if pattern[s] == pattern[t] and w != v:
                return False
        return True

    def rec(t: int, lo: int) -> bool:
        nonlocal visited, count, truncated
        if t == k:
            count += 1
            return count_all
        for idx in range(lo, n - (k - t) + 1):
            visited += 1
            if visited > node_cap:
                truncated = True
                return False
            if consistent(idx, t):
                chosen.append(idx)
                keep_going = rec(t + 1, idx + 1)
                chosen.pop()
                if not keep_going:
                    return False
        return True

    rec(0, 0)
    return count > 0, count, truncated


def match_nonconsecutive(c: TermsLike, spec: PatternSpec,
                         node_cap: int = DEFAULT_NODE_CAP,
                         count_occurrences: bool = True) -> MatchReport:
    """Match a fully nonconsecutive pattern (every block a singleton)."""
    if spec.structure is BlockStructure.VINCULAR:
        raise UnsupportedProperty("pattern has multi-term blocks; use match_vincular")
    if spec.structure is BlockStructure.CONSECUTIVE and spec.length > 1:
        raise UnsupportedProperty("pattern is consecutive; use match_consecutive")
    terms = as_terms(c)
    pattern = spec.terms
    if spec.kind is PatternKind.ORDERING:
        if len(pattern) > ORDERING_MAX_LENGTH:
            raise UnsupportedProperty(
                f"nonconsecutive ordering patterns limited to length {ORDERING_MAX_LENGTH}")
        exists, count, truncated = _ordering_subsequence_dfs(
            terms, pattern, node_cap, count_all=count_occurrences)
        if truncated and not exists and not count_occurrences:
            raise GuardExceeded("existence search exceeded the node cap")
        return MatchReport(exists=exists, count=count, truncated=truncated)
    exists = _greedy_subsequence(terms, spec.kind, pattern)
    if not count_occurrences:
        return MatchReport(exists=exists, count=1 if exists else 0, truncated=True)
    masks = _padded_masks(terms, spec)
    count = _block_anchor_tuples(masks, [1] * len(pattern), 0)
    return MatchReport(exists=exists, count=count)


def match(c: TermsLike, spec: PatternSpec, strict: bool = False,
          with_positions: bool = False) -> MatchReport:
    """Dispatch to the matcher appropriate for the pattern's block structure."""
    structure = spec.structure
    if structure is BlockStructure.CONSECUTIVE:
        return match_consecutive(c, spec, with_positions=with_positions)
    if structure is BlockStructure.NONCONSECUTIVE:
        if spec.kind is PatternKind.ORDERING:
            return match_nonconsecutive(c, spec)
        return match_vincular(c, spec, strict=strict, with_positions=with_positions)
    return match_vincular(c, spec, strict=strict, with_positions=with_positions)
