"""Core domain types: compositions, model-point checks, pattern specs, estimates,
and the row-block size that the batch sampler and batch predicates share.

Everything here is immutable after construction and free of I/O and
randomness, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np

TermsLike = Union["Composition", Sequence[int], np.ndarray]

# Terms per row block of Property.holds_batch and of the blocks that
# samplers.geometric_blocks and uniform_blocks hand on.  Median ms of one
# 4096-row chunk as the samplers draw it (narrow dtypes), whole matrix |
# blocks of 2^16, 2^17, 2^18, 2^19 and 2^20 terms, numpy 2.4.6 on a 2-core
# x86-64 host:
#   n = 2500  cmax_ge k=2, p = 0.02     8.8 |  3.4  2.9  2.8  2.9  3.9
#             cmin_gt k=1, p = 0.98    34.4 |  9.7  8.3  9.9 11.6 13.8
#             equal_run k=3, p = 0.3   11.7 |  6.3  5.3  5.2  5.4  6.7
#             any_square, p = 0.5       359 |  123  112  114  123  182
#             u:[1,1], m = 50           6.9 |  4.6  3.6  3.2  3.4  4.2
#             e:1,[0,2], p = 0.1       29.3 | 25.4 23.1 22.5 23.2 24.3
#   n = 200   e:1,[0,2], p = 0.1        2.3 |  2.6  2.2  2.2  2.2  2.3
#             e:[1,0,1], p = 0.1       0.59 | 0.63 0.53 0.49 0.52 0.59
#   urn, the whole uniform_bars_batch call (stars branch):
#   n = 2500  m = 7                     2.1 |  3.5  2.7  2.4  2.3  2.0
#             m = 50                    6.4 |  7.6  7.1  6.4  6.4  6.0
#             m = 354                  46.1 | 32.1 30.3 30.0 29.6 30.1
#             m = 1249                  222 |  117  119  101  106  111
#   n = 10^4  m = 1000                  187 |  145  106   95   95   85
# The row predicates make one to four temporaries the size of their input,
# which for a whole chunk at n = 2500 is fresh memory rather than cache; the
# urn's count scatters k increments per row over the block's output cells.
# 2^18 is within 20% of the best column in every row.
BLOCK_TERMS = 1 << 18


def block_rows(n: int) -> int:
    """Rows of n terms in one block of about ``BLOCK_TERMS`` terms: whole rows, at least one."""
    return max(1, BLOCK_TERMS // max(n, 1))


class GuardExceeded(RuntimeError):
    """An operation was refused because it would exceed a configured size guard."""


class ChunkError(RuntimeError):
    """A sweep chunk failed; the message names its grid point and chunk index."""


class UnsupportedProperty(ValueError):
    """The requested property cannot be handled by this operation."""


class Composition:
    """A finite sequence of nonnegative integers (an n-term weak composition).

    Terms are stored in a read-only int64 array.  ``size`` is the sum of the
    terms, which may differ from the length ``n``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike):
        if isinstance(terms, Composition):
            self._terms = terms._terms
            return
        try:
            arr = np.asarray(terms, dtype=np.int64)
        except OverflowError:
            raise ValueError("composition terms must be at most 2**63 - 1") from None
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("a composition needs at least one term")
        if np.any(arr < 0):
            raise ValueError("composition terms must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        self._terms = arr

    @property
    def terms(self) -> np.ndarray:
        return self._terms

    @property
    def n(self) -> int:
        return self._terms.shape[0]

    @property
    def size(self) -> int:
        return int(self._terms.sum())

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(self._terms.tolist())

    def __getitem__(self, i):
        return int(self._terms[i]) if np.isscalar(i) or isinstance(i, int) else self._terms[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Composition):
            return np.array_equal(self._terms, other._terms)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms.tobytes())

    def __repr__(self) -> str:
        return f"Composition({self._terms.tolist()})"


def as_terms(c: TermsLike) -> list[int]:
    """The terms of a composition-like value as a list of Python ints.

    No int64 round trip, so a plain sequence may hold terms of any size.
    """
    if isinstance(c, np.ndarray):
        return c.tolist()
    return list(c)


def check_uniform(n: int, m: int) -> None:
    """Refuse (n, m) unless it is a point of the uniform model C(n, m)."""
    if not (n >= 1 and m >= 0):
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")


def check_geometric(n: int, p: float) -> None:
    """Refuse (n, p) unless it is a point of the geometric model C(n, p).

    The model is undefined at p = 1; a NaN p fails the comparison too.
    """
    if not (n >= 1 and 0.0 <= p < 1.0):
        raise ValueError(f"need n >= 1 and 0 <= p < 1, got n={n}, p={p}")


def count_compositions(n: int, m: int) -> int:
    """Number of n-term weak compositions of m: binom(m+n-1, m), exact."""
    check_uniform(n, m)
    return math.comb(m + n - 1, m)


class PatternKind(Enum):
    EXACT = "e"
    UPPER = "u"
    LOWER = "l"
    ORDERING = "o"


class BlockStructure(Enum):
    CONSECUTIVE = "consecutive"
    VINCULAR = "vincular"
    NONCONSECUTIVE = "nonconsecutive"


@dataclass(frozen=True)
class PatternSpec:
    """A parsed pattern: comparison kind plus block structure.

    Each block is a run of terms that must appear consecutively; distinct
    blocks may be separated by intervening positions.
    """

    kind: PatternKind
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.blocks or any(len(b) == 0 for b in self.blocks):
            raise ValueError("pattern must have at least one nonempty block")
        if any(isinstance(t, bool) or not isinstance(t, numbers.Integral) or t < 0
               for b in self.blocks for t in b):
            raise ValueError(f"pattern terms must be nonnegative integers, got {self.blocks}")
        if self.kind is PatternKind.ORDERING:
            values = sorted({t for b in self.blocks for t in b})
            if values != list(range(len(values))):
                raise ValueError(
                    "ordering pattern values must form an initial segment 0..r "
                    f"(got {values})"
                )

    @property
    def terms(self) -> tuple[int, ...]:
        return tuple(t for b in self.blocks for t in b)

    @property
    def length(self) -> int:
        """Total number of terms, across all blocks."""
        return sum(len(b) for b in self.blocks)

    @property
    def size(self) -> int:
        """Sum of all terms (NOT the length)."""
        return sum(self.terms)

    @property
    def structure(self) -> BlockStructure:
        if len(self.blocks) == 1:
            return BlockStructure.CONSECUTIVE
        if all(len(b) == 1 for b in self.blocks):
            return BlockStructure.NONCONSECUTIVE
        return BlockStructure.VINCULAR

    def __str__(self) -> str:
        parts = []
        for b in self.blocks:
            if len(b) == 1 and len(self.blocks) > 1:
                parts.append(str(b[0]))
            else:
                parts.append("[" + ",".join(map(str, b)) + "]")
        return f"{self.kind.value}:" + ",".join(parts)


@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo point estimate with its confidence interval."""

    point: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int
    confidence: float = 0.95

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not (self.ci_low <= self.point + 1e-12 and self.point <= self.ci_high + 1e-12):
            raise ValueError("interval must contain the point estimate")
