"""Closed-form expectations, probabilities, Poisson-limit means, thresholds.

Pure functions of the model parameters and the pattern/statistic parameters.
Formulas that hold exactly at finite n are marked ``exact=True``; asymptotic
statements carry the regime they are valid in and are never asserted as
equalities by the experiment harness.

``poisson_limit`` and ``threshold_location`` answer registered statistic ids
only.  Each id's row in ``properties.STATISTICS`` checks the parameters and
gives a ``Scaling``: the threshold side (p for appearance, q for
disappearance), its exponent of n and the Poisson mean at the threshold.
A row that is a consecutive pattern takes that pattern's dichotomy: ``square``,
the exact pattern k^k, appears at p* = n^(-1/k^2) and disappears at
q* = n^(-1/k).  ``square_threshold``, the largest-square heuristic, is a closed
form of its own.  A ``side`` the statistic does not have, a parameter at which
its count does not grow with n (k = 1 for ``equal_terms``) and one at which its
Poisson mean is not positive (k <= 0 for ``cmin_gt``) raise
``UnsupportedProperty``.

Every form that takes a model point refuses an invalid one first, through
``core.check_geometric`` or ``core.check_uniform``; a per-window form checks
(pattern length, p).  ``threshold_location`` needs n >= 2, since p* or q* =
n**exponent is below 1 only from there, and ``square_threshold`` needs n >= 3.
Both refuse an m* that no float holds.

Products and binomial ratios are evaluated in log space where underflow is
possible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import exp, expm1, lgamma, log, log1p

from .core import PatternKind, PatternSpec, UnsupportedProperty, check_geometric, check_uniform


@dataclass(frozen=True)
class TheoryPrediction:
    value: float
    kind: str  # "expectation" | "probability" | "poisson_mean" | "threshold_location"
    regime: str = ""
    exact: bool = True
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "probability" and not (0.0 <= self.value <= 1.0 + 1e-12):
            raise ValueError(f"probability out of range: {self.value}")

    def prob_none(self) -> float:
        """P(X = 0) for a Poisson count with this mean."""
        if self.kind != "poisson_mean":
            raise ValueError("prob_none is only defined for poisson_mean predictions")
        return exp(-self.value)

    def prob_some(self) -> float:
        """P(X > 0) for a Poisson count with this mean."""
        return 1.0 - self.prob_none()


# ---------------------------------------------------------------------------
# components and gaps

def expected_components(n: int, p: float) -> TheoryPrediction:
    """Mean number of components (maximal nonzero runs): n*q*p + p**2."""
    check_geometric(n, p)
    q = 1.0 - p
    return TheoryPrediction(n * q * p + p * p, "expectation")


def expected_gaps(n: int, p: float) -> TheoryPrediction:
    """Mean number of gaps (maximal zero runs): n*q*p + q**2."""
    check_geometric(n, p)
    q = 1.0 - p
    return TheoryPrediction(n * q * p + q * q, "expectation")


def mean_component_length(n: int, p: float) -> TheoryPrediction:
    """Mean component length n/(n*q + p), as a ratio of expectations."""
    check_geometric(n, p)
    if p == 0.0:
        raise ValueError("component length is undefined at p = 0 (no components)")
    q = 1.0 - p
    return TheoryPrediction(n / (n * q + p), "expectation")


def mean_gap_length(n: int, p: float) -> TheoryPrediction:
    """Mean gap length n/(n*p + q), as a ratio of expectations."""
    check_geometric(n, p)
    q = 1.0 - p
    return TheoryPrediction(n / (n * p + q), "expectation")


# ---------------------------------------------------------------------------
# per-position pattern probabilities

def prob_exact_consecutive_at_position(spec: PatternSpec, p: float) -> TheoryPrediction:
    """P(exact consecutive pattern at a given position) = q**k * p**s."""
    check_geometric(spec.length, p)
    if spec.kind is not PatternKind.EXACT or len(spec.blocks) != 1:
        raise UnsupportedProperty("needs an exact consecutive pattern")
    k, s = spec.length, spec.size
    if p == 0.0:
        value = 1.0 if s == 0 else 0.0
    else:
        value = exp(k * log1p(-p) + s * log(p))
    return TheoryPrediction(value, "probability",
                            details={"length": k, "size": s,
                                     "argmax_p": s / (s + k) if s + k else 0.0})


def prob_exact_consecutive_at_position_uniform(n: int, m: int, spec: PatternSpec) -> TheoryPrediction:
    """P(exact consecutive pattern at an interior position) under the uniform model.

    binom(m-s+n-k-1, m-s) / binom(m+n-1, m), evaluated in log-gamma space;
    tends to p**s * q**k with p = m/(m+n).
    """
    check_uniform(n, m)
    if spec.kind is not PatternKind.EXACT or len(spec.blocks) != 1:
        raise UnsupportedProperty("needs an exact consecutive pattern")
    k, s = spec.length, spec.size
    if m < s or n < k or (n == k and m > s):
        return TheoryPrediction(0.0, "probability", details={"length": k, "size": s})
    if n == k:  # the pattern is the whole composition, so m == s here
        value = exp(-_log_binom(m + n - 1, m))
        return TheoryPrediction(value, "probability", details={"length": k, "size": s})
    value = exp(_log_binom(m - s + n - k - 1, m - s) - _log_binom(m + n - 1, m))
    return TheoryPrediction(value, "probability", details={"length": k, "size": s})


def _log_binom(a: int, b: int) -> float:
    if b < 0 or b > a:
        return -math.inf
    return lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1)


def _ordering_multiset(spec: PatternSpec) -> list[int]:
    """Multiplicities [l_0, ..., l_r] of the values used by an ordering pattern."""
    if spec.kind is not PatternKind.ORDERING:
        raise UnsupportedProperty("needs an ordering pattern")
    terms = spec.terms
    r = max(terms)
    return [terms.count(v) for v in range(r + 1)]


def prob_ordering_at_position(spec: PatternSpec, p: float) -> TheoryPrediction:
    """P(consecutive ordering pattern at a given position).

    Product over the distinct values j = 0..r of
    q**l_j * p**s_{j+1} / (1 - p**s_j), with s_j the number of pattern terms
    valued >= j.  The probability does not depend on the order of the terms.
    """
    check_geometric(spec.length, p)
    if len(spec.blocks) != 1:
        raise UnsupportedProperty("needs a consecutive ordering pattern")
    ell = _ordering_multiset(spec)
    suffix = [sum(ell[j:]) for j in range(len(ell))] + [0]
    if p == 0.0:
        # only the all-equal window (pattern 0^k) has positive probability
        value = 1.0 if len(ell) == 1 else 0.0
        return TheoryPrediction(value, "probability")
    logv = 0.0
    for j, lj in enumerate(ell):
        logv += lj * log1p(-p) + suffix[j + 1] * log(p) - log(-expm1(suffix[j] * log(p)))
    return TheoryPrediction(exp(logv), "probability",
                            details={"multiplicities": ell, "suffix_sums": suffix[:-1]})


def prob_tmax_lt(n: int, p: float, r: int) -> TheoryPrediction:
    """P(largest term < r) = (1 - p**r)**n, exact."""
    check_geometric(n, p)
    if r < 1:
        raise ValueError("r must be >= 1")
    if p == 0.0:
        return TheoryPrediction(1.0, "probability")
    return TheoryPrediction(exp(n * log(-expm1(r * log(p)))), "probability")


def prob_tmin_ge(n: int, p: float, r: int) -> TheoryPrediction:
    """P(smallest term >= r) = (1 - q)**(r*n) = p**(r*n), exact; 1 for r <= 0."""
    check_geometric(n, p)
    if r <= 0:
        return TheoryPrediction(1.0, "probability")
    if p == 0.0:
        return TheoryPrediction(0.0, "probability")
    return TheoryPrediction(exp(r * n * log(p)), "probability")


# ---------------------------------------------------------------------------
# Poisson limits at thresholds

def lower_pattern_rho(spec: PatternSpec) -> int:
    """rho = prod(r_i + 1) for a lower consecutive pattern."""
    return math.prod(r + 1 for r in spec.terms)


def ordering_disappearance_params(spec: PatternSpec) -> tuple[int, int]:
    """(d, lambda) for a repeated-term consecutive ordering pattern.

    d = k - (r+1); lambda = prod over j of the suffix multiplicity sums s_j.
    """
    ell = _ordering_multiset(spec)
    if all(l == 1 for l in ell):
        raise UnsupportedProperty("pattern has all-distinct terms; no disappearance threshold")
    d = spec.length - len(ell)
    lam = math.prod(sum(ell[j:]) for j in range(len(ell)))
    return d, lam


@dataclass(frozen=True)
class Scaling:
    """How the occurrence count of a statistic's substructure scales.

    The mean count is about ``coefficient * n**positions * x**power``, where
    x is p (``param="p"``, an appearance threshold) or q (``param="q"``, a
    disappearance threshold).  It is of order one at x* = n**exponent with
    exponent = -positions/power, and at x = alpha * x* the count tends to a
    Poisson law with mean ``coefficient * alpha**power``.  A coefficient of
    None marks a threshold whose Poisson mean is not known.
    """

    param: str
    power: int
    what: str
    coefficient: float | None = 1.0
    positions: int = 1

    @property
    def exponent(self) -> Fraction:
        return Fraction(-self.positions, self.power)

    @property
    def side(self) -> str:
        return "appear" if self.param == "p" else "disappear"


def _statistic(statistic_id: str, params: dict):
    """``Property(statistic_id, params)``, whose row checks the parameters, and the row."""
    from .properties import STATISTICS, Property  # the statistic table imports this module
    return Property(statistic_id, params), STATISTICS[statistic_id]


def _scaling(prop, row) -> Scaling:
    sid = prop.statistic_id
    if row.scaling is None:
        raise UnsupportedProperty(f"statistic {sid!r} has no threshold theory")
    s = row.scaling(prop)
    side = prop.params["side"]
    if side is not None and side != s.side:
        raise UnsupportedProperty(f"statistic {sid!r} has no {side!r} threshold")
    # the count does not grow with n, or counts nothing: the property always or never holds
    if s.power < 1 or (s.coefficient is not None and s.coefficient <= 0):
        at = ", ".join(f"{key} = {prop.spec if key == 'spec' else prop.params[key]}"
                       for key in row.needs)
        raise UnsupportedProperty(f"statistic {sid!r} has no threshold at {at}")
    return s


def poisson_limit(statistic_id: str, params: dict, alpha: float) -> TheoryPrediction:
    """Poisson mean of the occurrence count at the stated parameter scale.

    ``P(X = 0) = exp(-mean)`` and ``P(X > 0) = 1 - exp(-mean)`` are available
    via ``prob_none`` / ``prob_some`` on the returned prediction.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    s = _scaling(*_statistic(statistic_id, params))
    if s.coefficient is None:
        raise UnsupportedProperty(f"statistic {statistic_id!r} has no known Poisson limit "
                                  "for these parameters")
    try:
        mean = s.coefficient * alpha ** s.power
    except OverflowError:
        mean = math.inf
    if mean == math.inf:
        raise ValueError(f"the Poisson mean at alpha={alpha!r} overflows")
    return TheoryPrediction(mean, "poisson_mean",
                            regime=f"{s.param} ~ alpha*n^({s.exponent}); {s.what}",
                            exact=False)


# ---------------------------------------------------------------------------
# threshold locations

def threshold_location(statistic_id: str, params: dict, n: int) -> TheoryPrediction:
    """Threshold p* or q* in the geometric model, plus the transferred m*.

    ``details`` carries the parameter name, its exponent of n, and the
    uniform-model location m* = n*p*/q* with its exponent.  An m* past the
    largest float is refused.
    """
    if n < 2:  # p* or q* = n^exponent is below 1 only from n = 2
        raise ValueError("need n >= 2")
    if n > sys.float_info.max:  # n^exponent and m* are floats
        raise ValueError(f"need n <= {sys.float_info.max:.4g}, the largest float")
    s = _scaling(*_statistic(statistic_id, params))
    exponent = float(s.exponent)
    value = n ** exponent
    if s.param == "p":  # p* = n^exponent; m* = n*p*/q* ~ n^(1+exponent)
        p_star, q_star, m_exponent, side = value, 1.0 - value, 1.0 + exponent, "appearance"
    else:  # q* = n^exponent, kept as it is: 1 - q* may round to 1; m* ~ n^(1-exponent)
        p_star, q_star, m_exponent, side = 1.0 - value, value, 1.0 - exponent, "disappearance"
    m_star = n * p_star / q_star if q_star else math.inf  # p* may round to 1, q* to 0
    return TheoryPrediction(value, "threshold_location", regime=f"{side} of {s.what}",
                            exact=False,
                            details={"param": s.param, "exponent": exponent,
                                     "m_star": _finite_m_star(m_star, n),
                                     "m_exponent": m_exponent})


def _finite_m_star(m_star: float, n: int) -> float:
    if not math.isfinite(m_star):
        raise ValueError(f"m* at n={n:.4g} overflows")
    return m_star


def square_threshold(n: int, c: float) -> TheoryPrediction:
    """Largest-square heuristic: side k*(n) and the size scale m* ~ n log n / log log n."""
    if n < 3:  # the formulas divide by log log n, which is positive only from n = 3
        raise ValueError("need n >= 3")
    ln = log(n)
    lln = log(ln)
    llln = log(lln) if lln > 1 else 0.0
    k_star = (ln / lln) * (1.0 + c * llln / lln)
    return TheoryPrediction(k_star, "threshold_location", exact=False,
                            regime="largest square side; seen when m ~ n log n/log log n",
                            details={"param": "k", "m_star": _finite_m_star(n * ln / lln, n)})
