"""Closed-form expectations, probabilities, Poisson-limit means, thresholds.

Pure functions of the model parameters and the pattern/statistic parameters.
Formulas that hold exactly at finite n are marked ``exact=True``; asymptotic
statements carry the regime they are valid in and are never asserted as
equalities by the experiment harness.

Products and binomial ratios are evaluated in log space where underflow is
possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, expm1, lgamma, log, log1p

from .core import PatternKind, PatternSpec, UnsupportedProperty


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


def _check_p(p: float) -> None:
    if not (0.0 <= p < 1.0):
        raise ValueError(f"p must satisfy 0 <= p < 1, got {p}")


# ---------------------------------------------------------------------------
# components and gaps

def expected_components(n: int, p: float) -> TheoryPrediction:
    """Mean number of components (maximal nonzero runs): n*q*p + p**2."""
    _check_p(p)
    q = 1.0 - p
    return TheoryPrediction(n * q * p + p * p, "expectation")


def expected_gaps(n: int, p: float) -> TheoryPrediction:
    """Mean number of gaps (maximal zero runs): n*q*p + q**2."""
    _check_p(p)
    q = 1.0 - p
    return TheoryPrediction(n * q * p + q * q, "expectation")


def mean_component_length(n: int, p: float) -> TheoryPrediction:
    """Mean component length n/(n*q + p), as a ratio of expectations."""
    _check_p(p)
    if p == 0.0:
        raise ValueError("component length is undefined at p = 0 (no components)")
    q = 1.0 - p
    return TheoryPrediction(n / (n * q + p), "expectation")


def mean_gap_length(n: int, p: float) -> TheoryPrediction:
    """Mean gap length n/(n*p + q), as a ratio of expectations."""
    _check_p(p)
    q = 1.0 - p
    return TheoryPrediction(n / (n * p + q), "expectation")


# ---------------------------------------------------------------------------
# per-position pattern probabilities

def prob_exact_consecutive_at_position(spec: PatternSpec, p: float) -> TheoryPrediction:
    """P(exact consecutive pattern at a given position) = q**k * p**s."""
    _check_p(p)
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


def expected_exact_consecutive_count(spec: PatternSpec, n: int, p: float) -> TheoryPrediction:
    """(n+1-k) * q**k * p**s, the expected number of occurrences."""
    per = prob_exact_consecutive_at_position(spec, p)
    k = spec.length
    return TheoryPrediction(max(n + 1 - k, 0) * per.value, "expectation",
                            details=per.details)


def prob_exact_consecutive_at_position_uniform(n: int, m: int, spec: PatternSpec) -> TheoryPrediction:
    """P(exact consecutive pattern at an interior position) under the uniform model.

    binom(m-s+n-k-1, m-s) / binom(m+n-1, m), evaluated in log-gamma space;
    tends to p**s * q**k with p = m/(m+n).
    """
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
    _check_p(p)
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
    _check_p(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    if p == 0.0:
        return TheoryPrediction(1.0, "probability")
    return TheoryPrediction(exp(n * log(-expm1(r * log(p)))), "probability")


def prob_tmin_ge(n: int, p: float, r: int) -> TheoryPrediction:
    """P(smallest term >= r) = (1 - q)**(r*n) = p**(r*n), exact."""
    _check_p(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    if p == 0.0:
        return TheoryPrediction(0.0, "probability")
    return TheoryPrediction(exp(r * n * log(p)), "probability")


# ---------------------------------------------------------------------------
# Poisson limits at thresholds

def _require(params: dict, *names: str) -> list:
    missing = [x for x in names if x not in params]
    if missing:
        raise ValueError(f"missing parameters: {missing}")
    return [params[x] for x in names]


def _spec_param(params: dict) -> PatternSpec:
    spec = params.get("spec")
    if isinstance(spec, str):
        from .patterns import parse_pattern
        spec = parse_pattern(spec)
    if not isinstance(spec, PatternSpec):
        raise ValueError("params['spec'] must be a PatternSpec or DSL string")
    return spec


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


# each row: statistic id -> (poisson mean as function of (params, alpha), regime text)
def poisson_limit(statistic_id: str, params: dict, alpha: float) -> TheoryPrediction:
    """Poisson mean of the occurrence count at the stated parameter scale.

    ``P(X = 0) = exp(-mean)`` and ``P(X > 0) = 1 - exp(-mean)`` are available
    via ``prob_none`` / ``prob_some`` on the returned prediction.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    sid = statistic_id

    if sid == "cmax_ge":
        (k,) = _require(params, "k")
        return _poisson(alpha ** k, f"p ~ alpha*n^(-1/{k}); components of length >= {k}")
    if sid == "gmax_ge":
        (k,) = _require(params, "k")
        return _poisson(alpha ** k, f"q ~ alpha*n^(-1/{k}); gaps of length >= {k}")
    if sid == "cmin_gt":
        (k,) = _require(params, "k")
        return _poisson(alpha * alpha * k,
                        f"q ~ alpha*n^(-1/2); components of length <= {k} (constant k)")
    if sid == "gmin_gt":
        (k,) = _require(params, "k")
        return _poisson(alpha * alpha * k,
                        f"p ~ alpha*n^(-1/2); gaps of length <= {k} (constant k)")
    if sid in ("cmin_gt_growing", "gmin_gt_growing"):
        which = "q" if sid.startswith("c") else "p"
        return _poisson(alpha * alpha,
                        f"{which} ~ alpha/sqrt(k*n); growing k")
    if sid in ("cmax_ge_window", "gmax_ge_window"):
        which = "p" if sid.startswith("c") else "q"
        return _poisson(exp(alpha),
                        f"{which} = exp(-(log n - alpha)/k), 1 << k << log n")
    if sid == "exact_consec":
        spec = _spec_param(params)
        side = params.get("side", "appear")
        if side == "appear":
            return _poisson(alpha ** spec.size,
                            f"p ~ alpha*n^(-1/{spec.size}) (appearance; size {spec.size})")
        return _poisson(alpha ** spec.length,
                        f"q ~ alpha*n^(-1/{spec.length}) (disappearance; length {spec.length})")
    if sid == "equal_run":
        (k,) = _require(params, "k")
        side = params.get("side", "appear")
        if side == "appear":
            return _poisson(alpha ** k, f"p ~ alpha*n^(-1/{k}); runs of {k} equal nonzero terms")
        return _poisson(alpha ** (k - 1) / k,
                        f"q ~ alpha*n^(-1/{k - 1}); runs of {k} equal nonzero terms")
    if sid == "upper_consec":
        spec = _spec_param(params)
        return _poisson(alpha ** spec.size,
                        f"p ~ alpha*n^(-1/{spec.size}); upper pattern of size {spec.size}")
    if sid == "lower_consec":
        spec = _spec_param(params)
        rho = lower_pattern_rho(spec)
        return _poisson((alpha ** spec.length) * rho,
                        f"q ~ alpha*n^(-1/{spec.length}); lower pattern, rho = {rho}")
    if sid == "tmax_ge":
        (r,) = _require(params, "r")
        return _poisson(alpha ** r, f"p ~ alpha*n^(-1/{r}); terms >= {r}")
    if sid == "tmax_ge_window":
        # small p = 1/omega, r = (log n + c)/log omega; mean e^{-c}
        (c,) = _require(params, "c")
        return _poisson(exp(-c), "p = 1/omega << 1, r = (log n + c)/log omega")
    if sid == "tmax_ge_const_p":
        c, p = _require(params, "c", "p")
        _check_p(p)
        return _poisson(p ** c, "constant p, r = log_{1/p} n + c")
    if sid == "tmin_ge":
        (r,) = _require(params, "r")
        return _poisson(alpha * r, f"q ~ alpha/n; terms < {r} (P(tmin >= r) = exp(-alpha*r))")
    if sid == "tmin_ge_growing":
        return _poisson(alpha, "q ~ alpha/(r*n), growing r")
    if sid == "increasing_run":
        (k,) = _require(params, "k")
        e = k * (k - 1) // 2
        return _poisson(alpha ** e, f"p ~ alpha*n^(-2/(k(k-1))); increasing runs of length {k}")
    if sid == "ordering_consec":
        spec = _spec_param(params)
        d, lam = ordering_disappearance_params(spec)
        return _poisson(alpha ** d / lam,
                        f"q ~ alpha*n^(-1/{d}); repeated-term ordering pattern, lambda = {lam}")
    if sid == "equal_terms_run":
        # run of k equal terms, zeros included (Carlitz complement at k = 2)
        (k,) = _require(params, "k")
        return _poisson(alpha ** (k - 1) / k,
                        f"q ~ alpha*n^(-1/{k - 1}); runs of {k} equal terms")
    if sid == "carlitz":
        return _poisson(alpha / 2.0,
                        "q ~ alpha/n; adjacent equal pairs (Carlitz iff none occur)")
    if sid == "equal_terms":
        (k,) = _require(params, "k")
        return _poisson(alpha ** (k - 1) / (k * math.factorial(k)),
                        f"q ~ alpha*n^(-{k}/{k - 1}); {k}-tuples of equal terms anywhere")
    raise UnsupportedProperty(f"unknown statistic id {statistic_id!r}")


def _poisson(mean: float, regime: str) -> TheoryPrediction:
    return TheoryPrediction(mean, "poisson_mean", regime=regime, exact=False)


# ---------------------------------------------------------------------------
# threshold locations

def transfer_m_star(n: int, p_star: float) -> float:
    """Transfer a geometric-model threshold to the uniform model: m* = n*p*/q*."""
    return n * p_star / (1.0 - p_star)


def _threshold(n: int, exponent: float, param: str, regime: str) -> TheoryPrediction:
    """Threshold of the form param* = n**exponent, with the transferred m*."""
    value = n ** exponent
    p_star = value if param == "p" else 1.0 - value
    return TheoryPrediction(value, "threshold_location", regime=regime, exact=False,
                            details={"param": param, "exponent": exponent,
                                     "m_star": transfer_m_star(n, p_star),
                                     "m_exponent": 1.0 + exponent})


def threshold_location(statistic_id: str, params: dict, n: int) -> TheoryPrediction:
    """Threshold p* or q* in the geometric model, plus the transferred m*.

    ``details`` carries the parameter name, its exponent of n, and the
    uniform-model location m* = n*p*/q* with its exponent.
    """
    sid = statistic_id
    side = params.get("side", "appear")

    def appear(exponent, what):
        # p* = n^exponent; m* = n*p*/q* ~ n^(1+exponent)
        return _threshold(n, exponent, "p", f"appearance of {what}")

    def disappear(exponent, what):
        # q* = n^exponent; m* = n*p*/q* ~ n^(1-exponent)
        t = _threshold(n, exponent, "q", f"disappearance of {what}")
        t.details["m_exponent"] = 1.0 - exponent
        return t

    if sid == "cmax_ge":
        (k,) = _require(params, "k")
        return appear(-1.0 / k, f"components of length >= {k}")
    if sid == "gmax_ge":
        (k,) = _require(params, "k")
        return disappear(-1.0 / k, f"gaps of length >= {k}")
    if sid == "cmin_gt":
        return disappear(-0.5, "components of any fixed length")
    if sid == "gmin_gt":
        return appear(-0.5, "gaps of length 1")
    if sid == "exact_consec":
        spec = _spec_param(params)
        if side == "appear":
            return appear(-1.0 / spec.size, f"exact pattern of size {spec.size}")
        return disappear(-1.0 / spec.length, f"exact pattern of length {spec.length}")
    if sid == "upper_consec":
        spec = _spec_param(params)
        return appear(-1.0 / spec.size, f"upper pattern of size {spec.size}")
    if sid == "lower_consec":
        spec = _spec_param(params)
        return disappear(-1.0 / spec.length, f"lower pattern of length {spec.length}")
    if sid == "equal_run":
        (k,) = _require(params, "k")
        if side == "appear":
            return appear(-1.0 / k, f"runs of {k} equal nonzero terms")
        return disappear(-1.0 / (k - 1), f"runs of {k} equal nonzero terms")
    if sid == "tmax_ge":
        (r,) = _require(params, "r")
        return appear(-1.0 / r, f"terms >= {r}")
    if sid == "tmin_ge":
        return disappear(-1.0, "zero terms (smallest term leaves 0)")
    if sid == "increasing_run":
        (k,) = _require(params, "k")
        return appear(-2.0 / (k * (k - 1)), f"increasing runs of length {k}")
    if sid == "ordering_consec":
        spec = _spec_param(params)
        d, _ = ordering_disappearance_params(spec)
        return disappear(-1.0 / d, "repeated-term ordering pattern")
    if sid == "carlitz":
        return disappear(-1.0, "adjacent equal terms (Carlitz transition)")
    if sid == "equal_terms":
        (k,) = _require(params, "k")
        return disappear(-float(k) / (k - 1), f"{k} equal terms anywhere")
    if sid == "exact_nonconsec":
        spec = _spec_param(params)
        if side == "appear":
            r = max(spec.terms)
            return appear(-1.0 / r, f"nonconsecutive exact pattern, largest term {r}")
        return disappear(-1.0, "any nonconsecutive exact pattern")
    if sid == "vincular":
        spec = _spec_param(params)
        if side == "appear":
            s = max(sum(b) for b in spec.blocks)
            return appear(-1.0 / s, f"vincular pattern, largest block size {s}")
        ell = max(len(b) for b in spec.blocks)
        return disappear(-1.0 / ell, f"vincular pattern, longest block length {ell}")
    if sid == "total_ordering_nonconsec":
        (k,) = _require(params, "k")
        return appear(-1.0 / (k - 1), f"nonconsecutive total ordering pattern of length {k}")
    if sid == "square":
        return square_threshold(n, params.get("c", 0.0))
    raise UnsupportedProperty(f"unknown statistic id {statistic_id!r}")


def square_threshold(n: int, c: float = 0.0) -> TheoryPrediction:
    """Largest-square heuristic: side k*(n) and the size scale m* ~ n log n / log log n."""
    ln = log(n)
    lln = log(ln)
    llln = log(lln) if lln > 1 else 0.0
    k_star = (ln / lln) * (1.0 + c * llln / lln)
    return TheoryPrediction(k_star, "threshold_location", exact=False,
                            regime="largest square side; seen when m ~ n log n/log log n",
                            details={"param": "k", "m_star": n * ln / lln})


def square_regime_evaluator(n: int, theta: float, c: float) -> dict:
    """log E[X] and log R for the k-square count at the coalescing scale.

    q = theta*log log n/log n and k = (log n/log log n)(1 + c*log log log n/
    log log n).  A diagnostic evaluator only: no finite n is in-regime, so no
    pass/fail judgement is attached.
    """
    ln = log(n)
    lln = log(ln)
    llln = log(lln)
    q = theta * lln / ln
    k = (ln / lln) * (1.0 + c * llln / lln)
    logp = log1p(-q)
    log_ex = log(max(n + 1 - k, 1)) + k * log(q) + k * k * logp
    log_r = log(k) - log(n) + (1 - k) * log(q) + (k - k * k) * logp
    return {"q": q, "k": k, "log_mean_count": log_ex, "log_second_moment_ratio": log_r}
