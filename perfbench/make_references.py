"""Regenerate perfbench/references.json, the reference answers the checks use.

    python3 perfbench/make_references.py

References are independent of the benchmark's own runs:

* geometric DP queries and the sweep-geometric-sparse points: a second
  transfer-matrix computation in 40-digit mpmath arithmetic, written here from
  the definitions of the statistics, not from compevo.oracle (values are
  truncated at a term cap whose tail is below 1e-30);
* sweep-uniform-threshold and sweep-vincular points: a large Monte Carlo
  estimate under a seed no benchmark run uses, stored with its seed, trial
  count and the source digest it was made with;
* the n=9, m=9 enumeration: the exact rational at the time of writing.

Regenerate only when a workload's inputs change, never to make a check pass.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath as mp

import workloads as wl
from env import environment

REFS = Path(__file__).resolve().parent / "references.json"
MC_SEED = 0x5EED_0F_2EF5  # far from the small seeds benchmark runs use
MC_TRIALS = 64 * wl.CHUNK  # per point
MC_WORKERS = 2  # sets only the speed; sweep answers do not depend on it

mp.mp.dps = 40


def _geom(p: mp.mpf, v: int) -> mp.mpf:
    return (1 - p) * p ** v


def cmax_ge2(n: int, p: float) -> mp.mpf:
    """P(two adjacent nonzero terms); chain on 'last term nonzero'."""
    p = mp.mpf(p)
    zero, nonzero = 1 - p, p  # mass with last term zero / nonzero, no pair yet
    for _ in range(n - 1):
        zero, nonzero = (zero + nonzero) * (1 - p), zero * p
    return 1 - zero - nonzero


def exact_11(n: int, p: float) -> mp.mpf:
    """P(two adjacent terms both equal to 1)."""
    p = mp.mpf(p)
    one = _geom(p, 1)
    last1, other = one, 1 - one
    for _ in range(n - 1):
        last1, other = other * one, (last1 + other) * (1 - one)
    return 1 - last1 - other


def cmin_gt1(n: int, p: float) -> mp.mpf:
    """P(some nonzero term, and no nonzero term stands alone)."""
    p = mp.mpf(p)
    q = 1 - p
    # states: (run length 0/1/>=2, any component seen); an ended run of 1 is fatal
    s = {(0, False): q, (1, True): p}
    for _ in range(n - 1):
        t = {}
        for (run, seen), w in s.items():
            if run != 1:  # a zero ends the run safely
                t[(0, seen)] = t.get((0, seen), 0) + w * q
            nxt = (min(run + 1, 2), True)
            t[nxt] = t.get(nxt, 0) + w * p
        s = t
    return sum(w for (run, seen), w in s.items() if seen and run != 1)


def _value_chain(n: int, p: float, cap: int, step) -> mp.mpf:
    """P(no hit) over i.i.d. terms 0..cap, state (last value, run length).

    ``step(last, run, v)`` returns the next state or None on a hit.
    """
    p = mp.mpf(p)
    probs = [_geom(p, v) for v in range(cap + 1)]
    s = {}
    for v, w in enumerate(probs):
        st = step(None, 0, v)
        if st is not None:
            s[st] = s.get(st, 0) + w
    for _ in range(n - 1):
        t = {}
        for (last, run), w in s.items():
            for v, pv in enumerate(probs):
                st = step(last, run, v)
                if st is not None:
                    t[st] = t.get(st, 0) + w * pv
        s = t
    return sum(s.values())


def equal_run(n: int, p: float, k: int, cap: int = 60) -> mp.mpf:
    """P(k consecutive equal nonzero terms)."""
    def step(last, run, v):
        if v == 0:
            return (0, 0)
        run = run + 1 if v == last else 1
        return None if run >= k else (v, run)
    return 1 - _value_chain(n, p, cap, step)


def carlitz(n: int, p: float, cap: int = 160) -> mp.mpf:
    """P(no two adjacent terms equal)."""
    def step(last, run, v):
        return None if v == last else (v, 1)
    return _value_chain(n, p, cap, step)


def any_square(n: int, p: float, cap: int = 8) -> mp.mpf:
    """P(some k >= 1 with k consecutive terms all equal to k)."""
    def step(last, run, v):
        if v == 0:
            return (0, 0)
        run = run + 1 if v == last else 1
        return None if run >= v else (v, run)
    return 1 - _value_chain(n, p, cap, step)


DP_REFERENCE = {
    "cmax_ge": lambda q: cmax_ge2(q["n"], q["p"]),
    "pattern": lambda q: exact_11(q["n"], q["p"]),
    "cmin_gt": lambda q: cmin_gt1(q["n"], q["p"]),
    "equal_run": lambda q: equal_run(q["n"], q["p"], q["statistic"][1]["k"]),
    "carlitz": lambda q: carlitz(q["n"], q["p"]),
    "any_square": lambda q: any_square(q["n"], q["p"]),
}


def _mc_points(name: str) -> dict:
    from compevo.experiment import ExperimentConfig, run_sweep
    doc = {**wl.SWEEPS[name], "seed": MC_SEED, "trials": MC_TRIALS, "workers": MC_WORKERS}
    rows = run_sweep(ExperimentConfig.from_dict(doc))
    return {"method": "monte_carlo", "seed": MC_SEED, "trials": MC_TRIALS,
            "points": [{"n": r.point.n, "m_or_p": r.point.m_or_p,
                        "prob": r.estimate.point} for r in rows]}


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    from compevo.experiment import ExperimentConfig

    t0 = time.monotonic()
    geo = ExperimentConfig.from_dict({**wl.GEOMETRIC_SPARSE, "seed": 0})
    doc = {
        "environment": environment(None),
        "sweep-geometric-sparse": {
            "method": "mpmath_transfer_matrix",
            "points": [{"n": pt.n, "m_or_p": pt.p, "prob": float(cmax_ge2(pt.n, pt.p))}
                       for pt in geo.grid]},
        "sweep-uniform-threshold": _mc_points("sweep-uniform-threshold"),
        "sweep-vincular": _mc_points("sweep-vincular"),
        "oracle-exact": {
            "dp": {q["form"]: {"n": q["n"], "p": q["p"],
                               "prob": mp.nstr(DP_REFERENCE[q["form"]](q), 30)}
                   for q in wl.ORACLE_DP},
            "enum": {"n": wl.ORACLE_ENUM["n"], "m": wl.ORACLE_ENUM["m"],
                     "pattern": wl.ORACLE_ENUM["pattern"], "rational": _enum_rational()},
        },
    }
    doc["environment"]["generated_in_s"] = round(time.monotonic() - t0, 1)
    REFS.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {REFS}")
    return 0


def _enum_rational() -> str:
    from compevo.oracle import exact_prob_uniform
    from compevo.properties import Property
    e = wl.ORACLE_ENUM
    prop = Property(e["statistic"], dict(e["params"]), spec=e["pattern"])
    return str(exact_prob_uniform(e["n"], e["m"], prop.holds).rational)


if __name__ == "__main__":
    sys.exit(main())
