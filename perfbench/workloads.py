"""The four benchmark workloads: their inputs, made from a seed, and one pass of each.

Inputs are plain JSON-able descriptions built with the standard library only
(``describe``), so a fresh interpreter can time its own set-up from nothing.
``materialize`` turns a description into compevo objects through the public
API, and ``run_pass`` drives one pass through the same calls ``compevo sweep``
and ``compevo oracle`` make.

Sizes are chosen so that one pass takes about 0.5-2.5 s on a 2-core x86-64
host and no process holds more than about 0.5 GB.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden_uniform.json"

CHUNK = 4096  # experiment.CHUNK; trial counts below are multiples of it

# p = alpha * n^(-1/2): the appearance threshold of a component of length 2.
# n is 2500 rather than 10^4 so that a 4096-trial chunk fits in ~0.3 GB per
# worker. That makes the terms about twice as dense: p is 0.01-0.04 and about
# 2.3% of terms are nonzero, against 0.005-0.02 and about 1.2% at n = 10^4.
GEOMETRIC_SPARSE = {
    "version": 1, "model": "geometric",
    "grid": {"n": 2500, "alphas": [0.5, 1.0, 2.0], "param": "p", "exponent": -0.5},
    "property": {"statistic": "cmax_ge", "params": {"k": 2}},
    "trials": 2 * CHUNK, "workers": 2, "theory": {"poisson": "some"},
}

# m = n^c across the u:[1,1] appearance threshold at c = 1/2 (criterion 7).
UNIFORM_THRESHOLD = {
    "version": 1, "model": "uniform",
    "grid": {"n": 2500, "m_exponents": [0.25, 0.4, 0.5, 0.6, 0.75]},
    "property": {"statistic": "contains", "pattern": "u:[1,1]"},
    "trials": CHUNK, "workers": 1,
}

# A two-block pattern: holds_batch falls back to one patterns.match per row.
VINCULAR = {
    "version": 1, "model": "geometric",
    "grid": [{"n": 200, "p": 0.05}, {"n": 200, "p": 0.1}, {"n": 200, "p": 0.2}],
    "property": {"statistic": "contains", "pattern": "e:1,[0,2]"},
    "trials": 2 * CHUNK, "workers": 1,
}

SWEEPS = {
    "sweep-geometric-sparse": GEOMETRIC_SPARSE,
    "sweep-uniform-threshold": UNIFORM_THRESHOLD,
    "sweep-vincular": VINCULAR,
}

_N6 = 2 * 10 ** 4
# Geometric DP queries. The first three are criterion 6's, at the Poisson
# scale n^(-1/2); the last three track term values up to a truncation cap and
# are sized so that each answer lies inside (0.05, 0.95).
ORACLE_DP = [
    {"form": "cmax_ge", "n": _N6, "p": _N6 ** -0.5, "statistic": ["cmax_ge", {"k": 2}]},
    {"form": "pattern", "n": _N6, "p": _N6 ** -0.5, "pattern": "e:[1,1]"},
    {"form": "cmin_gt", "n": _N6, "p": 1.0 - _N6 ** -0.5, "statistic": ["cmin_gt", {"k": 1}]},
    {"form": "equal_run", "n": 200, "p": 0.3,
     "statistic": ["equal_run", {"k": 3, "nonzero": True}]},
    {"form": "carlitz", "n": 8, "p": 0.6, "statistic": ["carlitz", {}]},
    {"form": "any_square", "n": 1000, "p": 0.001, "statistic": ["any_square", {}]},
]

# The one large enumeration: binom(17, 8) = 24,310 compositions, ~0.6 s, so
# that a pass stays near 2 s and a run holds about ten of them.
ORACLE_ENUM = {"statistic": "contains", "params": {}, "pattern": "e:[1,1]", "n": 9, "m": 9}

WORKLOADS = (*SWEEPS, "oracle-exact")


def describe(workload: str, seed: int) -> dict:
    """The workload's inputs for one seed, as plain data."""
    if workload in SWEEPS:
        return {"kind": "sweep", "config": {**SWEEPS[workload], "seed": seed}}
    if workload != "oracle-exact":
        raise KeyError(f"unknown workload {workload!r}")
    golden = json.loads(GOLDEN.read_text())
    queries = ([{"kind": "dp", **q} for q in ORACLE_DP]
               + [{"kind": "enum", "golden": i, **c} for i, c in enumerate(golden)]
               + [{"kind": "enum", "golden": None, **ORACLE_ENUM}])
    # the query set is fixed; the seed only fixes the order it is asked in
    random.Random(seed).shuffle(queries)
    return {"kind": "oracle", "queries": queries}


def materialize(desc: dict):
    """Parse a description into compevo objects; this is the workload's set-up."""
    if desc["kind"] == "sweep":
        from compevo.experiment import ExperimentConfig
        return ExperimentConfig.from_dict(desc["config"])
    import compevo.oracle  # noqa: F401  (the queries' engine is part of set-up)
    from compevo.patterns import parse_pattern
    from compevo.properties import Property
    built = []
    for q in desc["queries"]:
        if q["kind"] == "dp":
            form = (parse_pattern(q["pattern"]) if "pattern" in q
                    else (q["statistic"][0], dict(q["statistic"][1])))
            built.append((q, form))
        else:
            built.append((q, Property(q["statistic"], dict(q["params"]), spec=q["pattern"])))
    return built


def query_id(q: dict) -> str:
    if q["kind"] == "dp":
        return f"dp.{q['form']}"
    return "enum.big" if q["golden"] is None else f"enum.golden{q['golden']:02d}"


def run_pass(desc: dict) -> dict:
    """One untraced pass of the workload from its description; returns its outputs."""
    if desc["kind"] == "sweep":
        from compevo.experiment import rows_to_csv, run_sweep
        config = materialize(desc)
        return {"csv": rows_to_csv(run_sweep(config))}
    from compevo.oracle import exact_prob_geometric_consecutive, exact_prob_uniform
    out = {}
    for q, obj in materialize(desc):
        if q["kind"] == "dp":
            res = exact_prob_geometric_consecutive(q["n"], q["p"], obj)
            out[query_id(q)] = {"lo": res.lo, "hi": res.hi}
        else:
            res = exact_prob_uniform(q["n"], q["m"], obj.holds)
            out[query_id(q)] = {"rational": str(res.rational)}
    return out


def counts(desc: dict) -> tuple[int, int]:
    """(queries, trials) answered by one pass.

    A sweep answers one query per grid point from ``trials`` Monte Carlo
    trials each. The oracle's trials are the compositions its exact
    enumerations score.
    """
    if desc["kind"] == "sweep":
        config = materialize(desc)
        return len(config.grid), len(config.grid) * config.trials
    from math import comb
    enum = [q for q in desc["queries"] if q["kind"] == "enum"]
    return len(desc["queries"]), sum(comb(q["m"] + q["n"] - 1, q["m"]) for q in enum)


def _setup_child(argv: list[str]) -> None:
    """Entry for set-up timing in a fresh interpreter; prints the ready time."""
    import sys
    sys.path.insert(0, str(SRC))
    materialize(json.loads(argv[0]))
    print(time.monotonic(), flush=True)


if __name__ == "__main__":
    import sys
    _setup_child(sys.argv[1:])
