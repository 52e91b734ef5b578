"""Config-driven Monte Carlo sweeps with worker-count-invariant output.

A sweep estimates P(property) on a grid of model points.  Trials are split
into fixed-size chunks; the chunk index, never the worker id, selects the
RNG substream, and per-point results are integer success counts, so the
output is byte-identical for any worker count.

Config schema (JSON, version 1)::

    {
      "version": 1,
      "model": "geometric" | "uniform",
      "grid": [ {"n": 10000, "p": 0.01},          # explicit points, or
                {"n": 10000, "m": 100}, ... ]
              | {"n": 10000, "m_exponents": [0.25, 0.5]}       # m = round(n^c)
              | {"n": 10000, "alphas": [0.5, 1, 2],            # p or q = alpha*n^e
                 "param": "p" | "q", "exponent": -0.5},
      "property": {"statistic": "upper_consec", "pattern": "u:[1,1]",
                   "params": {}},
      "trials": 10000,
      "seed": 42,
      "confidence": 0.95,
      "interval": "wilson" | "clopper-pearson",
      "workers": 1 | "auto",
      "timing": false,
      "theory": {"poisson": "some" | "none"}      # optional column, alpha grids
    }

Unknown keys are rejected at the top level, in ``property``, in ``theory`` and
in each grid entry.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import theory
from .core import EstimateResult, UnsupportedProperty
from .properties import Property
from .rng import RngStream
from .samplers import geometric_terms, uniform_bars_batch
from .stats import INTERVALS, proportion_estimate

CHUNK = 4096  # trials per RNG substream; part of the determinism contract
SCHEMA_VERSION = 1
CONFIG_KEYS = {"version", "model", "grid", "property", "trials", "seed", "confidence",
               "interval", "workers", "timing", "theory"}
PROPERTY_KEYS = {"statistic", "pattern", "params"}
POINT_KEYS = {"uniform": {"n", "m"}, "geometric": {"n", "p"}}
M_EXPONENT_KEYS = {"n", "m_exponents"}
ALPHA_KEYS = {"n", "alphas", "param", "exponent"}
THEORY_KEYS = {"poisson"}


@dataclass(frozen=True)
class GridPoint:
    n: int
    model: str  # "uniform" | "geometric"
    m: int | None = None
    p: float | None = None
    alpha: float | None = None  # set when the grid is parametric

    @property
    def m_or_p(self) -> float:
        return self.m if self.model == "uniform" else self.p


@dataclass(frozen=True)
class SweepRow:
    point: GridPoint
    estimate: EstimateResult
    theory_value: float | None = None
    seconds: float | None = None

    @property
    def abs_diff(self) -> float | None:
        if self.theory_value is None:
            return None
        return abs(self.estimate.point - self.theory_value)


@dataclass
class ExperimentConfig:
    model: str
    grid: list[GridPoint]
    prop: Property
    trials: int
    seed: int
    confidence: float = 0.95
    interval: str = "wilson"
    workers: int = 1
    timing: bool = False
    theory_mode: str | None = None  # "some" | "none"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if doc.get("version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported config version {doc.get('version')!r}")
        _reject_unknown_keys(doc, CONFIG_KEYS, "config")
        model = doc["model"]
        if model not in ("uniform", "geometric"):
            raise ValueError(f"unknown model {model!r}")
        grid = _parse_grid(doc["grid"], model)
        if not grid:
            raise ValueError("grid is empty")
        pdoc = doc["property"]
        _reject_unknown_keys(pdoc, PROPERTY_KEYS, "property")
        prop = Property(pdoc["statistic"], dict(pdoc.get("params", {})),
                        spec=pdoc.get("pattern"))
        trials = int(doc["trials"])
        if trials < 1:
            raise ValueError("trials must be >= 1")
        workers = doc.get("workers", 1)
        if workers == "auto":
            import os
            workers = os.cpu_count() or 1
        theory_mode = None
        if "theory" in doc:
            _reject_unknown_keys(doc["theory"], THEORY_KEYS, "theory")
            theory_mode = doc["theory"].get("poisson")
            if theory_mode not in ("some", "none"):
                raise ValueError("theory.poisson must be 'some' or 'none'")
        conf = float(doc.get("confidence", 0.95))
        if not (0.0 < conf < 1.0):
            raise ValueError("confidence must be in (0, 1)")
        interval = doc.get("interval", "wilson")
        if interval not in INTERVALS:
            raise ValueError(f"interval must be one of {sorted(INTERVALS)}, got {interval!r}")
        return cls(model=model, grid=grid, prop=prop, trials=trials,
                   seed=int(doc["seed"]), confidence=conf, interval=interval,
                   workers=int(workers), timing=bool(doc.get("timing", False)),
                   theory_mode=theory_mode)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _reject_unknown_keys(doc: dict, known: set[str], where: str) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")


def _parse_grid(gdoc, model: str) -> list[GridPoint]:
    if isinstance(gdoc, list):
        pts = []
        for entry in gdoc:
            _reject_unknown_keys(entry, POINT_KEYS[model], "grid point")
            n = int(entry["n"])
            if model == "uniform":
                pts.append(GridPoint(n=n, model=model, m=int(entry["m"])))
            else:
                pts.append(GridPoint(n=n, model=model, p=float(entry["p"])))
        return pts
    n = int(gdoc["n"])
    if "m_exponents" in gdoc:
        if model != "uniform":
            raise ValueError("m_exponents grid needs the uniform model")
        _reject_unknown_keys(gdoc, M_EXPONENT_KEYS, "grid")
        return [GridPoint(n=n, model=model, m=int(round(n ** c)), alpha=float(c))
                for c in gdoc["m_exponents"]]
    if "alphas" in gdoc:
        if model != "geometric":
            raise ValueError("alpha grid needs the geometric model")
        _reject_unknown_keys(gdoc, ALPHA_KEYS, "grid")
        param = gdoc.get("param", "p")
        e = float(gdoc["exponent"])
        pts = []
        for a in gdoc["alphas"]:
            scale = float(a) * n ** e
            p = scale if param == "p" else 1.0 - scale
            if not (0.0 <= p < 1.0):
                raise ValueError(f"alpha {a} puts p = {p} outside [0, 1)")
            pts.append(GridPoint(n=n, model=model, p=p, alpha=float(a)))
        return pts
    raise ValueError("grid must be a point list or a parametric description")


# -- chunked execution -------------------------------------------------------

def _chunk_successes(point: GridPoint, prop: Property, seed: int,
                     point_index: int, chunk_index: int, count: int) -> int:
    stream = RngStream(seed, 0).substream(point_index).substream(chunk_index)
    if point.model == "geometric":
        samples = geometric_terms(point.n, point.p, stream, count=count)
    else:
        samples = uniform_bars_batch(point.n, point.m, count, stream)
    return int(prop.holds_batch(samples).sum())


class ChunkError(RuntimeError):
    """A chunk failed; the message names its grid point and chunk index."""


def _run_task(task) -> tuple[int, int, float]:
    """(point index, successes, seconds this chunk took in its worker)."""
    point, prop, seed, pi, ci, count = task
    t0 = time.perf_counter()
    try:
        hits = _chunk_successes(point, prop, seed, pi, ci, count)
    except Exception as exc:
        where = f"m={point.m}" if point.model == "uniform" else f"p={point.p}"
        raise ChunkError(f"grid point {pi} (n={point.n}, {where}), chunk {ci}: "
                         f"{type(exc).__name__}: {exc}") from exc
    return pi, hits, time.perf_counter() - t0


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    # theory first: a real error in it must surface before any Monte Carlo work
    theory_values = [_theory_value(config, point) for point in config.grid]
    tasks = []
    for pi, point in enumerate(config.grid):
        full, rem = divmod(config.trials, CHUNK)
        for ci in range(full):
            tasks.append((point, config.prop, config.seed, pi, ci, CHUNK))
        if rem:
            tasks.append((point, config.prop, config.seed, pi, full, rem))
    successes = [0] * len(config.grid)
    seconds = [0.0] * len(config.grid)
    if config.workers <= 1:
        results = [_run_task(t) for t in tasks]
    else:
        pool = ProcessPoolExecutor(max_workers=config.workers)
        try:
            results = list(pool.map(_run_task, tasks, chunksize=1))
        finally:
            pool.shutdown()
    for pi, hits, secs in results:
        successes[pi] += hits
        seconds[pi] += secs
    rows = []
    for pi, point in enumerate(config.grid):
        est = proportion_estimate(successes[pi], config.trials, config.seed,
                                  config.confidence, config.interval)
        rows.append(SweepRow(point=point, estimate=est, theory_value=theory_values[pi],
                             seconds=seconds[pi] if config.timing else None))
    return rows


def _theory_value(config: ExperimentConfig, point: GridPoint) -> float | None:
    # Poisson limits are in the geometric scale alpha; a uniform grid's alpha
    # is the exponent c of m = n^c, which is no such scale
    if config.theory_mode is None or point.alpha is None or point.model == "uniform":
        return None
    try:
        pred = theory.poisson_limit(config.prop.statistic_id,
                                    {**config.prop.params, "spec": config.prop.spec},
                                    point.alpha)
    except UnsupportedProperty:
        return None
    return pred.prob_some() if config.theory_mode == "some" else pred.prob_none()


# -- serialization -----------------------------------------------------------

CSV_HEADER = "n,m_or_p,trials,p_hat,ci_low,ci_high,theory,abs_diff,seconds"


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return format(x, ".10g")


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        e = row.estimate
        lines.append(",".join([
            str(row.point.n), _fmt(row.point.m_or_p), str(e.trials),
            _fmt(e.point), _fmt(e.ci_low), _fmt(e.ci_high),
            _fmt(row.theory_value), _fmt(row.abs_diff), _fmt(row.seconds),
        ]))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepRow]) -> str:
    out = []
    for row in rows:
        e = row.estimate
        out.append({"n": row.point.n, "m_or_p": row.point.m_or_p,
                    "alpha": row.point.alpha, "trials": e.trials,
                    "p_hat": e.point, "ci_low": e.ci_low, "ci_high": e.ci_high,
                    "theory": row.theory_value, "abs_diff": row.abs_diff,
                    "seconds": row.seconds})
    return json.dumps(out, indent=2) + "\n"
