"""Config-driven Monte Carlo sweeps with worker-count-invariant output.

A sweep estimates P(property) on a grid of model points.  Trials are split
into fixed-size chunks; the chunk index, never the worker id, selects the
RNG substream, and per-point results are integer success counts, so the
output is byte-identical for any worker count.

With ``workers`` > 1 the chunks run on a process pool that is kept between
sweeps: the next sweep with the same count reuses its warm workers, another
count shuts it down and starts a new one, and a sweep that fails (a chunk's
error, a dead worker, an interrupt) shuts it down with its queued chunks
cancelled, so the next sweep starts clean.  The workers exit with the
interpreter.  They are forked once, so they keep the module state of that
moment and do not see a later change to it (a monkeypatch, say).  Between
sweeps each idle worker holds its heap, about 40 MB at n = 2500.  No byte of
output depends on whether a pool is new or reused.  ``compevo sweep`` given
several configs runs them all in one process and so on one pool; given one
config it neither gains nor loses by this.

Config schema (JSON, version 1)::

    {
      "version": 1,
      "model": "geometric" | "uniform",
      "grid": [ {"n": 10000, "p": 0.01},          # explicit points, or
                {"n": 10000, "m": 100}, ... ]
              | {"n": 10000, "m_exponents": [0.25, 0.5]}       # uniform: m = round(n^c)
              | {"n": 10000, "alphas": [0.5, 1, 2],            # geometric:
                 "param": "p" | "q", "exponent": -0.5},       # p or q = alpha*n^e
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

The config, ``property``, ``theory``, a parametric grid and each grid point
are JSON objects.  Each is refused, with one ValueError that names it and the
key, when it has a key the schema does not show for it or lacks a required
one: every key shown but ``confidence``, ``interval``, ``workers``, ``timing``,
``theory``, ``pattern``, ``params`` and the grid's ``param``.  So is a grid
point with n < 1, m < 0, p outside [0, 1) or m + n - 1 >= 2**63 (beyond the
uniform batch sampler's int64).
A value of the wrong type is refused, never converted: ``trials``, ``seed``, ``workers``
and grid ``n`` and ``m`` are ints, ``timing`` is a bool and every other number is a real;
``statistic`` is a string, ``params`` an object, and ``m_exponents`` and ``alphas`` lists.
``Property`` refuses a bad ``params`` key, value or type here as well.
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import theory
from .core import ChunkError, EstimateResult, UnsupportedProperty, check_geometric
from .properties import Property, admits, typed
from .rng import RngStream
from .samplers import check_urn, geometric_blocks, uniform_blocks
from .stats import INTERVALS, proportion_estimate

CHUNK = 4096  # trials per RNG substream; part of the determinism contract
SCHEMA_VERSION = 1
# the keys of each config object: (required, optional)
CONFIG_KEYS = ({"version", "model", "grid", "property", "trials", "seed"},
               {"confidence", "interval", "workers", "timing", "theory"})
PROPERTY_KEYS = ({"statistic"}, {"pattern", "params"})
POINT_KEYS = {"uniform": ({"n", "m"}, set()), "geometric": ({"n", "p"}, set())}
PARAMETRIC_KEYS = {"uniform": ({"n", "m_exponents"}, set()),
                   "geometric": ({"n", "alphas", "exponent"}, {"param"})}
THEORY_KEYS = ({"poisson"}, set())


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

    @property
    def label(self) -> str:
        where = f"m={self.m}" if self.model == "uniform" else f"p={self.p}"
        scale = "" if self.alpha is None else f", alpha={self.alpha}"
        return f"n={self.n}, {where}{scale}"


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
        if isinstance(doc, dict) and doc.get("version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValueError(f"unsupported config version {doc['version']!r}")
        _check_keys(doc, CONFIG_KEYS, "config")
        model = doc["model"]
        if model not in ("uniform", "geometric"):
            raise ValueError(f"unknown model {model!r}")
        grid = _parse_grid(doc["grid"], model)
        if not grid:
            raise ValueError("grid is empty")
        pdoc = doc["property"]
        _check_keys(pdoc, PROPERTY_KEYS, "property")
        prop = Property(typed(str, pdoc["statistic"], "property statistic"),
                        typed(dict, pdoc.get("params", {}), "property params"),
                        spec=pdoc.get("pattern"))
        trials = typed(int, doc["trials"], "trials", least=1)
        workers = doc.get("workers", 1)
        if workers == "auto":
            import os
            workers = os.cpu_count() or 1
        workers = typed(int, workers, "workers", least=1)
        theory_mode = None
        if "theory" in doc:
            _check_keys(doc["theory"], THEORY_KEYS, "theory")
            theory_mode = doc["theory"]["poisson"]
            if theory_mode not in ("some", "none"):
                raise ValueError("theory.poisson must be 'some' or 'none'")
        conf = typed(float, doc.get("confidence", 0.95), "confidence")
        if not (0.0 < conf < 1.0):
            raise ValueError("confidence must be in (0, 1)")
        interval = doc.get("interval", "wilson")
        if not admits(str, interval) or interval not in INTERVALS:
            raise ValueError(f"interval must be one of {sorted(INTERVALS)}, got {interval!r}")
        return cls(model=model, grid=grid, prop=prop, trials=trials,
                   seed=typed(int, doc["seed"], "seed"), confidence=conf, interval=interval,
                   workers=workers, timing=typed(bool, doc.get("timing", False), "timing"),
                   theory_mode=theory_mode)


def _check_keys(doc, keys: tuple[set[str], set[str]], where: str) -> None:
    """A ValueError naming ``where`` unless ``doc`` is a JSON object with every
    required key of ``keys`` and no key that is neither required nor optional."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    required, optional = keys
    unknown = sorted(set(doc) - required - optional)
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    missing = sorted(required - set(doc))
    if missing:
        raise ValueError(f"missing {where} keys: {missing}")


def _parse_grid(gdoc, model: str) -> list[GridPoint]:
    if isinstance(gdoc, list):
        pts = []
        for entry in gdoc:
            _check_keys(entry, POINT_KEYS[model], "grid point")
            n = typed(int, entry["n"], "grid n")
            if model == "uniform":
                pts.append(GridPoint(n=n, model=model, m=typed(int, entry["m"], "grid m")))
            else:
                pts.append(GridPoint(n=n, model=model, p=typed(float, entry["p"], "grid p")))
        return [_check_point(pt) for pt in pts]
    if not isinstance(gdoc, dict):
        raise ValueError("grid must be a point list or a parametric description")
    _check_keys(gdoc, PARAMETRIC_KEYS[model], "grid")
    n = typed(int, gdoc["n"], "grid n")
    if n < 1:  # before n ** c, which fails or means nothing for n < 1
        raise ValueError(f"grid n={n}: need n >= 1")
    if model == "uniform":
        exponents = typed(list, gdoc["m_exponents"], "grid m_exponents")
        for c in exponents:  # an int c keeps n ** c exact
            if math.isnan(typed(float, c, "grid m_exponents")):
                raise ValueError(f"grid m_exponents must be a number, got {c!r}")
        try:
            ms = [int(round(n ** c)) for c in exponents]
        except OverflowError:  # a float n ** c beyond the float range
            raise ValueError(f"grid n={n}: n^c overflows for an m exponent") from None
        return [_check_point(GridPoint(n=n, model=model, m=m, alpha=float(c)))
                for m, c in zip(ms, exponents)]
    param = gdoc.get("param", "p")
    if param not in ("p", "q"):
        raise ValueError(f"grid param must be 'p' or 'q', got {param!r}")
    e = typed(float, gdoc["exponent"], "grid exponent")
    try:
        power = n ** e
    except OverflowError:  # n or n ** e beyond the float range
        raise ValueError(f"grid n={n}: n^e overflows for the exponent {e!r}") from None
    pts = []
    for a in typed(list, gdoc["alphas"], "grid alphas"):
        a = typed(float, a, "grid alphas")
        scale = a * power
        p = scale if param == "p" else 1.0 - scale
        pts.append(_check_point(GridPoint(n=n, model=model, p=p, alpha=a)))
    return pts


def _check_point(point: GridPoint) -> GridPoint:
    """The point, or a ValueError naming it if its model cannot sample it."""
    try:
        if point.model == "uniform":
            check_urn(point.n, point.m)
        else:
            check_geometric(point.n, point.p)
    except ValueError as exc:
        raise ValueError(f"grid point ({point.label}): {exc}") from None
    return point


# -- chunked execution -------------------------------------------------------

def _chunk_successes(point: GridPoint, prop: Property, seed: int,
                     point_index: int, chunk_index: int, count: int) -> int:
    stream = RngStream(seed, 0).substream(point_index).substream(chunk_index)
    # each row block is decided while it is in cache; no chunk matrix is built
    if point.model == "geometric":
        blocks = geometric_blocks(point.n, point.p, stream, count)
    else:
        blocks = uniform_blocks(point.n, point.m, count, stream)
    return sum(int(prop.holds_batch(block).sum()) for block in blocks)


def _run_task(task) -> tuple[int, int, float]:
    """(point index, successes, seconds this chunk took in its worker)."""
    point, prop, seed, pi, ci, count = task
    t0 = time.perf_counter()
    try:
        hits = _chunk_successes(point, prop, seed, pi, ci, count)
    except Exception as exc:
        raise ChunkError(f"grid point {pi} ({point.label}), chunk {ci}: "
                         f"{type(exc).__name__}: {exc}") from exc
    return pi, hits, time.perf_counter() - t0


# the worker pool kept between sweeps, with its worker count
_POOL: tuple[int, ProcessPoolExecutor] | None = None
_POOL_LOCK = threading.Lock()  # held by the one sweep that uses or replaces the pool


def _pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool of ``workers`` processes; another count replaces it.

    The old pool is shut down before the new one forks, so that no thread of
    a pool is running at the fork.
    """
    global _POOL
    if _POOL is None or _POOL[0] != workers:
        _drop_pool()
        _POOL = workers, ProcessPoolExecutor(max_workers=workers)
    return _POOL[1]


def _drop_pool() -> None:
    """Shut the kept pool down, its queued chunks cancelled, and forget it."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown(cancel_futures=True)


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
        with _POOL_LOCK:
            try:
                results = list(_pool(config.workers).map(_run_task, tasks, chunksize=1))
            except BaseException:
                # a failed sweep leaves no queued chunk behind and no pool to the next one
                _drop_pool()
                raise
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
