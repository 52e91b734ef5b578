"""Traced replay: the same work as a pass, call by call, with spans per layer.

Spans are recorded by the benchmark around its calls into compevo's public
API; nothing inside compevo is instrumented. A sweep is replayed by
rebuilding each (point, chunk) RNG stream the way ``experiment.run_sweep``
keys it, so the replay's success counts must equal the sweep CSV's; when they
do not, the trace is stale and is reported as such.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from math import comb

import numpy as np

from workloads import materialize, query_id


class Tracer:
    """Spans kept in flat arrays: name code, start, end, parent index, pass id.

    Arrays rather than per-span objects, so that holding 10^5 spans adds
    nothing for the garbage collector to walk.
    """

    def __init__(self):
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end_ = array("d")
        self.parent = array("q")
        self.pass_of = array("i")
        self._stack: list[int] = []
        self.pass_id = 0

    def begin(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_of.append(self.pass_id)
        self.end_.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.end_[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (inclusive seconds, self seconds, calls)."""
        dur = np.frombuffer(self.end_, dtype=np.float64) - np.frombuffer(self.start)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        k = len(self.names)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        return ({n: float(incl[i]) for i, n in enumerate(self.names)},
                {n: float(own[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def to_json(self) -> dict:
        return {"names": self.names, "fields": ["name", "start", "end", "parent", "pass"],
                "spans": [list(t) for t in zip(self.name, (round(x, 7) for x in self.start),
                                                (round(x, 7) for x in self.end_),
                                                self.parent, self.pass_of)]}


@contextmanager
def counting_match(tracer: Tracer):
    """Wrap patterns.match for the traced replay only; restore it afterwards."""
    from compevo import patterns
    real = patterns.match

    def match(*args, **kwargs):
        idx = tracer.begin("patterns.match")
        try:
            return real(*args, **kwargs)
        finally:
            tracer.end(idx)

    patterns.match = match
    try:
        yield
    finally:
        patterns.match = real


def replay_sweep(desc: dict, tracer: Tracer) -> tuple[list[int], dict]:
    """Replay one sweep pass; return per-point successes and sampler tallies."""
    from compevo import theory
    from compevo.core import UnsupportedProperty
    from compevo.experiment import CHUNK
    from compevo.rng import RngStream
    from compevo.samplers import geometric_terms, uniform_bars_batch
    from compevo.stats import proportion_estimate

    tally = {"terms": 0, "nonzero": 0, "out_bytes": 0}
    succ = []
    with tracer.span("workload"):
        config = materialize(desc)
        sampler = ("samplers.geometric_terms" if config.model == "geometric"
                   else "samplers.uniform_bars_batch")
        full, rem = divmod(config.trials, CHUNK)
        chunks = [CHUNK] * full + ([rem] if rem else [])
        for pi, point in enumerate(config.grid):
            hits = 0
            for ci, count in enumerate(chunks):
                with tracer.span("experiment.task"):
                    with tracer.span("rng.substream"):
                        stream = RngStream(config.seed, 0).substream(pi).substream(ci)
                        stream.generator  # the PCG64 key schedule runs here
                    with tracer.span(sampler):
                        if config.model == "geometric":
                            samples = geometric_terms(point.n, point.p, stream, count=count)
                        else:
                            samples = uniform_bars_batch(point.n, point.m, count, stream)
                    with tracer.span("properties.holds_batch"):
                        hits += int(config.prop.holds_batch(samples).sum())
                tally["terms"] += samples.size
                tally["nonzero"] += int(np.count_nonzero(samples))
                tally["out_bytes"] += samples.nbytes
            with tracer.span("stats.proportion_estimate"):
                proportion_estimate(hits, config.trials, config.seed, config.confidence,
                                    config.interval)
            if config.theory_mode is not None and point.alpha is not None:
                with tracer.span("theory.poisson_limit"):
                    try:
                        theory.poisson_limit(config.prop.statistic_id,
                                             {**config.prop.params, "spec": config.prop.spec},
                                             point.alpha)
                    except UnsupportedProperty:
                        pass
            succ.append(hits)
    return succ, tally


def replay_oracle(desc: dict, tracer: Tracer) -> tuple[dict, dict]:
    """Replay the query set with a span per query and per predicate call."""
    from compevo.oracle import (exact_prob_geometric_consecutive, exact_prob_uniform,
                                iter_uniform)
    out = {}
    tally = {"compositions": 0, "iter_compositions": 0}

    def counted(holds):
        def pred(comp):
            idx = tracer.begin("properties.holds")
            try:
                return holds(comp)
            finally:
                tracer.end(idx)
        return pred

    with tracer.span("workload"):
        for q, obj in materialize(desc):
            qid = query_id(q)
            if q["kind"] == "dp":
                with tracer.span(f"oracle.dp.{q['form']}"):
                    res = exact_prob_geometric_consecutive(q["n"], q["p"], obj)
                out[qid] = {"lo": res.lo, "hi": res.hi}
            else:
                with tracer.span("oracle.enum"):
                    res = exact_prob_uniform(q["n"], q["m"], counted(obj.holds))
                out[qid] = {"rational": str(res.rational)}
                tally["compositions"] += comb(q["m"] + q["n"] - 1, q["m"])
                if q["golden"] is None:
                    # enumeration alone, without the predicate, on the big query
                    with tracer.span("oracle.iter_uniform"):
                        tally["iter_compositions"] += sum(1 for _ in iter_uniform(q["n"], q["m"]))
    return out, tally

