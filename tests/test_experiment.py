import io
import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from compevo import experiment
from compevo.cli import main
from compevo.experiment import (CHUNK, CSV_HEADER, ChunkError, ExperimentConfig, GridPoint,
                                run_sweep, rows_to_csv, rows_to_json)


def _config(**overrides):
    doc = {
        "version": 1,
        "model": "geometric",
        "grid": [{"n": 50, "p": 0.1}, {"n": 50, "p": 0.3}],
        "property": {"statistic": "cmax_ge", "params": {"k": 2}},
        "trials": 3000,
        "seed": 123,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def test_config_parsing():
    cfg = _config()
    assert cfg.model == "geometric"
    assert [pt.p for pt in cfg.grid] == [0.1, 0.3]
    assert cfg.workers == 1 and cfg.interval == "wilson"
    assert cfg.theory_mode is None
    assert _config(workers="auto").workers == (os.cpu_count() or 1)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        _config(version=2)
    with pytest.raises(ValueError):
        _config(model="weird")
    with pytest.raises(ValueError):
        _config(grid=[])
    with pytest.raises(ValueError):
        _config(trials=0)
    with pytest.raises(ValueError):
        _config(confidence=1.5)
    with pytest.raises(ValueError):
        _config(theory={"poisson": "sideways"})
    with pytest.raises(ValueError):
        _config(grid={"n": 100, "m_exponents": [0.5]})  # needs uniform model
    with pytest.raises(ValueError, match="unknown config keys"):
        _config(trails=100)
    with pytest.raises(ValueError, match="interval"):
        _config(interval="wilsn")
    with pytest.raises(ValueError, match="unknown property keys"):
        _config(property={"statistic": "cmax_ge", "parmas": {"k": 2}})
    with pytest.raises(ValueError, match="unknown grid point keys"):
        _config(grid=[{"n": 50, "p": 0.1, "m": 5}])
    with pytest.raises(ValueError, match="unknown grid keys"):
        _config(grid={"n": 50, "alphas": [1.0], "exponent": -0.5, "expnent": -1})
    with pytest.raises(ValueError, match="unknown grid keys"):
        _config(model="uniform", grid={"n": 50, "m_exponents": [0.5], "param": "p"},
                property={"statistic": "contains", "pattern": "u:[1,1]"})
    with pytest.raises(ValueError, match="needs parameter 'k'"):
        _config(property={"statistic": "cmax_ge"})
    with pytest.raises(ValueError, match="takes no parameter 'nonzer'"):
        _config(property={"statistic": "equal_run", "params": {"k": 2, "nonzer": False}})
    with pytest.raises(ValueError, match="unknown theory keys"):
        _config(theory={"poisson": "some", "bogus": 1})
    uniform = {"model": "uniform", "property": {"statistic": "contains", "pattern": "u:[1,1]"}}
    with pytest.raises(ValueError, match=r"grid point \(n=10, m=-1\)"):
        _config(grid=[{"n": 10, "m": -1}], **uniform)
    with pytest.raises(ValueError, match=r"grid point \(n=0, m=3\)"):
        _config(grid=[{"n": 0, "m": 3}], **uniform)
    with pytest.raises(ValueError, match="grid n=0"):
        _config(grid={"n": 0, "m_exponents": [-0.5]}, **uniform)
    with pytest.raises(ValueError, match=r"grid point \(n=50, p=-0.1\)"):
        _config(grid=[{"n": 50, "p": 0.1}, {"n": 50, "p": -0.1}])
    # m + n - 1 beyond int64 failed only inside the first chunk, in the urn's draw
    with pytest.raises(ValueError,
                       match=r"grid point \(n=100, m=10+, alpha=1000.0\): need m \+ n - 1 < 2"):
        _config(grid={"n": 100, "m_exponents": [1000]}, **uniform)
    with pytest.raises(ValueError, match=r"grid point \(n=100, m=9223372036854775808\)"):
        _config(grid=[{"n": 100, "m": 2 ** 63}], **uniform)
    with pytest.raises(ValueError, match="grid n=100: n\\^c overflows"):
        _config(grid={"n": 100, "m_exponents": [1000.0]}, **uniform)
    # a float n ** e beyond the float range, or an n no float holds, was a bare OverflowError
    with pytest.raises(ValueError, match="grid n=100: n\\^e overflows for the exponent 400.0"):
        _config(grid={"n": 100, "alphas": [1.0], "exponent": 400.0})
    with pytest.raises(ValueError, match="n\\^e overflows for the exponent -0.5"):
        _config(grid={"n": 10 ** 400, "alphas": [1.0], "exponent": -0.5})
    with pytest.raises(ValueError, match=r"grid point \(n=50, p=1.0\)"):
        _config(grid=[{"n": 50, "p": 1.0}])
    with pytest.raises(ValueError, match=r"grid point \(n=0, p=0.1\)"):
        _config(grid=[{"n": 0, "p": 0.1}])
    with pytest.raises(ValueError, match=r"p=-1.0, alpha=20.0\)"):
        _config(grid={"n": 100, "alphas": [20.0], "param": "q", "exponent": -0.5})
    # each of these parsed or raised a bare TypeError: bool("false") turned timing
    # on, workers < 1 ran serially, and a bool or a string stood in for a real
    alphas = {"n": 100, "alphas": [1.0], "exponent": -0.5}
    for overrides, message in [
            ({"timing": "false"}, "timing must be bool, got 'false'"),
            ({"confidence": "0.9"}, "confidence must be float, got '0.9'"),
            ({"interval": ["wilson"]},
             "interval must be one of ['clopper-pearson', 'wilson'], got ['wilson']"),
            ({"workers": 0}, "workers must be >= 1, got 0"),
            ({"workers": -3}, "workers must be >= 1, got -3"),
            ({"grid": [{"n": 50, "p": False}]}, "grid p must be float, got False"),
            ({"grid": [{"n": 50, "p": "0.3"}]}, "grid p must be float, got '0.3'"),
            ({"grid": {**alphas, "alphas": [True]}}, "grid alphas must be float, got True"),
            ({"grid": {**alphas, "exponent": "-0.5"}}, "grid exponent must be float, got '-0.5'"),
            ({"grid": {**alphas, "param": "x"}}, "grid param must be 'p' or 'q', got 'x'"),
            ({"grid": {"n": 100, "m_exponents": ["0.5"]}, **uniform},
             "grid m_exponents must be float, got '0.5'"),
            # int(round(n ** nan)) named no field
            ({"grid": {"n": 100, "m_exponents": [math.nan]}, **uniform},
             "grid m_exponents must be a number, got nan"),
            # these were TypeErrors: from dict(...), a list as a dict key, iterating a float
            ({"property": {"statistic": "cmax_ge", "params": [2]}},
             "property params must be dict, got [2]"),
            ({"property": {"statistic": ["cmax_ge"], "params": {"k": 2}}},
             "property statistic must be str, got ['cmax_ge']"),
            ({"grid": {"n": 100, "m_exponents": 0.5}, **uniform},
             "grid m_exponents must be list, got 0.5"),
            ({"grid": {**alphas, "alphas": 1.0}}, "grid alphas must be list, got 1.0")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _config(**overrides)


_ALPHAS = {"n": 100, "alphas": [1.0], "exponent": -0.5}
_UNIFORM = {"model": "uniform", "property": {"statistic": "contains", "pattern": "u:[1,1]"}}


# (where the key belongs, its path in the config, overrides that make the config
# valid with it); each missing key was a bare KeyError from ``compevo sweep``
_MISSING = [
    *[("config", (key,), {}) for key in ("version", "model", "grid", "property", "trials",
                                          "seed")],
    ("property", ("property", "statistic"), {}),
    ("grid point", ("grid", 1, "n"), {}),
    ("grid point", ("grid", 1, "p"), {}),
    ("grid point", ("grid", 0, "m"), {"grid": [{"n": 10, "m": 3}], **_UNIFORM}),
    ("grid", ("grid", "n"), {"grid": _ALPHAS}),
    ("grid", ("grid", "alphas"), {"grid": _ALPHAS}),
    ("grid", ("grid", "exponent"), {"grid": _ALPHAS}),
    ("grid", ("grid", "m_exponents"), {"grid": {"n": 100, "m_exponents": [0.5]}, **_UNIFORM}),
    ("theory", ("theory", "poisson"), {"grid": _ALPHAS, "theory": {"poisson": "some"}}),
]


@pytest.mark.parametrize("where, path, overrides", _MISSING,
                         ids=["/".join(map(str, path)) for _, path, _ in _MISSING])
def test_a_missing_key_is_named_with_its_place(tmp_path, capsys, where, path, overrides):
    doc = {"version": 1, "model": "geometric", "grid": [{"n": 50, "p": 0.1}, {"n": 50, "p": 0.3}],
           "property": {"statistic": "cmax_ge", "params": {"k": 2}}, "trials": 30, "seed": 1,
           **json.loads(json.dumps(overrides))}
    ExperimentConfig.from_dict(doc)  # valid with the key
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    message = f"missing {where} keys: [{path[-1]!r}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(doc)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    assert main(["sweep", str(config)], out=io.StringIO()) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config must be a JSON object, got list"),  # was an AttributeError
    ('{"version": 1, "model": "geometric", "grid": [[50, 0.1]], "property": {}, "trials": 1,'
     ' "seed": 1}', "grid point must be a JSON object, got list"),
    ('{"version": 1, "model": "geometric", "grid": 50, "property": {}, "trials": 1, "seed": 1}',
     "grid must be a point list or a parametric description"),
], ids=["config", "grid point", "grid"])
def test_a_config_object_of_the_wrong_type_is_one_error(tmp_path, capsys, text, message):
    config = tmp_path / "sweep.json"
    config.write_text(text)
    assert main(["sweep", str(config), "--workers", "2", "--seed", "3"], out=io.StringIO()) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("overrides,field,value", [
    # each field was truncated silently through int(); the grid is read first
    ({"trials": 2.7, "seed": 1.5, "grid": [{"n": 20.9, "p": 0.3}]}, "grid n", 20.9),
    ({"trials": 2.7, "seed": 1.5}, "trials", 2.7),
    ({"seed": 1.5}, "seed", 1.5),
    ({"grid": {"n": 20.9, "alphas": [1.0], "exponent": -0.5}}, "grid n", 20.9),
    ({"model": "uniform", "grid": [{"n": 20, "m": 3.9}],
      "property": {"statistic": "contains", "pattern": "u:[1,1]"}}, "grid m", 3.9),
    ({"trials": True}, "trials", True),
    ({"workers": 1.7}, "workers", 1.7),
])
def test_non_integer_count_fails_before_any_chunk(monkeypatch, tmp_path, capsys,
                                                  overrides, field, value):
    def no_chunks(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(experiment, "_chunk_successes", no_chunks)
    message = f"{field} must be int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        _config(**overrides)
    doc = {"version": 1, "model": "geometric", "grid": [{"n": 20, "p": 0.3}],
           "property": {"statistic": "cmax_ge", "params": {"k": 2}}, "trials": 10, "seed": 1,
           **overrides}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", str(path)], out=io.StringIO()) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parametric_uniform_grid():
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "uniform",
        "grid": {"n": 100, "m_exponents": [0.5, 1.0]},
        "property": {"statistic": "contains", "pattern": "u:[1,1]"},
        "trials": 10, "seed": 1,
    })
    assert [(pt.m, pt.alpha) for pt in cfg.grid] == [(10, 0.5), (100, 1.0)]


def test_parametric_geometric_grid():
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "geometric",
        "grid": {"n": 10 ** 4, "alphas": [0.5, 1.0], "param": "p",
                 "exponent": -0.5},
        "property": {"statistic": "cmax_ge", "params": {"k": 2}},
        "trials": 10, "seed": 1,
    })
    assert cfg.grid[0].p == pytest.approx(0.005)
    assert cfg.grid[1].alpha == 1.0
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({
            "version": 1, "model": "geometric",
            "grid": {"n": 4, "alphas": [10.0], "param": "p", "exponent": -0.5},
            "property": {"statistic": "cmax_ge", "params": {"k": 2}},
            "trials": 10, "seed": 1,
        })


def test_sweep_estimates_match_theory():
    # P(some term >= 1) = 1 - p^0 ... use tmax_ge r=1: 1 - q^n? no:
    # P(tmax >= 1) = 1 - P(all zero) = 1 - (1-p)^n
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "geometric",
        "grid": [{"n": 10, "p": 0.2}],
        "property": {"statistic": "tmax_ge", "params": {"r": 1}},
        "trials": 20000, "seed": 9,
    })
    (row,) = run_sweep(cfg)
    want = 1 - 0.8 ** 10
    assert abs(row.estimate.point - want) < 4 * math.sqrt(want * (1 - want) / 20000)
    assert row.estimate.ci_low <= row.estimate.point <= row.estimate.ci_high
    assert row.theory_value is None and row.seconds is None


def test_sweep_uniform_model():
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "uniform",
        "grid": [{"n": 3, "m": 2}],
        "property": {"statistic": "contains", "pattern": "e:[1,1]"},
        "trials": 30000, "seed": 17,
    })
    (row,) = run_sweep(cfg)
    assert abs(row.estimate.point - 1 / 3) < 0.02


@pytest.mark.parametrize("model, grid, prop", [
    ("geometric", [{"n": 30, "p": 0.2}, {"n": 30, "p": 0.4}],
     {"statistic": "cmax_ge", "params": {"k": 2}}),
    ("geometric", [{"n": 30, "p": 0.05}],  # the sparse sampler
     {"statistic": "cmax_ge", "params": {"k": 2}}),
    ("uniform", [{"n": 30, "m": 5}, {"n": 30, "m": 60}],  # stars, then bars
     {"statistic": "contains", "pattern": "u:[1,1]"}),
], ids=["geometric-dense", "geometric-sparse", "uniform"])
def test_worker_count_invariance(model, grid, prop):
    base = {
        "version": 1, "model": model, "grid": grid, "property": prop,
        "trials": CHUNK + 100,  # force a partial chunk
        "seed": 77,
    }
    serial = rows_to_csv(run_sweep(ExperimentConfig.from_dict(base)))
    parallel = rows_to_csv(run_sweep(ExperimentConfig.from_dict(
        {**base, "workers": 2})))
    assert serial == parallel


def test_uniform_sweep_csv_is_pinned():
    # the urn's draws are part of the CSV contract: stars at m = 5 and 12,
    # bars at (8, 9) and (6, 8), each point a full and a remainder chunk
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "uniform",
        "grid": [{"n": 30, "m": 5}, {"n": 30, "m": 12}, {"n": 8, "m": 9}, {"n": 6, "m": 8}],
        "property": {"statistic": "contains", "pattern": "u:[3]"},
        "trials": CHUNK + 123, "seed": 2026,
    })
    assert rows_to_csv(run_sweep(cfg)) == (
        "n,m_or_p,trials,p_hat,ci_low,ci_high,theory,abs_diff,seconds\n"
        "30,5,4219,0.04953780517,0.04339019204,0.0565049764,,,\n"
        "30,12,4219,0.5439677649,0.5289056353,0.5589499008,,,\n"
        "8,9,4219,0.9134866082,0.9046232466,0.921597684,,,\n"
        "6,8,4219,0.9274709647,0.9192498287,0.9349143722,,,\n")


# two points at n = 2500, two chunks each: four tasks of about 10 ms
POOL_SWEEP = {
    "version": 1, "model": "geometric", "grid": [{"n": 2500, "p": 0.02}, {"n": 2500, "p": 0.04}],
    "property": {"statistic": "cmax_ge", "params": {"k": 2}}, "trials": CHUNK + 100, "seed": 5,
}


def _pool_sweep(workers: int, **overrides) -> str:
    doc = {**POOL_SWEEP, "workers": workers, **overrides}
    return rows_to_csv(run_sweep(ExperimentConfig.from_dict(doc)))


def _worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_the_pool_is_kept_between_sweeps():
    serial = _pool_sweep(1)
    assert _worker_pids() == set()  # one worker is the serial path: no pool
    first = _pool_sweep(2)
    pids = _worker_pids()
    assert len(pids) == 2
    assert _pool_sweep(2) == first == serial
    assert _worker_pids() == pids
    # another worker count shuts the kept pool down and starts a new one
    assert _pool_sweep(3) == serial
    three = _worker_pids()
    assert len(three) == 3 and not three & pids
    assert all(_gone(pid) for pid in pids)


def test_a_killed_worker_fails_its_sweep_and_the_next_starts_clean():
    serial = _pool_sweep(1)
    _pool_sweep(2)
    pids = _worker_pids()
    victim = min(pids)
    os.kill(victim, signal.SIGKILL)
    try:  # wait for its death, leaving it for the pool to reap
        os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)
    except ChildProcessError:  # the pool has seen it die and reaped it already
        pass
    with pytest.raises(BrokenProcessPool):
        _pool_sweep(2)
    assert _pool_sweep(2) == serial
    fresh = _worker_pids()
    assert len(fresh) == 2 and not fresh & pids


def test_a_chunk_error_leaves_the_next_sweep_correct():
    # each row holds more than 30 distinct values, so the worker's first row
    # needs more than ASSIGNMENT_CAP exact patterns of o:0,1,2
    with pytest.raises(ChunkError, match="GuardExceeded"):
        _pool_sweep(2, grid=[{"n": 500, "p": 0.97}],
                    property={"statistic": "contains", "pattern": "o:0,1,2"})
    assert _worker_pids() == set()
    assert _pool_sweep(2) == _pool_sweep(1)


def test_workers_exit_with_the_interpreter():
    code = ("import json, multiprocessing\n"
            "from compevo.experiment import ExperimentConfig, run_sweep\n"
            f"run_sweep(ExperimentConfig.from_dict({{**{POOL_SWEEP!r}, 'workers': 2}}))\n"
            "print(json.dumps([c.pid for c in multiprocessing.active_children()]))\n")
    src = str(Path(experiment.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    pids = json.loads(proc.stdout)
    assert len(pids) == 2
    assert all(_gone(pid) for pid in pids)


def test_theory_column():
    n = 10 ** 3
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "geometric",
        "grid": {"n": n, "alphas": [1.0], "param": "p", "exponent": -0.5},
        "property": {"statistic": "cmax_ge", "params": {"k": 2}},
        "trials": 5000, "seed": 3,
        "theory": {"poisson": "some"},
    })
    (row,) = run_sweep(cfg)
    assert row.theory_value == pytest.approx(1 - math.exp(-1))
    assert row.abs_diff == abs(row.estimate.point - row.theory_value)
    assert row.abs_diff < 0.05


def test_theory_error_is_raised_before_the_monte_carlo_run(monkeypatch):
    # alpha = 0 is a valid point (p = 0) but no Poisson scale: the theory's
    # ValueError must surface before any chunk runs, not become an empty cell
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "geometric",
        "grid": {"n": 100, "alphas": [0.0], "param": "p", "exponent": -0.5},
        "property": {"statistic": "cmax_ge", "params": {"k": 2}},
        "trials": 10, "seed": 3,
        "theory": {"poisson": "some"},
    })

    def no_chunks(*args):
        raise AssertionError("a chunk ran before the theory cells")

    monkeypatch.setattr(experiment, "_chunk_successes", no_chunks)
    with pytest.raises(ValueError, match="alpha must be positive"):
        run_sweep(cfg)


def test_chunk_failure_names_its_place_in_the_sweep(monkeypatch):
    def fail(point, prop, seed, point_index, chunk_index, count):
        if point_index == 1 and chunk_index == 1:
            raise KeyError("k")
        return 0

    monkeypatch.setattr(experiment, "_chunk_successes", fail)
    cfg = _config(trials=CHUNK + 1, workers=1)
    with pytest.raises(ChunkError) as info:
        run_sweep(cfg)
    msg = str(info.value)
    assert msg == "grid point 1 (n=50, p=0.3), chunk 1: KeyError: 'k'"
    # a pool sends the exception back pickled
    assert str(pickle.loads(pickle.dumps(info.value))) == msg


def test_unsupported_theory_leaves_the_cell_empty():
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "geometric",
        "grid": {"n": 100, "alphas": [1.0], "param": "p", "exponent": -0.5},
        "property": {"statistic": "contains", "pattern": "e:1,[0,2]"},
        "trials": 10, "seed": 3,
        "theory": {"poisson": "some"},
    })
    (row,) = run_sweep(cfg)
    assert row.theory_value is None and row.abs_diff is None


def test_equal_runs_with_zeros_get_the_theory_of_their_side():
    def sweep(n, param, params, trials):
        return run_sweep(ExperimentConfig.from_dict({
            "version": 1, "model": "geometric",
            "grid": {"n": n, "alphas": [1.0], "param": param, "exponent": -0.5},
            "property": {"statistic": "equal_run", "params": params},
            "trials": trials, "seed": 11,
            "theory": {"poisson": "some"},
        }))[0]

    # runs of zeros are there from the start: no appearance theory
    row = sweep(2000, "p", {"k": 2, "nonzero": False}, 10)
    assert row.theory_value is None
    # disappearance mean alpha^(k-1)/k; the finite-n bias here is about 0.005
    trials = 2 * 4096
    row = sweep(2500, "q", {"k": 3, "nonzero": False, "side": "disappear"}, trials)
    t = row.theory_value
    assert t == pytest.approx(1 - math.exp(-1 / 3))
    assert abs(row.estimate.point - t) <= 4 * math.sqrt(t * (1 - t) / trials)


def test_uniform_exponent_grid_leaves_the_theory_cell_empty():
    # the grid's alpha is the exponent c of m = n^c, not a Poisson scale
    cfg = ExperimentConfig.from_dict({
        "version": 1, "model": "uniform",
        "grid": {"n": 400, "m_exponents": [0.5]},
        "property": {"statistic": "upper_consec", "pattern": "u:[1,1]"},
        "trials": 10, "seed": 3,
        "theory": {"poisson": "some"},
    })
    (row,) = run_sweep(cfg)
    assert row.point.alpha == 0.5
    assert row.theory_value is None and row.abs_diff is None


def test_seconds_are_per_point_chunk_times():
    cfg = _config(grid=[{"n": 50, "p": 0.1}, {"n": 400, "p": 0.3}],
                  trials=CHUNK + 100, timing=True, workers=1)
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    wall = time.perf_counter() - t0
    seconds = [row.seconds for row in rows]
    assert all(s > 0 for s in seconds)
    assert sum(seconds) <= wall


def test_csv_format():
    cfg = _config(trials=100)
    rows = run_sweep(cfg)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "50" and cells[2] == "100"
    assert cells[8] == ""  # seconds blank unless timing is on
    timed = run_sweep(_config(trials=100, timing=True))
    assert rows_to_csv(timed).strip().split("\n")[1].split(",")[8] != ""


def test_json_format():
    rows = run_sweep(_config(trials=100))
    out = json.loads(rows_to_json(rows))
    assert len(out) == 2
    assert out[0]["n"] == 50 and out[0]["trials"] == 100
    assert set(out[0]) == {"n", "m_or_p", "alpha", "trials", "p_hat", "ci_low",
                           "ci_high", "theory", "abs_diff", "seconds"}


def test_grid_point_m_or_p():
    assert GridPoint(n=5, model="uniform", m=3).m_or_p == 3
    assert GridPoint(n=5, model="geometric", p=0.25).m_or_p == 0.25
