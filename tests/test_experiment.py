import json
import math
import pickle
import time

import pytest

from compevo import experiment
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
    with pytest.raises(ValueError, match="unknown theory keys"):
        _config(theory={"poisson": "some", "bogus": 1})


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


def test_worker_count_invariance():
    base = {
        "version": 1, "model": "geometric",
        "grid": [{"n": 30, "p": 0.2}, {"n": 30, "p": 0.4}],
        "property": {"statistic": "cmax_ge", "params": {"k": 2}},
        "trials": CHUNK + 100,  # force a partial chunk
        "seed": 77,
    }
    serial = rows_to_csv(run_sweep(ExperimentConfig.from_dict(base)))
    parallel = rows_to_csv(run_sweep(ExperimentConfig.from_dict(
        {**base, "workers": 2})))
    assert serial == parallel


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
