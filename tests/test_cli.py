import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import compevo
from compevo import experiment
from compevo.cli import main, parse_composition


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# -- imports -----------------------------------------------------------------

def test_cli_import_leaves_scipy_unloaded():
    # numpy is the library's only runtime dependency; scipy, which takes about
    # a second to import, is for the tests.  A fresh interpreter shows what
    # the imports pull in.
    src = str(Path(compevo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, compevo, compevo.cli, compevo.experiment, compevo.stats; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# -- composition parsing -----------------------------------------------------

def test_parse_composition_forms():
    assert list(parse_composition("1,12,0,3").terms) == [1, 12, 0, 3]
    assert list(parse_composition("0212").terms) == [0, 2, 1, 2]
    assert list(parse_composition("5").terms) == [5]
    assert list(parse_composition(" 1 , 2 ").terms) == [1, 2]


@pytest.mark.parametrize("text", ["", "1,,2", "1,-2", "abc", "1.5"])
def test_parse_composition_errors(text):
    from compevo.cli import UsageError
    with pytest.raises(UsageError):
        parse_composition(text)


# -- sample ------------------------------------------------------------------

def test_sample_uniform():
    code, out = run_cli("sample", "--uniform", "n=3", "m=2", "--count", "4",
                        "--seed", "1")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 4
    for row in rows:
        terms = [int(x) for x in row.split(",")]
        assert len(terms) == 3 and sum(terms) == 2


def test_sample_seed_reproducible():
    _, a = run_cli("sample", "--geometric", "n=5", "p=0.5", "--count", "3",
                   "--seed", "9")
    _, b = run_cli("sample", "--geometric", "n=5", "p=0.5", "--count", "3",
                   "--seed", "9")
    _, c = run_cli("sample", "--geometric", "n=5", "p=0.5", "--count", "3",
                   "--seed", "10")
    assert a == b and a != c


def test_sample_chain():
    # the urn chain is the uniform sampler's stars branch, not a flag of its own
    assert run_cli("sample", "--chain", "n=4", "m=3", "--seed", "2") == (1, "")


def test_sample_formats():
    code, out = run_cli("sample", "--uniform", "n=3", "m=2", "--seed", "3",
                        "--format", "json-array")
    assert code == 0 and sum(json.loads(out)) == 2
    code, out = run_cli("sample", "--uniform", "n=3", "m=2", "--seed", "3",
                        "--format", "digits")
    assert code == 0 and len(out.strip()) == 3
    # digit rendering cannot express a two-digit term
    code, _ = run_cli("sample", "--uniform", "n=1", "m=12", "--seed", "3",
                      "--format", "digits")
    assert code == 1


def test_sample_bad_params():
    assert run_cli("sample", "--geometric", "n=3", "p=1.0")[0] == 1
    assert run_cli("sample", "--geometric", "n=3")[0] == 1
    assert run_cli("sample", "--uniform", "n=3", "m=x")[0] == 1
    # a negative count printed nothing and exited 0
    assert run_cli("sample", "--uniform", "n=3", "m=2", "--count", "-2")[0] == 1


def test_sample_seed_defaults_to_zero():
    assert run_cli("sample", "--geometric", "n=8", "p=0.5") == \
        run_cli("sample", "--geometric", "n=8", "p=0.5", "--seed", "0")


@pytest.mark.parametrize("argv, message", [
    # n = 0 and n = 1 divided by zero, and n = -4 gave a complex p*
    ("theory threshold cmax_ge k=2 n=0", "need n >= 2"),
    ("theory threshold cmax_ge k=2 n=1", "need n >= 2"),
    ("theory threshold cmax_ge k=2 n=-4", "need n >= 2"),
    ("theory expected-components n=-5 p=0.3", "need n >= 1 and 0 <= p < 1, got n=-5, p=0.3"),
    ("sample --geometric n=0 p=0.3", "need n >= 1 and 0 <= p < 1, got n=0, p=0.3"),
    ("sample --uniform n=4 m=-1", "need n >= 1 and m >= 0, got n=4, m=-1"),
    # the empty pattern text was parsed instead
    ("theory prob-exact-at-position p=0.3", "missing parameter spec="),
    # any text but 1/true/yes read as false
    ("oracle geometric n=20 p=0.5 --statistic equal_run k=2 nonzero=flase",
     "bad value for nonzero: 'flase'"),
    # a Poisson mean of NaN or inf was printed as JSON it is not, with exit 0
    ("theory poisson cmax_ge k=2 alpha=nan", "alpha must be positive and finite, got nan"),
    ("theory poisson cmax_ge k=2 alpha=inf", "alpha must be positive and finite, got inf"),
    # a bare OverflowError: n^exponent of an n no float holds, and alpha^2 beyond the floats
    (f"theory threshold cmax_ge k=2 n={10 ** 400}", "need n <= 1.798e+308, the largest float"),
    ("theory poisson cmax_ge k=2 alpha=1e200", "the Poisson mean at alpha=1e+200 overflows"),
])
def test_invalid_model_point_is_one_error_line(capsys, argv, message):
    assert run_cli(*argv.split()) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, key", [
    # the misspelled key was ignored: n = 10^4 answered, and nonzero stayed true
    ("theory threshold cmax_ge k=2 N=100", "N"),
    ("oracle geometric n=20 p=0.5 --statistic equal_run k=2 nonzer=0", "nonzer"),
    ("theory poisson cmax_ge k=2 alfa=2", "alfa"),
    ("sample --geometric n=5 p=0.5 k=2", "k"),
    ("oracle count n=3 m=2 mm=2", "mm"),
    # each request takes its own keys only: these keys belong to another one
    ("sample --geometric n=5 p=0.5 m=3", "m"),
    ("oracle count n=3 m=2 p=0.5", "p"),
    ("oracle geometric n=5 p=0.5 m=3 --statistic cmax_ge k=2", "m"),
    ("theory threshold cmax_ge k=2 n=100 p=0.2", "p"),
    ("theory poisson cmax_ge k=2 alpha=1 n=100", "n"),
    ("theory expected-gaps n=5 p=0.3 spec=e:[1]", "spec"),
])
def test_unknown_key_is_one_error_line(capsys, argv, key):
    assert run_cli(*shlex.split(argv)) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown parameter {key!r}; expected one of ")
    assert err.count("\n") == 1


# -- stats -------------------------------------------------------------------

def test_stats_output():
    code, out = run_cli("stats", "0212")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["size"] == 5
    assert doc["components"] == 1 and doc["gaps"] == 1
    assert doc["cmax"] == 3 and doc["tmax"] == 2 and doc["is_carlitz"]


def test_stats_all_zero():
    code, out = run_cli("stats", "0,0,0")
    doc = json.loads(out)
    assert code == 0 and doc["size"] == 0 and doc["components"] == 0


def test_stats_term_beyond_int64_is_one_error_line(capsys):
    assert run_cli("stats", "99999999999999999999,1")[0] == 1
    assert capsys.readouterr().err == "error: composition terms must be at most 2**63 - 1\n"


# -- match -------------------------------------------------------------------

def test_match_count():
    code, out = run_cli("match", "2,0,2,0,2", "e:[2,0,2]")
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 2 and doc["exists"]


def test_match_positions_and_strict():
    code, out = run_cli("match", "1,2,0,0", "e:[1,2],0", "--positions")
    doc = json.loads(out)
    assert code == 0 and doc["positions"] == [[1, 3], [1, 4]]
    code, out = run_cli("match", "1,2,0", "e:[1,2],0", "--strict")
    assert code == 0 and not json.loads(out)["exists"]


def test_pattern_term_beyond_int64_matches_nothing():
    code, out = run_cli("match", "1,2,3", "e:[99999999999999999999]")
    assert code == 0 and json.loads(out)["count"] == 0
    code, out = run_cli("oracle", "uniform", "n=3", "m=2",
                        "--pattern", "e:[99999999999999999999]")
    assert code == 0 and json.loads(out)["rational"] == "0"


def test_match_pattern_error_exit_code():
    code, _ = run_cli("match", "1,2", "e:[1,")
    assert code == 1
    code, _ = run_cli("match", "1,2", "q:[1]")
    assert code == 1


# -- theory ------------------------------------------------------------------

def test_theory_poisson():
    import math
    code, out = run_cli("theory", "poisson", "cmax_ge", "k=2", "alpha=1.0")
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == pytest.approx(1.0)
    assert doc["prob_some"] == pytest.approx(1 - math.exp(-1))


def test_theory_threshold():
    code, out = run_cli("theory", "threshold", "exact_consec",
                        "spec=e:[1,1]", "side=appear", "n=10000")
    doc = json.loads(out)
    assert code == 0 and "details" in doc


def test_theory_passes_every_statistic_parameter():
    code, out = run_cli("theory", "poisson", "equal_run", "k=3", "side=disappear", "alpha=2")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(4 / 3)
    code, out = run_cli("theory", "threshold", "exact_consec", "spec=e:[2]",
                        "side=disappear", "n=10000")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(1e-4)
    assert run_cli("theory", "poisson", "cmax_ge", "k=two")[0] == 1


def test_theory_degenerate_k_is_one_error_line(capsys):
    assert run_cli("theory", "threshold", "equal_terms", "k=1")[0] == 2
    assert capsys.readouterr().err == "error: statistic 'equal_terms' has no threshold at k = 1\n"
    assert run_cli("theory", "poisson", "equal_terms", "k=0")[0] == 2
    assert capsys.readouterr().err == "error: statistic 'equal_terms' has no threshold at k = 0\n"


def test_theory_expected_components():
    code, out = run_cli("theory", "expected-components", "n=100", "p=0.3")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(21.09)


def test_theory_unknown():
    assert run_cli("theory", "nonsense")[0] == 1
    assert run_cli("theory", "poisson", "not_a_statistic")[0] == 2


# -- render ------------------------------------------------------------------

def test_render_ascii():
    code, out = run_cli("render", "1,3,0,2")
    assert code == 0
    lines = out.split("\n")
    assert lines[-2] == "----"
    assert len(lines) == 5  # 3 levels + baseline + trailing newline split
    assert lines[2] == "####"[0] + "#" + " " + "#"


def test_render_svg():
    code, out = run_cli("render", "0,2", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ") and out.count("<rect") == 1


# -- oracle ------------------------------------------------------------------

def test_oracle_count():
    code, out = run_cli("oracle", "count", "n=3", "m=2")
    assert code == 0 and out.strip() == "6"


def test_oracle_uniform():
    code, out = run_cli("oracle", "uniform", "n=3", "m=2", "--pattern", "e:[1,1]")
    doc = json.loads(out)
    assert code == 0 and doc["rational"] == "1/3"


def test_oracle_geometric():
    code, out = run_cli("oracle", "geometric", "n=3", "p=0.5",
                        "--statistic", "cmax_ge", "k=2")
    doc = json.loads(out)
    assert code == 0 and doc["lo"] == pytest.approx(0.375)


def test_oracle_any_square():
    code, out = run_cli("oracle", "geometric", "n=100", "p=0.5",
                        "--statistic", "any_square")
    doc = json.loads(out)
    assert code == 0 and doc["lo"] == pytest.approx(1.0) and doc["lo"] <= doc["hi"]
    code, out = run_cli("oracle", "geometric", "n=100", "p=0.5",
                        "--statistic", "any_square", "min_k=2")
    doc = json.loads(out)
    assert code == 0 and 0.0 < doc["lo"] <= doc["hi"] <= doc["lo"] + 1e-9
    code, _ = run_cli("oracle", "geometric", "n=100", "p=0.5",
                      "--statistic", "increasing_run", "k=2")
    assert code == 2


def test_oracle_geometric_needs_a_term():
    code, _ = run_cli("oracle", "geometric", "n=0", "p=0.5", "--statistic", "cmax_ge", "k=2")
    assert code == 1


def test_oracle_unsupported_exit_code():
    code, _ = run_cli("oracle", "geometric", "n=3", "p=0.5",
                      "--pattern", "o:[0,1]")
    assert code == 2


def test_oracle_guard_exit_code():
    code, _ = run_cli("oracle", "uniform", "n=40", "m=40",
                      "--pattern", "e:[1,1]")
    assert code == 2
    # about 22,000 value classes: it ran until killed
    code, _ = run_cli("oracle", "geometric", "n=5", "p=0.999", "--statistic", "carlitz")
    assert code == 2


def test_unrecognized_arguments():
    assert run_cli("stats", "1,2", "--bogus")[0] == 1


# -- sweep -------------------------------------------------------------------

def test_sweep_csv_and_workers(tmp_path):
    cfg = {
        "version": 1, "model": "geometric",
        "grid": [{"n": 20, "p": 0.3}],
        "property": {"statistic": "cmax_ge", "params": {"k": 2}},
        "trials": 2000, "seed": 5,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, serial = run_cli("sweep", str(path))
    assert code == 0
    assert serial.startswith("n,m_or_p,trials,")
    code, parallel = run_cli("sweep", str(path), "--workers", "2")
    assert code == 0 and serial == parallel
    out_file = tmp_path / "rows.csv"
    code, _ = run_cli("sweep", str(path), "--output", str(out_file))
    assert code == 0 and out_file.read_text() == serial


def test_sweep_json_format(tmp_path):
    cfg = {
        "version": 1, "model": "uniform",
        "grid": [{"n": 3, "m": 2}],
        "property": {"statistic": "contains", "pattern": "e:[1,1]"},
        "trials": 500, "seed": 5,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli("sweep", str(path), "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["n"] == 3 and row["trials"] == 500


def test_sweep_of_several_configs_writes_one_file_each(tmp_path):
    cfg = {"version": 1, "model": "geometric", "grid": [{"n": 20, "p": 0.3}],
           "property": {"statistic": "cmax_ge", "params": {"k": 2}}, "trials": 500, "seed": 5}
    paths = []
    for k in (2, 3):
        path = tmp_path / f"k{k}.json"
        path.write_text(json.dumps({**cfg, "property": {"statistic": "cmax_ge", "params": {"k": k}}}))
        paths.append(str(path))
    alone = [run_cli("sweep", path)[1] for path in paths]
    out = tmp_path / "rows"
    code, text = run_cli("sweep", *paths, "--output-dir", str(out), "--workers", "2")
    assert code == 0 and text == ""
    assert [(out / f"k{k}.csv").read_text() for k in (2, 3)] == alone
    assert alone[0] != alone[1]
    # several configs need a directory, and two of one name would overwrite each other
    assert run_cli("sweep", *paths)[0] == 1
    assert run_cli("sweep", *paths, "--output", str(tmp_path / "x.csv"))[0] == 1
    (tmp_path / "other").mkdir()
    twin = tmp_path / "other" / "k2.json"
    twin.write_text(json.dumps(cfg))
    assert run_cli("sweep", paths[0], str(twin), "--output-dir", str(out))[0] == 1
    # a bad config anywhere stops the run before any sweep
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99}")
    assert run_cli("sweep", paths[0], str(bad), "--output-dir", str(tmp_path / "none"))[0] == 1
    assert not (tmp_path / "none").exists()


def test_shipped_configs_load():
    shipped = sorted((Path(__file__).resolve().parents[1] / "configs").glob("**/*.json"))
    assert len(shipped) == 5
    for path in shipped:
        experiment.ExperimentConfig.from_dict(json.loads(path.read_text()))


def test_sweep_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"version\": 99}")
    assert run_cli("sweep", str(path))[0] == 1
    # a path that does not exist was a FileNotFoundError traceback
    missing = tmp_path / "missing.json"
    capsys.readouterr()
    assert run_cli("sweep", str(missing)) == (1, "")
    message = f"error: cannot read config {missing}: No such file or directory\n"
    assert capsys.readouterr().err == message


# -- README ------------------------------------------------------------------

def _readme_commands() -> list[str]:
    """Every ``compevo ...`` line of the README's CLI block but ``sweep``,
    which needs a config file."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.splitlines()]
    return [line for line in lines
            if line.startswith("compevo ") and not line.startswith("compevo sweep ")]


def test_readme_lists_cli_examples():
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_cli_example_runs(command):
    code, out = run_cli(*shlex.split(command, comments=True)[1:])
    assert code == 0 and out
