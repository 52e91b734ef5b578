"""The benchmark's own tests: each check must fail on a wrong answer.

    python3 -m pytest perfbench -q

Kept out of the repository's test paths; they need the compevo sources under
src/ of the same checkout.
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import workloads as wl

sys.path.insert(0, str(wl.SRC))

import checks  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402

TINY = {"kind": "sweep", "config": {
    "version": 1, "model": "geometric",
    "grid": [{"n": 60, "p": 0.1}, {"n": 60, "p": 0.3}],
    "property": {"statistic": "contains", "pattern": "e:1,[0,2]"},
    "trials": 300, "seed": 7, "workers": 1}}


@pytest.fixture(scope="module")
def refs():
    return checks.load_references()


def test_z_bound_accepts_reference_and_rejects_perturbed():
    assert checks.z_bound("x", 0.5, 8192, 0.5, None).ok
    se = (0.25 / 8192) ** 0.5
    assert checks.z_bound("x", 0.5 + 4 * se, 8192, 0.5, None).ok
    assert not checks.z_bound("x", 0.5 + 6 * se, 8192, 0.5, None).ok
    # a reference of exactly 1 still admits a single miss
    assert checks.z_bound("x", 1 - 1 / 4096, 4096, 1.0, 262144).ok


def _csv(probs, trials, n=2500, grid=(0.01, 0.02, 0.04)):
    lines = ["n,m_or_p,trials,p_hat,ci_low,ci_high,theory,abs_diff,seconds"]
    lines += [f"{n},{g},{trials},{p},0,1,,," for g, p in zip(grid, probs)]
    return "\n".join(lines) + "\n"


def test_sweep_check_fails_on_perturbed_reference(refs):
    pts = refs["sweep-geometric-sparse"]["points"]
    text = _csv([round(p["prob"] * 8192) / 8192 for p in pts], 8192)
    assert all(c.ok for c in checks.sweep_against_reference("sweep-geometric-sparse", text, refs))
    bad = copy.deepcopy(refs)
    bad["sweep-geometric-sparse"]["points"][1]["prob"] += 0.05
    found = checks.sweep_against_reference("sweep-geometric-sparse", text, bad)
    assert [c.ok for c in found] == [True, False, True]


def test_sweep_check_fails_on_wrong_grid_or_row_count(refs):
    pts = refs["sweep-geometric-sparse"]["points"]
    probs = [p["prob"] for p in pts]
    moved = _csv(probs, 8192, grid=(0.01, 0.03, 0.04))
    assert not all(c.ok for c in checks.sweep_against_reference("sweep-geometric-sparse",
                                                                 moved, refs))
    short = "\n".join(_csv(probs, 8192).splitlines()[:3]) + "\n"
    assert not any(c.ok for c in checks.sweep_against_reference("sweep-geometric-sparse",
                                                                short, refs))


def test_identical_fails_on_mismatched_csv():
    a = _csv([0.2, 0.6, 0.9], 8192)
    assert checks.identical("w", a, a).ok
    assert not checks.identical("w", a, a.replace("0.6", "0.7")).ok
    assert not checks.identical("w", a, a + "x").ok


def test_golden_and_interval_checks_fail_on_wrong_answers(refs):
    assert checks.golden("g", "9/35", "9/35").ok
    assert not checks.golden("g", "9/36", "9/35").ok
    ref = refs["oracle-exact"]["dp"]["cmax_ge"]["prob"]
    v = float(ref)
    assert checks.interval_contains("i", v, v, ref).ok
    assert not checks.interval_contains("i", v + 1e-6, v + 1e-6, ref).ok
    assert not checks.interval_contains("i", v - 2e-6, v - 1e-6, ref).ok


def test_oracle_check_fails_on_a_perturbed_golden(refs):
    desc = wl.describe("oracle-exact", 3)
    answers = {}
    for q in desc["queries"]:
        if q["kind"] == "dp":
            v = float(refs["oracle-exact"]["dp"][q["form"]]["prob"])
            answers[wl.query_id(q)] = {"lo": v, "hi": v}
        else:
            answers[wl.query_id(q)] = {"rational": q.get("probability")
                                       or refs["oracle-exact"]["enum"]["rational"]}
    assert all(c.ok for c in checks.oracle_against_reference(answers, desc, refs))
    answers["enum.golden03"] = {"rational": "1/2"}
    del answers["dp.carlitz"]
    failed = {c.name for c in checks.oracle_against_reference(answers, desc, refs) if not c.ok}
    assert failed == {"enum.golden03", "dp.carlitz"}


def test_stored_dp_references_agree_with_the_oracle(refs):
    from compevo.oracle import exact_prob_geometric_consecutive
    for pt in refs["sweep-geometric-sparse"]["points"]:
        res = exact_prob_geometric_consecutive(pt["n"], pt["m_or_p"], ("cmax_ge", {"k": 2}))
        assert checks.interval_contains("geo", res.lo, res.hi, repr(pt["prob"])).ok
    q = next(q for q in wl.ORACLE_DP if q["form"] == "carlitz")
    res = exact_prob_geometric_consecutive(q["n"], q["p"], ("carlitz", {}))
    assert checks.interval_contains("carlitz", res.lo, res.hi,
                                    refs["oracle-exact"]["dp"]["carlitz"]["prob"]).ok


def test_replay_matches_the_sweep_and_a_mismatch_is_seen():
    text = wl.run_pass(TINY)["csv"]
    tracer = tracing.Tracer()
    with tracing.counting_match(tracer):
        succ, tally = tracing.replay_sweep(TINY, tracer)
    assert succ == checks.successes(text)
    other = wl.run_pass({**TINY, "config": {**TINY["config"], "seed": 8}})["csv"]
    assert succ != checks.successes(other)
    incl, own, calls = tracer.totals()
    assert calls["patterns.match"] == 600  # one fallback call per row
    assert calls["experiment.task"] == 2
    assert tally["terms"] == 600 * 60


def test_match_wrapper_is_removed_after_the_replay():
    from compevo import patterns
    real = patterns.match
    with tracing.counting_match(tracing.Tracer()):
        assert patterns.match is not real
    assert patterns.match is real


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    tracer.start[0], tracer.end_[0] = 0.0, 10.0
    tracer.start[1], tracer.end_[1] = 2.0, 5.0
    incl, own, calls = tracer.totals()
    assert incl == {"outer": 10.0, "inner": 3.0}
    assert own == {"outer": 7.0, "inner": 3.0}
    json.dumps(tracer.to_json())


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    close = [99.0, 100.0, 98.5, 100.2, 99.1]
    assert compare.verdict(base, close, "higher", 0.1)[0] == "within-bound"
    assert compare.verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5], "higher", 0.1)[0] == "regression"
    assert compare.verdict(base, [120.0, 121.0, 119.0, 120.5, 119.5], "higher", 0.1)[0] == "better"
    noisy = [60.0, 100.0, 140.0, 90.0, 110.0]
    assert compare.verdict(base, noisy, "higher", 0.1)[0] == "unresolved"
    assert compare.verdict(base, [80.0, 81.0, 79.0, 80.5, 79.5], "lower", 0.1)[0] == "better"
