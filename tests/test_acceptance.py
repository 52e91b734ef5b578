"""End-to-end acceptance gate.

Each test covers one acceptance criterion and emits a single
"criterion N: PASS/FAIL" line on the real stdout so the gate is readable
straight from the pytest log.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from compevo import analysis, theory
from compevo.cli import main as cli_main
from compevo.experiment import CHUNK, ExperimentConfig, run_sweep, rows_to_csv
from compevo.oracle import (exact_prob_geometric_consecutive, exact_prob_uniform,
                            iter_uniform, window_prob_geometric)
from compevo.patterns import match, parse_pattern
from compevo.properties import Property
from compevo.rng import RngStream
from compevo.samplers import bridge_terms, geometric_terms, uniform_bars_batch
from conftest import (CHART_A, CHART_B, chi_square_gof, chi_square_two_sample,
                      naive_match_count, naive_stats)

import io

GOLDEN = Path(__file__).parent / "golden_uniform.json"
SIG = 1e-4


def _report(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


# -- 1: reference chart statistics -------------------------------------------

def test_criterion_01_chart_a_statistics():
    text = ",".join(map(str, CHART_A))
    code, out = _cli("stats", text)
    doc = json.loads(out)
    values_ok = (code == 0 and doc["components"] == 10 and doc["cmax"] == 7
                 and doc["gaps"] == 10 and doc["gmax"] == 4 and doc["size"] == 80
                 and doc["largest_square"] == 4
                 and doc["square_counts"] == {"2": 2, "4": 1})
    code, out = _cli("match", text, "o:[0,2,1,1]")
    match_ok = code == 0 and json.loads(out)["count"] == 1
    # library-call latency, best of many after warmup
    spec = parse_pattern("o:[0,2,1,1]")
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        analysis.stats_report(CHART_A)
        match(CHART_A, spec)
        best = min(best, time.perf_counter() - t0)
    _report(1, values_ok and match_ok and best < 1e-3,
            f"stats+match best call {best * 1e6:.0f} us")


# -- 2: pattern counting on the second reference chart -----------------------

def test_criterion_02_chart_b_counts():
    text = ",".join(map(str, CHART_B))
    _, out1 = _cli("match", text, "e:[2,0,2]")
    _, out2 = _cli("match", text, "e:[0,2,0,3,1,0,2,0]")
    c1 = json.loads(out1)["count"]
    c2 = json.loads(out2)["count"]
    _report(2, c1 == 4 and c2 == 3, f"counts {c1}, {c2}")


# -- 3: sampler uniformity ----------------------------------------------------

def _support_index(n, m):
    return {c: i for i, c in enumerate(iter_uniform(n, m))}


def test_criterion_03_sampler_uniformity():
    t0 = time.perf_counter()
    trials = 150_000
    pvals = []
    # the urn's bars branch at m >= n-1, its stars branch (the evolutionary
    # chain) at m < n-1, and the geometric model conditioned on its size
    for n, m in [(3, 2), (4, 3), (2, 5), (5, 2), (6, 3)]:
        index = _support_index(n, m)
        uniform_probs = np.full(len(index), 1 / len(index))

        batch = uniform_bars_batch(n, m, trials, RngStream(301))
        counts = np.zeros(len(index), dtype=np.int64)
        for row in batch:
            counts[index[tuple(int(x) for x in row)]] += 1
        pvals.append(chi_square_gof(counts, uniform_probs)[1])

        # geometric rejection-conditioning at p = 0.5
        base = RngStream(303)
        counts = np.zeros(len(index), dtype=np.int64)
        got, ci = 0, 0
        while got < trials:
            draws = geometric_terms(n, 0.5, base.substream(ci), count=8192)
            ci += 1
            for row in draws[draws.sum(axis=1) == m]:
                counts[index[tuple(int(x) for x in row)]] += 1
                got += 1
                if got == trials:
                    break
        pvals.append(chi_square_gof(counts, uniform_probs)[1])
    elapsed = time.perf_counter() - t0
    _report(3, all(p > SIG for p in pvals) and elapsed < 30.0,
            f"min p-value {min(pvals):.4g}, {elapsed:.1f} s")


# -- 4: coupling identity -----------------------------------------------------

def test_criterion_04_bridge_coupling():
    p1, p2, trials = 0.2, 0.5, 10 ** 5
    g1 = geometric_terms(1, p1, RngStream(401), count=trials).ravel()
    inc = bridge_terms(1, p1, p2, RngStream(402), count=trials).ravel()
    direct = geometric_terms(1, p2, RngStream(403), count=trials).ravel()
    summed = g1 + inc
    hi = int(max(summed.max(), direct.max()))
    _, p = chi_square_two_sample(np.bincount(summed, minlength=hi + 1),
                                 np.bincount(direct, minlength=hi + 1))
    _report(4, p > SIG, f"two-sample p-value {p:.4g}")


# -- 5: exact formulas vs Monte Carlo and the DP oracle ----------------------

def _window_rate(samples, spec):
    return float(Property("contains", spec=spec).holds_batch(samples).mean())


def test_criterion_05_exact_formula_agreement():
    n, trials = 100, 10 ** 5
    ok, worst = True, ""
    spec_e = parse_pattern("e:[2,0,2]")
    spec_o3 = parse_pattern("o:[0,1,2]")
    spec_o2 = parse_pattern("o:[0,0]")
    for pi, p in enumerate((0.1, 0.5, 0.9)):
        q = 1 - p
        samples = geometric_terms(n, p, RngStream(500 + pi), count=trials)
        nz = samples > 0
        pad = np.zeros((trials, 1), dtype=bool)
        starts = np.concatenate([pad, nz], axis=1)
        ncomp = (starts[:, 1:] & ~starts[:, :-1]).sum(axis=1)
        zstarts = np.concatenate([pad, ~nz], axis=1)
        ngap = (zstarts[:, 1:] & ~zstarts[:, :-1]).sum(axis=1)

        checks = []
        # expected counts
        for vals, pred in [(ncomp, theory.expected_components(n, p)),
                           (ngap, theory.expected_gaps(n, p))]:
            se = vals.std(ddof=1) / math.sqrt(trials)
            checks.append((f"count p={p}", abs(vals.mean() - pred.value), 4 * se))
        # mean lengths as a ratio of expectations: E[occupied] = L * E[count]
        nnz = nz.sum(axis=1)
        L = theory.mean_component_length(n, p).value
        resid = nnz - L * ncomp
        checks.append((f"comp-len p={p}", abs(resid.mean()),
                       4 * resid.std(ddof=1) / math.sqrt(trials)))
        G = theory.mean_gap_length(n, p).value
        residg = (n - nnz) - G * ngap
        checks.append((f"gap-len p={p}", abs(residg.mean()),
                       4 * residg.std(ddof=1) / math.sqrt(trials)))
        # extreme-term probabilities at a mid-range threshold r
        r = max(1, round(math.log(n) / -math.log(p)) if p > 0 else 1)
        tmax_lt = float((samples < r).all(axis=1).mean())
        want = theory.prob_tmax_lt(n, p, r).value
        se = math.sqrt(max(want * (1 - want), 1e-12) / trials)
        checks.append((f"tmax p={p}", abs(tmax_lt - want), 4 * se + 1e-9))
        tmin_ge = float((samples >= 1).all(axis=1).mean())
        want = theory.prob_tmin_ge(n, p, 1).value
        se = math.sqrt(max(want * (1 - want), 1e-12) / trials)
        checks.append((f"tmin p={p}", abs(tmin_ge - want), 4 * se + 1e-9))
        # per-window probabilities from direct window samples
        win3 = geometric_terms(3, p, RngStream(520 + pi), count=trials)
        for spec, want in [
                (spec_e, theory.prob_exact_consecutive_at_position(spec_e, p).value),
                (spec_o3, theory.prob_ordering_at_position(spec_o3, p).value)]:
            got = _window_rate(win3, spec)
            se = math.sqrt(max(want * (1 - want), 1e-12) / trials)
            checks.append((f"{spec} p={p}", abs(got - want), 4 * se + 1e-9))
        win2 = geometric_terms(2, p, RngStream(540 + pi), count=trials)
        want = theory.prob_ordering_at_position(spec_o2, p).value
        got = _window_rate(win2, spec_o2)
        se = math.sqrt(want * (1 - want) / trials)
        checks.append((f"o:[0,0] p={p}", abs(got - want), 4 * se + 1e-9))

        for name, diff, tol in checks:
            if diff > tol:
                ok, worst = False, f"{name}: |diff| {diff:.4g} > {tol:.4g}"

        # DP-oracle agreement where the property is supported
        for res, want in [
                (exact_prob_geometric_consecutive(n, p, ("tmax_ge", {"r": r})),
                 1 - theory.prob_tmax_lt(n, p, r).value),
                (exact_prob_geometric_consecutive(n, p, ("tmin_ge", {"r": 1})),
                 theory.prob_tmin_ge(n, p, 1).value),
                (window_prob_geometric(spec_e, p),
                 theory.prob_exact_consecutive_at_position(spec_e, p).value),
                (window_prob_geometric(spec_o3, p),
                 theory.prob_ordering_at_position(spec_o3, p).value)]:
            if res.width > 1e-9 or not (res.lo - 1e-9 <= want <= res.hi + 1e-9):
                ok, worst = False, f"oracle mismatch at p={p}"
    _report(5, ok, worst or "all formulas within 4 SE and oracle brackets")


# -- 6: Poisson limits at their thresholds ------------------------------------

def _geometric_rates(n, p, props, trials, seed, chunk=500):
    succ = [0] * len(props)
    base = RngStream(seed, 0)
    done, ci = 0, 0
    while done < trials:
        cnt = min(chunk, trials - done)
        samples = geometric_terms(n, p, base.substream(ci), count=cnt)
        for i, prop in enumerate(props):
            succ[i] += int(prop.holds_batch(samples).sum())
        done += cnt
        ci += 1
    return [s / trials for s in succ]


def test_criterion_06_poisson_limits():
    t0 = time.perf_counter()
    n, trials = 2 * 10 ** 4, 2 * 10 ** 4
    failures = []

    # adjacent pair of nonzero terms and the exact pattern [1,1], both with
    # expected occurrence count 1 at p = n^{-1/2}
    p = n ** -0.5
    spec11 = parse_pattern("e:[1,1]")
    r_cmax, r_pat = _geometric_rates(
        n, p, [Property("cmax_ge", {"k": 2}), Property("contains", spec=spec11)],
        trials, seed=601)
    limit = 1 - math.exp(-1)
    exact_cmax = exact_prob_geometric_consecutive(n, p, ("cmax_ge", {"k": 2})).value
    exact_pat = exact_prob_geometric_consecutive(n, p, spec11).value
    if abs(exact_cmax - limit) > 0.02 or abs(r_cmax - limit) > 0.02:
        failures.append(f"cmax: mc {r_cmax:.4f} exact {exact_cmax:.4f}")
    if abs(exact_pat - limit) > 0.02 or abs(r_pat - limit) > 0.02:
        failures.append(f"e:[1,1]: mc {r_pat:.4f} exact {exact_pat:.4f}")

    # all terms distinct at q = n^{-2}; expected equal-pair count 1/4
    (r_pair,) = _geometric_rates(n, 1 - n ** -2.0,
                                 [Property("equal_terms", {"k": 2})],
                                 trials, seed=602)
    want = math.exp(-0.25)
    if abs((1 - r_pair) - want) > 0.03:
        failures.append(f"all-distinct: mc {1 - r_pair:.4f} want {want:.4f}")

    # no isolated nonzero term at q = n^{-1/2}
    q = n ** -0.5
    (r_cmin,) = _geometric_rates(n, 1 - q, [Property("cmin_gt", {"k": 1})],
                                 trials, seed=603)
    limit = math.exp(-1)
    exact_cmin = exact_prob_geometric_consecutive(n, 1 - q, ("cmin_gt", {"k": 1})).value
    if abs(exact_cmin - limit) > 0.02 or abs(r_cmin - limit) > 0.02:
        failures.append(f"cmin: mc {r_cmin:.4f} exact {exact_cmin:.4f}")

    elapsed = time.perf_counter() - t0
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.0f} s")
    _report(6, not failures, "; ".join(failures) or f"{elapsed:.0f} s")


# -- 7: threshold shape of an increasing property -----------------------------

def test_criterion_07_threshold_shape():
    n, trials = 10 ** 4, 1500
    prop = Property("contains", spec="u:[1,1]")
    rates = []
    for ci, c in enumerate((0.25, 0.4, 0.5, 0.6, 0.75)):
        m = int(round(n ** c))
        batch = uniform_bars_batch(n, m, trials, RngStream(700 + ci))
        rates.append(float(prop.holds_batch(batch).mean()))
    monotone = all(b >= a - 0.02 for a, b in zip(rates, rates[1:]))
    crosses = rates[0] < 0.1 and rates[-1] > 0.9 and rates[3] > 0.9
    _report(7, monotone and crosses,
            "rates " + ", ".join(f"{r:.3f}" for r in rates))


# -- 8: ordering patterns equidistribute over windows -------------------------

def test_criterion_08_ordering_equidistribution():
    import itertools
    n, q = 10 ** 3, 1e-4
    windows_needed = 10 ** 6
    trials = windows_needed // (n - 2) + 1
    samples = geometric_terms(n, 1 - q, RngStream(801), count=trials)
    x, y, z = samples[:, :-2], samples[:, 1:-1], samples[:, 2:]
    total = x.size
    ok, freqs = True, []
    for perm in itertools.permutations(range(3)):
        cols = [None] * 3
        cols[perm[0]], cols[perm[1]], cols[perm[2]] = x, y, z
        hits = int(((cols[0] < cols[1]) & (cols[1] < cols[2])).sum())
        f = hits / total
        freqs.append(f)
        if abs(f - 1 / 6) > 0.01:
            ok = False
    _report(8, ok, "freqs " + ", ".join(f"{f:.4f}" for f in freqs))


# -- 9: oracle equivalence ----------------------------------------------------

def test_criterion_09_oracle_equivalence():
    from scipy.special import comb
    # statistics vs a naive reimplementation on every composition with a
    # support of at most 10^4 (n, m capped at 16; larger pairs exceed it)
    checked = 0
    for n in range(1, 17):
        for m in range(0, 17):
            if comb(m + n - 1, m, exact=True) > 10 ** 4:
                continue
            for terms in iter_uniform(n, m):
                report = analysis.stats_report(terms)
                ref = naive_stats(terms)
                for key, want in ref.items():
                    got = report[key]
                    if key == "square_counts":
                        got = {int(k): v for k, v in got.items()}
                    assert got == want, (terms, key)
                checked += 1

    # matchers vs brute force on the small-support slice
    specs = [parse_pattern(t) for t in
             ["e:[1,0]", "e:1,[0,2]", "u:[1,1]", "l:[0,1],2", "o:[0,1,0]", "o:0,0,1"]]
    for n in range(1, 7):
        for m in range(0, 7):
            for terms in iter_uniform(n, m):
                for spec in specs:
                    for strict in (False, True):
                        got = match(terms, spec, strict=strict).count
                        assert got == naive_match_count(terms, spec, strict)

    # golden rationals recompute bit-exactly
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 20
    for case in cases:
        prop = Property(case["statistic"], case["params"], spec=case["pattern"])
        res = exact_prob_uniform(case["n"], case["m"], prop.holds)
        assert str(res.rational) == case["probability"], case
    _report(9, True, f"{checked} compositions, 20 golden rationals")


# -- 10: byte-identical sweeps across worker counts ---------------------------

def test_criterion_10_sweep_reproducibility():
    doc = {
        "version": 1, "model": "geometric",
        "grid": [{"n": 40, "p": 0.2}, {"n": 40, "p": 0.4}],
        "property": {"statistic": "cmax_ge", "params": {"k": 2}},
        "trials": 2 * CHUNK + 123,
        "seed": 1001,
    }
    outputs = []
    for workers in (1, 4, 8):
        cfg = ExperimentConfig.from_dict({**doc, "workers": workers})
        outputs.append(rows_to_csv(run_sweep(cfg)))
    _report(10, outputs[0] == outputs[1] == outputs[2],
            f"{len(outputs[0].splitlines()) - 1} rows x 3 worker counts")
