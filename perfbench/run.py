"""Run one benchmark workload and print its metrics; the last line is the result.

    python3 perfbench/run.py --workload sweep-vincular --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. With ``--trace 0`` it times passes of the
workload through compevo's public API and prints every end-to-end metric named
in BENCHMARK.json; with ``--trace 1`` it also replays the work with spans per
layer and prints every per-layer metric instead. Either way it checks the
program's outputs against stored references and writes the full record
(environment, quartiles, sample counts, checks, spans) under ``--out``.
It exits 1 when a check failed, after printing the result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = wl.ROOT / "BENCHMARK.json"
SETUP_REPS = 7   # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3   # a median needs three samples, whatever --seconds says
# calibrate() takes a median of about 35 ms on a shared 2-core x86-64 host;
# throughputs are scaled to a host that takes exactly that
CAL_REF_S = 0.035


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_compevo():
    if not (wl.SRC / "compevo" / "__init__.py").is_file():
        fail(f"no compevo sources under {wl.SRC}; run from the root of a checkout")
    sys.path.insert(0, str(wl.SRC))
    import compevo
    if Path(compevo.__file__).resolve().parent != (wl.SRC / "compevo").resolve():
        fail(f"imported compevo from {compevo.__file__}, not from the checkout")


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "samples": len(values)}


def calibrate() -> float:
    """Seconds for a fixed Python-and-numpy kernel that gauges the host's speed.

    On a shared host, passes slow by up to 2x for stretches of seconds to
    minutes. The kernel is timed before and after every pass and slows with
    them, so a pass's rate times (kernel time / CAL_REF_S) cancels most of it.
    """
    import numpy as np
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc += i * i % 7
        table[i & 1023] = acc
    # 0.5 MB arrays stay in cache and add nothing to the run's peak RSS
    a = np.arange(65_536, dtype=np.float64)
    b = np.empty_like(a)
    for _ in range(150):
        np.multiply(a, a, out=b)
        b += 1.0
        np.sqrt(b, out=a)
    return time.perf_counter() - t0


def timed_passes(desc: dict, seconds: float) -> tuple[list[float], list, list[float]]:
    """Passes for ``seconds`` (at least MIN_PASSES), with a calibration around each."""
    walls, outputs, cals = [], [], [calibrate()]
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        outputs.append(wl.run_pass(desc))
        walls.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return walls, outputs, cals


def host_adjusted(count: int, walls: list[float], cals: list[float]) -> list[float]:
    """Per-pass rates scaled by the calibration around each pass (see calibrate)."""
    return [count / w * (cals[i] + cals[i + 1]) / 2 / CAL_REF_S for i, w in enumerate(walls)]



def peak_rss_mb() -> float:
    """Largest max RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(desc: dict) -> float:
    """Process start to ready-to-run, in a fresh interpreter: start, import, parse."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(Path(wl.__file__)), json.dumps(desc)],
                          capture_output=True, text=True, timeout=120, cwd=wl.ROOT)
    if proc.returncode != 0:
        fail(f"set-up child failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def timed_setups(desc: dict) -> tuple[list[float], list[float]]:
    """SETUP_REPS set-up times, raw and scaled like the rates (see calibrate)."""
    raw, cals = [], [calibrate()]
    for _ in range(SETUP_REPS):
        raw.append(setup_seconds(desc))
        cals.append(calibrate())
    return raw, [s * CAL_REF_S * 2 / (cals[i] + cals[i + 1]) for i, s in enumerate(raw)]


def correctness(workload: str, desc: dict, outputs: list, refs: dict) -> list:
    import checks
    first = _canon(outputs[0])
    # every pass of one seed must give the same answers
    other = next((c for c in map(_canon, outputs[1:]) if c != first), first)
    found = [checks.identical(f"{workload}.repeat", first, other)]
    if desc["kind"] == "sweep":
        found += checks.sweep_against_reference(workload, outputs[0]["csv"], refs)
    else:
        found += checks.oracle_against_reference(outputs[0], desc, refs)
    return found


def _canon(out: dict) -> str:
    return json.dumps(out, sort_keys=True)


def worker_invariance(desc: dict, csv_text: str):
    """Re-run the sweep at one worker, outside the timed region; CSV must match."""
    import checks
    serial = {**desc, "config": {**desc["config"], "workers": 1}}
    t0 = time.perf_counter()
    text = wl.run_pass(serial)["csv"]
    return checks.identical("worker-invariance", csv_text, text), time.perf_counter() - t0


def traced(desc: dict, seconds: float, untraced_wall: float,
           serial_wall: float, csv_text: str | None, outputs0: dict):
    """Traced passes for ``seconds`` (at least one); returns per-layer metrics."""
    import checks
    import tracing
    tracer = tracing.Tracer()
    walls, tallies, results = [], [], []
    deadline = time.perf_counter() + seconds
    with tracing.counting_match(tracer):
        while not walls or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            if desc["kind"] == "sweep":
                res, tally = tracing.replay_sweep(desc, tracer)
            else:
                res, tally = tracing.replay_oracle(desc, tracer)
            walls.append(time.perf_counter() - t0)
            tallies.append(tally)
            results.append(res)
            tracer.pass_id += 1
    incl, own, calls = tracer.totals()
    passes = len(walls)
    # the predicate-free enumeration is extra work only the traced pass does
    extra = incl.get("oracle.iter_uniform", 0.0) / passes
    if desc["kind"] == "sweep":
        stale = any(r != checks.successes(csv_text) for r in results)
    else:
        stale = any(_canon(r) != _canon(outputs0) for r in results)
    tally = {k: sum(t[k] for t in tallies) for k in tallies[0]}
    m = {name: 0.0 for name in _names("per_layer")}

    def per(name, scale=1.0, base=None, which=own):
        total = which.get(name, 0.0) * scale
        if base is None:
            return total / passes
        return total / base if base else 0.0

    if desc["kind"] == "sweep":
        terms = tally["terms"]
        sampler = ("samplers.geometric_terms" if desc["config"]["model"] == "geometric"
                   else "samplers.uniform_bars_batch")
        tasks = calls["experiment.task"] / passes
        busy = incl["experiment.task"] / passes
        eff = min(desc["config"]["workers"], tasks)
        m.update({
            f"{sampler}.ns_per_term": per(sampler, 1e9, terms),
            "samplers.nonzero_fraction": tally["nonzero"] / terms,
            "samplers.out_bytes_per_term": tally["out_bytes"] / terms,
            "samplers.busy_s": per(sampler),
            "properties.holds_batch.busy_s": per("properties.holds_batch"),
            "properties.holds_batch.ns_per_term":
                per("properties.holds_batch", 1e9, terms, which=incl),
            "rng.busy_s": per("rng.substream"),
            "stats.proportion_estimate.us_per_call":
                per("stats.proportion_estimate", 1e6, calls.get("stats.proportion_estimate")),
            "theory.poisson_limit.us_per_call":
                per("theory.poisson_limit", 1e6, calls.get("theory.poisson_limit")),
            "theory.missing": sum(1 for r in checks.csv_rows(csv_text) if r["theory"] == ""),
            "experiment.tasks": tasks,
            "experiment.busy_s": busy,
            "experiment.overhead_s": untraced_wall - busy / eff,
            "experiment.parallel_efficiency": busy / (untraced_wall * eff),
        })
    else:
        for q in wl.ORACLE_DP:
            name = f"oracle.dp.{q['form']}"
            m[f"{name}.ms_per_query"] = per(name, 1e3, calls.get(name), which=incl)
        widths = [r[k]["hi"] - r[k]["lo"] for r in results for k in r if k.startswith("dp.")]
        m.update({
            "oracle.enum.us_per_composition":
                per("oracle.enum", 1e6, tally["compositions"], which=incl),
            "oracle.iter_uniform.us_per_composition":
                per("oracle.iter_uniform", 1e6, tally["iter_compositions"], which=incl),
            "properties.holds.us_per_call":
                per("properties.holds", 1e6, calls.get("properties.holds"), which=incl),
            "properties.holds.calls": calls.get("properties.holds", 0) / passes,
            "oracle.max_width": max(widths),
        })
    m["patterns.match.calls"] = calls.get("patterns.match", 0) / passes
    m["patterns.match.us_per_call"] = per("patterns.match", 1e6, calls.get("patterns.match"))
    m["trace.overhead_s"] = statistics.median(walls) - extra - serial_wall
    m["trace.stale"] = 1.0 if stale else 0.0
    unlisted = sorted(set(m) - set(_names("per_layer")))
    if unlisted:
        fail(f"per-layer metrics missing from BENCHMARK.json: {unlisted}")
    return m, tracer, stale


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in json.loads(BENCH.read_text())[section]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=Path(__file__).resolve().parent / "results",
                    help="directory for the full JSON record of the run")
    args = ap.parse_args(argv)
    if not BENCH.is_file():
        fail(f"{BENCH} is missing")
    load_compevo()
    import checks
    from env import environment

    bench = json.loads(BENCH.read_text())
    desc = wl.describe(args.workload, args.seed)
    queries, trials = wl.counts(desc)
    refs = checks.load_references()

    wl.materialize(desc)  # imports belong to set-up (setup_s), not to the first pass
    # trace runs split their time between untraced and traced passes
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, outputs, cals = timed_passes(desc, budget)
    rss = peak_rss_mb()

    found = correctness(args.workload, desc, outputs, refs)
    wall = statistics.median(walls)
    serial_wall = wall
    csv_text = outputs[0].get("csv")
    if desc["kind"] == "sweep" and desc["config"]["workers"] > 1:
        check, serial_wall = worker_invariance(desc, csv_text)
        found.append(check)

    detail = {
        "trials_per_s": {**summary(host_adjusted(trials, walls, cals)), "count": trials},
        "queries_per_s": {**summary(host_adjusted(queries, walls, cals)), "count": queries},
        "raw_trials_per_s": summary([trials / w for w in walls]),
        "calibration_s": summary(cals),
        "peak_rss_mb": summary([rss]),
    }
    spans = None
    if not args.trace:
        raw_setups, setups = timed_setups(desc)
        detail["setup_s"] = summary(setups)
        detail["raw_setup_s"] = summary(raw_setups)
        metrics = {name: detail[name]["median"] for name in _names("end_to_end")}
    else:
        metrics, tracer, stale = traced(desc, args.seconds / 2, wall,
                                        serial_wall, csv_text, outputs[0])
        spans = tracer.to_json()
        if stale:
            print(f"perfbench: STALE TRACE on {args.workload}: the replay's answers differ "
                  "from the program's; its per-layer breakdown does not describe this code",
                  file=sys.stderr)

    failed = [c for c in found if not c.ok]
    units = {e["name"]: e["unit"] for e in bench["end_to_end"] + bench["per_layer"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "passes": len(walls), "pass_wall_s": walls, "calibration_s": cals,
        "detail": detail, "metrics": metrics, "checks": [vars(c) for c in found],
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}.{time.time_ns()}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (args.out / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    for c in failed:
        print(f"FAILED {c.name}: {c.detail}")
    print(f"{args.workload} seed={args.seed}: {len(walls)} passes, "
          f"{len(found) - len(failed)}/{len(found)} checks passed; unadjusted median "
          f"{detail['raw_trials_per_s']['median']:.6g} trials/s, calibration median "
          f"{detail['calibration_s']['median'] * 1e3:.1f} ms")
    for name, value in metrics.items():
        d = None if args.trace else detail[name]
        extra = (f"  over {d['samples']}: median {d['median']:.6g}, q1 {d['q1']:.6g}, "
                 f"q3 {d['q3']:.6g}" if d else "")
        print(f"  {name:42s} {value:14.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": not failed, "attempted": len(found), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
