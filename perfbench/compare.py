"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records ``run.py`` writes (one per run). For
every end-to-end metric and workload it prints both sides' median and
quartiles over runs and a verdict against the bound in BENCHMARK.json:

* ``better``: every change run beats every base run;
* ``unresolved``: either side's quartile spread exceeds the bound;
* ``regression``: the change's median is worse by more than the bound;
* ``within-bound``: otherwise.

Per-layer metrics (traced runs) have no bound; their medians are listed.
Exits 1 if any verdict is ``regression``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(trace, workload): {metric: [value per run]}}"""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        rec = json.loads(path.read_text())
        for name, value in rec["metrics"].items():
            out[(rec["trace"], rec["workload"])][name].append(value)
    return out


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, how much worse the change's median is, as a share of the base's)."""
    sign = 1.0 if better == "lower" else -1.0
    b, c = stats(base)[1], stats(change)[1]
    worse = sign * (c - b) / abs(b) if b else 0.0
    if all(sign * (x - y) < 0 for x in change for y in base):
        return "better", worse
    if max(spread(base), spread(change)) > bound:
        return "unresolved", worse
    return ("regression" if worse > bound else "within-bound"), worse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads(BENCH.read_text())
    base, change = load(args.base), load(args.change)
    regressions = 0

    print(f"{'workload':24s} {'metric':16s} {'base median [q1, q3] n':>34s} "
          f"{'change median [q1, q3] n':>34s} {'worse':>7s}  verdict")
    for w in sorted({w for t, w in base | change if t == 0}):
        for m in bench["end_to_end"]:
            b, c = base[(0, w)].get(m["name"]), change[(0, w)].get(m["name"])
            if not b or not c:
                print(f"{w:24s} {m['name']:16s} missing on one side")
                continue
            v, worse = verdict(b, c, m["better"], m["bound"])
            regressions += v == "regression"
            print(f"{w:24s} {m['name']:16s} {_fmt(b):>34s} {_fmt(c):>34s} "
                  f"{worse:+7.1%}  {v} (bound {m['bound']:.0%}, spreads "
                  f"{spread(b):.1%} / {spread(c):.1%})")

    traced = sorted({w for t, w in base | change if t == 1})
    if traced:
        print("\nper-layer medians (no bound)")
        for w in traced:
            for m in bench["per_layer"]:
                b, c = base[(1, w)].get(m["name"]), change[(1, w)].get(m["name"])
                if b and c and (any(b) or any(c)):
                    print(f"{w:24s} {m['name']:40s} {stats(b)[1]:12.6g} {stats(c)[1]:12.6g} "
                          f"{m['unit']}")
    return 1 if regressions else 0


def _fmt(values: list[float]) -> str:
    q1, med, q3 = stats(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] {len(values)}"


if __name__ == "__main__":
    sys.exit(main())
