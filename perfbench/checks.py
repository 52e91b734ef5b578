"""Correctness checks: each returns a Check, and the failed share is the error rate.

Outputs are compared with stored references (references.json), never with
stored CSV bytes, so a change that keeps a sampler's law but draws
differently still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "references.json"

# |p_hat - ref| may reach Z standard errors; a false alarm per check has
# probability ~6e-7, and a benchmark series makes ~2000 such checks.
Z = 5.0
# A float64 DP over n = 2e4 steps rounds by ~1e-12 (1.7e-13 seen), so a
# certified interval may miss the 40-digit reference by up to this much.
INTERVAL_SLACK = 1e-10


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def load_references() -> dict:
    return json.loads(REFS.read_text())


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def successes(text: str) -> list[int]:
    """Per-point success counts read back from a sweep CSV."""
    return [round(float(r["p_hat"]) * int(r["trials"])) for r in csv_rows(text)]


def z_bound(name: str, p_hat: float, trials: int, ref: float,
            ref_trials: int | None) -> Check:
    """p_hat within Z standard errors of ref; ref_trials None means ref is exact."""
    # floor the variance at one success in `trials` so that a reference of 0 or
    # 1 still admits the rare opposite outcome
    var = max(ref * (1 - ref), 1.0 / trials)
    se = math.sqrt(var / trials + (var / ref_trials if ref_trials else 0.0))
    dev = abs(p_hat - ref)
    return Check(name, dev <= Z * se, f"p_hat={p_hat:.6f} ref={ref:.6f} dev={dev / se:.2f} se")


def sweep_against_reference(workload: str, text: str, refs: dict) -> list[Check]:
    ref = refs[workload]
    rows = csv_rows(text)
    if len(rows) != len(ref["points"]):
        return [Check(f"{workload}.rows", False,
                      f"{len(rows)} CSV rows, {len(ref['points'])} references")]
    out = []
    for i, (row, pt) in enumerate(zip(rows, ref["points"])):
        where = f"{workload}.point{i}"
        if int(row["n"]) != pt["n"] or not math.isclose(float(row["m_or_p"]), pt["m_or_p"]):
            out.append(Check(where, False, f"grid point {row['n']},{row['m_or_p']} "
                                           f"is not the reference's {pt['n']},{pt['m_or_p']}"))
            continue
        out.append(z_bound(where, float(row["p_hat"]), int(row["trials"]), pt["prob"],
                           ref.get("trials")))
    return out


def identical(name: str, a: str, b: str) -> Check:
    """Byte identity, e.g. a sweep's CSV at two worker counts or two passes."""
    if a == b:
        return Check(name, True, f"{len(a)} bytes identical")
    first = next(i for i, (x, y) in enumerate(zip(a + "\0", b + "\1")) if x != y)
    return Check(name, False, f"outputs differ from byte {first}")


def golden(name: str, rational: str, expected: str) -> Check:
    """Exact rational equality, compared as strings (bit-exact)."""
    return Check(name, rational == expected, f"got {rational}, want {expected}")


def interval_contains(name: str, lo: float, hi: float, ref: str) -> Check:
    """A certified oracle interval must contain the high-precision reference."""
    r = Fraction(ref)
    ok = Fraction(lo) - Fraction(INTERVAL_SLACK) <= r <= Fraction(hi) + Fraction(INTERVAL_SLACK)
    return Check(name, ok, f"[{lo!r}, {hi!r}] vs {ref}")


def oracle_against_reference(outputs: dict, desc: dict, refs: dict) -> list[Check]:
    from workloads import query_id
    ref = refs["oracle-exact"]
    out = []
    for q in desc["queries"]:
        qid = query_id(q)
        got = outputs.get(qid)
        if got is None:
            out.append(Check(qid, False, "no answer"))
        elif q["kind"] == "dp":
            out.append(interval_contains(qid, got["lo"], got["hi"], ref["dp"][q["form"]]["prob"]))
        elif q["golden"] is None:
            out.append(golden(qid, got["rational"], ref["enum"]["rational"]))
        else:
            out.append(golden(qid, got["rational"], q["probability"]))
    return out
