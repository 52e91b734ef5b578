"""Run a set of benchmark runs, each in a fresh process, into one directory.

    python3 perfbench/run_set.py OUT_DIR [--seeds 1-10] [--trace 0]

Each run is ``perfbench/run.py`` with BENCHMARK.json's ``run_seconds``; the
records land in OUT_DIR for ``perfbench/compare.py``. Every workload runs,
and they alternate within each seed, so slow drift of the machine spreads
over all of them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = json.loads((wl.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    bad = 0
    for seed in args.seeds:
        for name in wl.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=wl.ROOT)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            ok = proc.returncode == 0
            bad += not ok
            print(f"{name} seed={seed}: {'ok' if ok else 'FAILED'} {last[0][:160]}", flush=True)
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
