"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

from workloads import ROOT, SRC


def source_digest() -> str:
    """sha256 over src/**/*.py, so results name the code even outside git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(seed: int | None) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }
