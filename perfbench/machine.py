"""What the numbers were measured on, recorded with every result."""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

TRIAD_REPS = 3


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def caches() -> dict[str, int]:
    """Per-level cache sizes in bytes of CPU 0, e.g. {"L1d": 49152, ...}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = _size((index / "size").read_text())
        except (OSError, ValueError, KeyError):
            continue
    return out


def triad(llc_bytes: int) -> dict:
    """Best-of-TRIAD_REPS a = b + s*c over three arrays totalling >= 4 x LLC.

    NumPy makes two passes (a = s*c, then a += b); the bandwidth counts the
    three arrays once each, the STREAM convention, so it is a lower bound.
    """
    n = -(-4 * llc_bytes // (3 * 8))
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(TRIAD_REPS):
        start = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - start)
    return {"array_bytes": 8 * n, "total_bytes": 3 * 8 * n, "llc_bytes": llc_bytes,
            "gb_per_s": 3 * 8 * n / best / 1e9}


def record(thread_vars) -> dict:
    sizes = caches()
    llc = max((v for k, v in sizes.items() if not k.endswith("i")), default=32 << 20)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches_bytes": sizes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "triad": triad(llc),
        "note": "an n=512 matrix (3 MB) fits in the caches: a DRAM bandwidth figure for matmul is a ceiling",
    }
