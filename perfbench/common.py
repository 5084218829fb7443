"""Paths, percentiles and the environment record shared by the benchmark files."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for durable tenants and child-process files; removed at exit.
WORK = HERE / ".work"
#: Where each run writes its detail record and trace.
OUT = HERE / "out"

for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def pct(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


def schedule_hash(obj: Any) -> str:
    """A short stable digest of the generated inputs and request schedule."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def shm_segments() -> int:
    """Entries in ``/dev/shm``, counted from outside the program."""
    try:
        return len(os.listdir("/dev/shm"))
    except OSError:
        return 0


def environment(kernel: Optional[str]) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "kernel_tier": kernel,
        "platform": platform.platform(),
    }


def format_metric(name: str, value: float, unit: str, samples: Optional[int]) -> str:
    count = "" if samples is None else f"  (n={samples})"
    return f"  {name:<28} {value:>14.4f} {unit}{count}"


def summarize(latencies_s: Iterable[float]) -> Dict[str, float]:
    """p50, p90, p99 in milliseconds plus the count."""
    ms = [x * 1000.0 for x in latencies_s]
    return {
        "count": len(ms),
        "p50_ms": pct(ms, 50),
        "p90_ms": pct(ms, 90),
        "p99_ms": pct(ms, 99),
    }
