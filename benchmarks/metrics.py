"""Shared latency/percentile math and the canonical bench-JSON shape.

The load drivers (:mod:`benchmarks.drivers`), the gate files and
``benchmarks/smoke.py`` share these helpers: percentiles at arbitrary
quantile points, the canonical benchmark-JSON serializer and the
artifact writer.

Canonical bench-JSON shape
--------------------------
Every benchmark artifact (``BENCH_*.json``) is one JSON object with at
least:

* ``bench`` — short name of the benchmark,
* ``unit`` — what the per-backend numbers measure,
* ``backends`` — ``{name: {"mean_s": float, ...}}``, one entry per
  compared configuration,
* one ``speedup_*`` (or ``retention_*``) headline ratio.

:func:`write_bench_artifact` validates that shape, stamps the
environment, and writes the file; :func:`bench_summary_line` renders the
one-line console summary.

Examples
--------
>>> summary = percentiles([0.001 * i for i in range(1, 101)])
>>> sorted(summary)
['p50_ms', 'p95_ms', 'p99_ms']
>>> round(summary["p50_ms"], 3)
50.5
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "quantile",
    "percentiles",
    "bench_json",
    "write_bench_artifact",
    "bench_summary_line",
]

#: The default latency points every serving report carries.
DEFAULT_POINTS: Tuple[float, ...] = (50.0, 95.0, 99.0)


def quantile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) of an ascending-sorted sequence.

    Linear interpolation between closest ranks (the "inclusive" method of
    :func:`statistics.quantiles`, and numpy's default) so results are
    continuous in the sample values.  Raises on an empty sequence.

    >>> quantile([1.0, 2.0, 3.0, 4.0], 0.5)
    2.5
    >>> quantile([7.0], 0.99)
    7.0
    """
    if not ordered:
        raise InvalidParameterError("cannot take a quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise InvalidParameterError(f"quantile must be in [0, 1], got {q!r}")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def percentiles(
    samples: Sequence[float],
    points: Sequence[float] = DEFAULT_POINTS,
    *,
    scale: float = 1e3,
    suffix: str = "_ms",
) -> Dict[str, float]:
    """Latency percentiles of ``samples`` (seconds), scaled to milliseconds.

    Returns ``{"p50_ms": ..., "p95_ms": ..., ...}`` for the requested
    ``points`` (percent values).  An empty sample set reports zeros so
    callers can embed the summary unconditionally.

    >>> percentiles([], points=(50,))
    {'p50_ms': 0.0}
    """
    ordered = sorted(samples)
    summary: Dict[str, float] = {}
    for point in points:
        label = f"p{point:g}{suffix}"
        summary[label] = (
            quantile(ordered, point / 100.0) * scale if ordered else 0.0
        )
    return summary


def bench_json(payload: Dict[str, Any]) -> str:
    """The canonical serialization of a bench payload (stable key order)."""
    return json.dumps(payload, indent=2, sort_keys=True, default=repr)


def _validate_bench_shape(payload: Dict[str, Any]) -> None:
    for key in ("bench", "unit", "backends"):
        if key not in payload:
            raise InvalidParameterError(
                f"bench payload is missing the canonical {key!r} key"
            )
    for name, values in payload["backends"].items():
        if "mean_s" not in values:
            raise InvalidParameterError(
                f"bench backend {name!r} is missing its 'mean_s' entry"
            )
    if not any(
        key.startswith(("speedup_", "retention_", "throughput_retention"))
        for key in payload
    ):
        raise InvalidParameterError(
            "bench payload carries no speedup_*/retention_* headline ratio"
        )


def write_bench_artifact(
    out_dir, name: str, payload: Dict[str, Any], environment: Optional[Dict] = None
) -> Path:
    """Validate the canonical shape, stamp the environment, write the file."""
    _validate_bench_shape(payload)
    payload = dict(payload)
    payload["environment"] = environment or {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(bench_json(payload) + "\n", encoding="utf-8")
    return path


def bench_summary_line(name: str, payload: Dict[str, Any]) -> str:
    """One console line: per-backend mean microseconds + the headline ratio."""
    summary = {
        backend: round(values["mean_s"] * 1e6, 1)
        for backend, values in payload["backends"].items()
    }
    headline = next(
        key
        for key in payload
        if key.startswith(("speedup_", "retention_", "throughput_retention"))
    )
    return f"{name}: mean us/op {summary} ({payload[headline]:.2f}x)"
