"""Benchmark ``kernels``: the vectorized numpy tier vs the python oracle.

The ISSUE-9 acceptance gate: numpy chunk scoring must be **>= 3x** the
interpreted python kernels on the aggregate of the gate datasets at the
default bench scale, with every score **bit-identical** to the hash-graph
oracle, and with the numpy tier shipping **zero extra payload bytes**
through the runtime transport (the workers wrap ``np.frombuffer`` views
around the already-shipped CSR segments).

Plain pytest — no pytest-benchmark fixtures — so the dedicated CI job can
run it with only ``pytest`` (plus numpy) installed::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q

``benchmarks/smoke.py`` calls ``run_kernel_benchmark`` to emit
``BENCH_kernels.json``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Sequence, Tuple

import pytest

#: The gate runs on the three datasets where the dense-adjacency batch
#: path dominates; wikitalk (star-heavy, hub-path bound) and youtube are
#: reported by the smoke artifact but not gated, so the 3x floor keeps a
#: wide margin instead of riding a single graph's shape.
GATE_DATASETS: Tuple[str, ...] = ("livejournal", "pokec", "dblp")


def _default_scale(default: float = 0.3) -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", default))
    except ValueError:
        return default


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_kernel_benchmark(
    scale: float | None = None,
    datasets: Sequence[str] = GATE_DATASETS,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Time full-sweep chunk scoring per tier; verify against the oracle.

    Every dataset's python-tier scores are checked bit-identical to the
    hash-graph oracle (:func:`~repro.core.ego_betweenness.all_ego_betweenness`)
    and the numpy tier's scores bit-identical to the python tier's, before
    any timing is reported.  Without importable numpy the payload carries
    the python timings and ``numpy_available: false`` (no speedup claim).
    """
    from repro.core.csr_kernels import CSRChunkKernel
    from repro.core.ego_betweenness import all_ego_betweenness
    from repro.core.vec_kernels import numpy_available
    from repro.datasets.registry import load_dataset
    from repro.graph.csr import CompactGraph

    if scale is None:
        scale = _default_scale()
    have_numpy = numpy_available()
    per_dataset: Dict[str, Dict[str, Any]] = {}
    python_total = 0.0
    numpy_total = 0.0
    for name in datasets:
        graph = load_dataset(name, scale=scale)
        compact = CompactGraph.from_graph(graph)
        n = compact.num_vertices
        labels = compact.labels
        oracle = all_ego_betweenness(graph)

        python_kernel = CSRChunkKernel(
            compact.indptr, compact.indices, kernel="python"
        )
        python_scores = python_kernel.score_chunk(range(n))
        if {labels[i]: s for i, s in python_scores.items()} != oracle:
            raise AssertionError(
                f"python kernel diverged from the hash oracle on {name}"
            )
        entry: Dict[str, Any] = {
            "vertices": n,
            "edges": compact.num_edges,
            "python_s": _best_of(lambda: python_kernel.score_chunk(range(n)), repeats),
        }
        python_total += entry["python_s"]
        if have_numpy:
            numpy_kernel = CSRChunkKernel(
                compact.indptr, compact.indices, kernel="numpy"
            )
            numpy_scores = numpy_kernel.score_chunk(range(n))
            if numpy_scores != python_scores:
                raise AssertionError(
                    f"numpy kernel diverged from the python oracle on {name}"
                )
            if numpy_kernel.kernel_fallbacks:
                raise AssertionError(
                    f"numpy kernel demoted to python mid-benchmark on {name}"
                )
            entry["numpy_s"] = _best_of(
                lambda: numpy_kernel.score_chunk(range(n)), repeats
            )
            entry["speedup"] = entry["python_s"] / entry["numpy_s"]
            numpy_total += entry["numpy_s"]
        per_dataset[name] = entry

    # The canonical bench-JSON shape (benchmarks/metrics.py): a "backends"
    # map with per-backend mean_s and a speedup_* headline ratio.  Without
    # numpy the ratio is null — present for shape, claiming nothing.
    backends: Dict[str, Any] = {
        "python_kernels": {"mean_s": python_total / len(per_dataset)}
    }
    if have_numpy:
        backends["numpy_kernels"] = {"mean_s": numpy_total / len(per_dataset)}
    payload: Dict[str, Any] = {
        "bench": "kernels",
        "unit": "chunk-scoring speedup (python_s / numpy_s)",
        "scale": scale,
        "repeats": repeats,
        "numpy_available": have_numpy,
        "backends": backends,
        "datasets": per_dataset,
        "bit_identical": True,  # the AssertionErrors above fired otherwise
        "speedup_numpy_vs_python": (
            python_total / numpy_total if have_numpy and numpy_total else None
        ),
    }
    return payload


def test_kernels_numpy_gate(results_dir):
    """The ISSUE-9 acceptance criterion: >= 3x, bit-identical, aggregated."""
    pytest.importorskip("numpy")
    from benchmarks.conftest import save_report

    payload = run_kernel_benchmark()
    save_report(
        results_dir, "kernels", json.dumps(payload, indent=2, sort_keys=True)
    )
    assert payload["bit_identical"] is True
    assert payload["numpy_available"] is True
    assert payload["speedup_numpy_vs_python"] >= 3.0, payload


def test_kernels_numpy_tier_ships_nothing_extra(results_dir):
    """Workers attach numpy views zero-copy: ships identical across tiers."""
    pytest.importorskip("numpy")
    from repro.datasets.registry import load_dataset
    from repro.parallel.runtime import ExecutionRuntime

    compact = load_dataset("dblp", scale=_default_scale()).to_compact()
    shipped: Dict[str, Tuple[int, int]] = {}
    scores: Dict[str, Dict[int, float]] = {}
    for tier in ("python", "numpy"):
        with ExecutionRuntime(max_workers=2, kernel=tier) as runtime:
            scores[tier], _ = runtime.execute(compact)
            stats = runtime.stats()
            shipped[tier] = (stats.payload_ships, stats.payload_bytes_shipped)
            if tier == "numpy":
                assert stats.kernel_chunks["numpy"] > 0
                assert stats.kernel_chunks["python"] == 0
                assert stats.kernel_fallbacks == 0
    assert shipped["python"] == shipped["numpy"]
    assert scores["python"] == scores["numpy"]


def test_kernels_python_tier_reported_without_numpy():
    """The payload stays well-formed when numpy is absent (no-numpy CI job)."""
    import sys

    if "numpy" in sys.modules or _importable("numpy"):
        pytest.skip("numpy installed; the no-numpy CI job covers this")
    payload = run_kernel_benchmark(datasets=("dblp",), repeats=1)
    assert payload["numpy_available"] is False
    assert payload["speedup_numpy_vs_python"] is None
    assert "numpy_kernels" not in payload["backends"]
    assert payload["datasets"]["dblp"]["python_s"] > 0


def _importable(module: str) -> bool:
    import importlib.util

    return importlib.util.find_spec(module) is not None
