"""The straightforward (naive) algorithm the paper uses as a strawman.

It materialises the ego network of every vertex and computes the vertex's
ego-betweenness by literal shortest-path counting inside that subgraph, then
selects the top-k.  This is exactly the baseline the introduction argues is
too expensive; it is kept as an oracle for correctness tests and as the
reference point for the pruning-effectiveness benchmarks.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.ego_betweenness import ego_betweenness_reference
from repro.core.topk import SearchStats, TopKResult, top_entries
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex

__all__ = ["naive_all_ego_betweenness", "naive_top_k"]


def naive_all_ego_betweenness(graph: Graph) -> Dict[Vertex, float]:
    """Compute every vertex's ego-betweenness via explicit ego networks."""
    return {p: ego_betweenness_reference(graph, p) for p in graph.vertices()}


def naive_top_k(graph: Graph, k: int) -> TopKResult:
    """Top-k by the naive compute-everything-then-select strategy."""
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    start = time.perf_counter()
    entries = top_entries(naive_all_ego_betweenness(graph), k)
    stats = SearchStats(
        algorithm="NaiveTopK",
        exact_computations=graph.num_vertices,
        elapsed_seconds=time.perf_counter() - start,
    )
    return TopKResult(entries=entries, k=k, stats=stats)
