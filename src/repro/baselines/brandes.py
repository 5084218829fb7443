"""Brandes' betweenness centrality — the paper's ``TopBW`` baseline.

The paper compares its top-k ego-betweenness results against the top-k of the
classical betweenness centrality computed with Brandes' algorithm [Brandes,
2001], both for runtime (ego-betweenness is orders of magnitude cheaper) and
for result overlap (the two top-k sets agree on well over half of their
members).  This module implements

* :func:`betweenness_centrality` — the exact ``O(nm)`` algorithm,
* :func:`approximate_betweenness_centrality` — the standard pivot-sampling
  estimator (accumulate the dependency of a random subset of sources and
  rescale), which stands in for the paper's 64-thread parallel TopBW when the
  exact computation would be too slow in pure Python, and
* :func:`top_k_betweenness` — the ``TopBW`` wrapper returning a ranked
  result compatible with :class:`repro.core.topk.TopKResult`.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.core.topk import SearchStats, TopKResult, top_entries
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex

__all__ = [
    "betweenness_centrality",
    "approximate_betweenness_centrality",
    "top_k_betweenness",
]


def betweenness_centrality(graph: Graph, normalized: bool = False) -> Dict[Vertex, float]:
    """Return the exact betweenness centrality of every vertex.

    Implements Brandes' accumulation over a BFS from every source (the graph
    is unweighted).  Each pair of distinct vertices is counted once, matching
    the convention of the paper (undirected graphs, no double counting).

    Parameters
    ----------
    normalized:
        When ``True`` the scores are divided by ``(n-1)(n-2)/2``.
    """
    scores = {v: 0.0 for v in graph.vertices()}
    for source in graph.vertices():
        _accumulate_from_source(graph, source, scores, weight=1.0)
    # Each unordered pair is visited from both endpoints: halve.
    for v in scores:
        scores[v] /= 2.0
    if normalized:
        n = graph.num_vertices
        if n > 2:
            scale = 2.0 / ((n - 1) * (n - 2))
            for v in scores:
                scores[v] *= scale
    return scores


def approximate_betweenness_centrality(
    graph: Graph, num_pivots: int, seed: int = 0
) -> Dict[Vertex, float]:
    """Return pivot-sampled betweenness estimates.

    A uniform sample of ``num_pivots`` source vertices is used and the
    accumulated dependencies are rescaled by ``n / num_pivots``, giving an
    unbiased estimator of the exact scores.  This is the practical substitute
    for the paper's parallel TopBW baseline on graphs where the exact
    ``O(nm)`` computation is out of reach for pure Python.
    """
    if num_pivots < 1:
        raise InvalidParameterError("num_pivots must be positive")
    vertices = graph.vertices()
    if not vertices:
        return {}
    rng = random.Random(seed)
    pivots = vertices if num_pivots >= len(vertices) else rng.sample(vertices, num_pivots)
    scores = {v: 0.0 for v in vertices}
    for source in pivots:
        _accumulate_from_source(graph, source, scores, weight=1.0)
    scale = len(vertices) / (2.0 * len(pivots))
    for v in scores:
        scores[v] *= scale
    return scores


def top_k_betweenness(
    graph: Graph,
    k: int,
    exact: bool = True,
    num_pivots: Optional[int] = None,
    seed: int = 0,
) -> TopKResult:
    """TopBW: the top-k vertices by (exact or approximate) betweenness."""
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    start = time.perf_counter()
    if exact:
        scores = betweenness_centrality(graph)
        algorithm = "TopBW"
    else:
        pivots = num_pivots if num_pivots is not None else max(1, graph.num_vertices // 10)
        scores = approximate_betweenness_centrality(graph, pivots, seed=seed)
        algorithm = "TopBW-approx"
    entries = top_entries(scores, k)
    stats = SearchStats(
        algorithm=algorithm,
        exact_computations=graph.num_vertices,
        elapsed_seconds=time.perf_counter() - start,
    )
    return TopKResult(entries=entries, k=k, stats=stats)


def _accumulate_from_source(
    graph: Graph, source: Vertex, scores: Dict[Vertex, float], weight: float
) -> None:
    """One Brandes BFS + dependency accumulation pass from ``source``."""
    sigma: Dict[Vertex, float] = {source: 1.0}
    distance: Dict[Vertex, int] = {source: 0}
    predecessors: Dict[Vertex, List[Vertex]] = {source: []}
    order: List[Vertex] = []
    queue = deque([source])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in graph.neighbors(v):
            if w not in distance:
                distance[w] = distance[v] + 1
                sigma[w] = 0.0
                predecessors[w] = []
                queue.append(w)
            if distance[w] == distance[v] + 1:
                sigma[w] += sigma[v]
                predecessors[w].append(v)
    dependency = {v: 0.0 for v in order}
    for w in reversed(order):
        for v in predecessors[w]:
            dependency[v] += (sigma[v] / sigma[w]) * (1.0 + dependency[w])
        if w != source:
            scores[w] += weight * dependency[w]
