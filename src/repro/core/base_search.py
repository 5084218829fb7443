"""BaseBSearch — Algorithm 1 of the paper.

The basic top-k search processes vertices in non-increasing order of the
static upper bound ``ub(p) = d(p)(d(p)-1)/2`` (Lemma 2), equal bounds by
ascending vertex sort key.  It computes the exact ego-betweenness of each
visited vertex and stops as soon as the next unvisited vertex's bound and
key cannot enter the result set of ``k`` vertices — every remaining vertex
then provably cannot enter the top-k (Theorem 1).

Like the paper's Algorithm 1 (lines 11–13 and the ``UptSMap`` procedure),
processing a vertex also maintains the shared shortest-path information of
*every* vertex its triangles and diamonds touch, whether or not those
vertices will ever be processed themselves — that unconditional maintenance
is exactly the cost OptBSearch avoids by gating the harvesting on the current
top-k threshold, and it is the main source of OptBSearch's practical runtime
advantage (Fig. 6) on top of the smaller number of exact computations
(Table II).

For callers that want the cheapest possible ordered scan without the paper's
shared-map maintenance, :func:`base_b_search` accepts
``maintain_shared_maps=False``; the result is identical, only the work
accounting changes.  The benchmark harness uses the faithful default.
"""

from __future__ import annotations

import time
from typing import Optional

from repro._ordering import sort_key
from repro.core.bounds import static_upper_bound
from repro.core.ego_betweenness import ego_betweenness
from repro.core.opt_search import ego_bw_cal
from repro.core.spath_map import IdentifiedInfo
from repro.core.topk import SearchStats, TopKAccumulator, TopKResult
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph

__all__ = ["base_b_search"]


def base_b_search(
    graph: Graph,
    k: int,
    maintain_shared_maps: bool = True,
    backend: str = "hash",
) -> TopKResult:
    """Run BaseBSearch and return the top-k ego-betweenness vertices.

    Compatibility wrapper: constructs a throwaway
    :class:`~repro.session.EgoSession` around ``graph`` and runs the query
    through it, so every call shares the graph-level snapshot and ego-summary
    caches with every other entry point.  The results — entries, scores and
    work counters — are bit-identical to the pre-session implementation
    (enforced by ``tests/test_session.py``).

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Number of results (clamped to the number of vertices).
    maintain_shared_maps:
        When ``True`` (the default, matching the paper's Algorithm 1), the
        shared per-vertex shortest-path maps are maintained for every vertex
        touched while processing, regardless of whether it can still enter
        the top-k.  ``False`` skips that maintenance and only evaluates the
        processed vertex itself.
    backend:
        ``"hash"`` (the default) runs on the hash-set :class:`Graph` as-is;
        ``"compact"`` / ``"auto"`` convert once to the CSR backend and run
        :func:`repro.core.csr_kernels.base_b_search_csr`, which returns the
        identical result faster.

    Returns
    -------
    TopKResult
        Ranked result; ``stats.exact_computations`` counts the vertices whose
        ego-betweenness was evaluated exactly, which is the pruning metric
        reported in Table II of the paper.
    """
    from repro.session import EgoSession

    session = EgoSession(graph, backend=backend)
    return session.top_k(k, algorithm="base", maintain_shared_maps=maintain_shared_maps)


def _base_b_search_hash(
    graph: Graph, k: int, maintain_shared_maps: bool = True
) -> TopKResult:
    """The hash-set BaseBSearch implementation (parity oracle).

    Dispatched to by :class:`~repro.session.EgoSession`; ``graph`` must
    already be a hash-set :class:`Graph`.
    """
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")

    start = time.perf_counter()
    n = graph.num_vertices
    effective_k = min(k, n) if n else k
    stats = SearchStats(algorithm="BaseBSearch")

    if n == 0:
        stats.elapsed_seconds = time.perf_counter() - start
        return TopKResult(entries=[], k=k, stats=stats)

    degrees = graph.degrees()
    # Algorithm 1 leaves the order among equal bounds free; visiting them
    # by ascending sort key matches the top-k order's tie rule, so the
    # stop test below can be exact at a tied threshold.
    ordering = sorted(
        degrees, key=lambda v: (-static_upper_bound(degrees[v]), sort_key(v))
    )

    shared_info = IdentifiedInfo() if maintain_shared_maps else None
    computed: set = set()
    accumulator = TopKAccumulator(effective_k)
    for u in ordering:
        if not accumulator.admits(static_upper_bound(degrees[u]), sort_key(u)):
            break
        if shared_info is not None:
            score = ego_bw_cal(
                graph,
                u,
                shared_info,
                computed,
                degrees=degrees,
                threshold=float("-inf"),
            )
            computed.add(u)
            shared_info.discard(u)
        else:
            score = ego_betweenness(graph, u)
        stats.exact_computations += 1
        accumulator.offer(u, score)

    stats.pruned_vertices = n - stats.exact_computations
    stats.elapsed_seconds = time.perf_counter() - start
    return TopKResult(entries=accumulator.ranked_entries(), k=k, stats=stats)
