"""Work partitioning strategies for the parallel engines.

The paper's key observation (Section V.B) is that distributing *vertices*
over threads leaves the load unbalanced because out-degrees — and hence the
per-vertex triangle-enumeration work — follow a heavily skewed distribution,
whereas distributing *directed edges* equalises the per-thread work because
the number of common out-neighbours per edge is far less skewed.

This module provides both strategies in a backend-independent form:

* :func:`block_partition` — contiguous, equally *sized* chunks of tasks
  (VertexPEBW's assignment);
* :func:`balanced_partition` — a longest-processing-time greedy assignment
  that equalises the per-worker *work*, where the work of a vertex task is
  its edge-level cost estimate (EdgePEBW's assignment);
* :func:`vertex_work_estimates` — the edge-work estimate
  ``Σ_{w ∈ N(p)} min(d(w), d(p))``, i.e. the number of directed adjacency
  probes the per-vertex kernel performs.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph, Vertex

__all__ = [
    "vertex_work_estimates",
    "vertex_work_estimates_csr",
    "block_partition",
    "balanced_partition",
]


def vertex_work_estimates(graph: Graph) -> Dict[Vertex, float]:
    """Return the per-vertex edge-work estimate of the exact kernel.

    For vertex ``p`` the kernel intersects each neighbour's adjacency with
    ``N(p)``, so its cost is proportional to
    ``Σ_{w ∈ N(p)} min(d(w), d(p))`` — a quantity dominated by the directed
    edges inside the ego network.  The estimates drive the edge-balanced
    partition and the deterministic speedup model.
    """
    degrees = graph.degrees()
    estimates: Dict[Vertex, float] = {}
    for p in graph.vertices():
        dp = degrees[p]
        work = 0.0
        for w in graph.neighbors(p):
            work += min(degrees[w], dp)
        # The constant offset models per-vertex fixed costs so that very
        # low-degree vertices do not register as free.
        estimates[p] = work + 1.0
    return estimates


def vertex_work_estimates_csr(
    compact: CompactGraph, ids: Optional[Iterable[int]] = None
) -> List[float]:
    """Return the per-vertex edge-work estimates of ``ids``, in order.

    The CSR twin of :func:`vertex_work_estimates`: the same
    ``Σ_{w ∈ N(p)} min(d(w), d(p)) + 1`` quantity, computed from the flat
    degree and adjacency arrays.  ``ids`` defaults to every vertex, when
    the list is indexed by dense vertex id; a chunker that cuts only some
    ids pays only for those.  The values are identical to the hash
    estimates (the sums are integer-exact in floats), so schedules and the
    load-balance report agree between backends.
    """
    indptr, indices = compact.indptr, compact.indices
    degrees = compact.degrees
    estimates: List[float] = []
    for p in range(len(degrees)) if ids is None else ids:
        dp = degrees[p]
        work = 1.0
        for w in indices[indptr[p] : indptr[p + 1]]:
            dw = degrees[w]
            work += dw if dw < dp else dp
        estimates.append(work)
    return estimates


def block_partition(tasks: Sequence[Vertex], num_workers: int) -> List[List[Vertex]]:
    """Split ``tasks`` into ``num_workers`` contiguous, equally sized blocks.

    This is the vertex-based assignment: it ignores per-task cost, so a block
    that happens to contain the high-degree hubs dominates the makespan.
    """
    if num_workers < 1:
        raise InvalidParameterError("num_workers must be positive")
    chunks: List[List[Vertex]] = [[] for _ in range(num_workers)]
    if not tasks:
        return chunks
    size, remainder = divmod(len(tasks), num_workers)
    start = 0
    for worker in range(num_workers):
        extent = size + (1 if worker < remainder else 0)
        chunks[worker] = list(tasks[start : start + extent])
        start += extent
    return chunks


def balanced_partition(
    tasks: Sequence[Vertex], weights: Dict[Vertex, float], num_workers: int
) -> List[List[Vertex]]:
    """Assign ``tasks`` to workers balancing the summed ``weights`` (LPT greedy).

    Tasks are considered in non-increasing weight order and each goes to the
    currently least-loaded worker — the classical longest-processing-time
    heuristic, whose makespan is within 4/3 of optimal.  This is the
    edge-based assignment: weights measure edge work, so worker loads are
    near-equal even under heavy degree skew.
    """
    if num_workers < 1:
        raise InvalidParameterError("num_workers must be positive")
    chunks: List[List[Vertex]] = [[] for _ in range(num_workers)]
    if not tasks:
        return chunks
    ordered = sorted(tasks, key=lambda t: -weights.get(t, 1.0))
    heap: List[Tuple[float, int]] = [(0.0, worker) for worker in range(num_workers)]
    heapq.heapify(heap)
    for task in ordered:
        load, worker = heapq.heappop(heap)
        chunks[worker].append(task)
        heapq.heappush(heap, (load + weights.get(task, 1.0), worker))
    return chunks
