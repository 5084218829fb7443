"""OptBSearch — Algorithms 2 and 3 of the paper.

OptBSearch improves on BaseBSearch with a *dynamic* upper bound (Lemma 3)
derived from "identified information": while a vertex ``u`` is being computed
exactly, the triangles and diamonds that are touched also reveal facts about
the ego networks of ``u``'s neighbours — edges between their neighbours and
alternative connectors for their non-adjacent neighbour pairs.  Those facts
can only *lower* the bound of a not-yet-computed vertex, so OptBSearch keeps
vertices in a max-priority structure keyed by their current bound and

* re-tightens the bound of the popped vertex before committing to the
  expensive exact computation,
* pushes the vertex back (or prunes it outright) when the tightened bound
  drops substantially below the stored one — the gradient ratio ``θ ≥ 1``
  controls what "substantially" means and therefore trades bound-refresh cost
  against exact-computation cost (Exp-2 of the paper), and
* terminates as soon as the best remaining stored bound cannot beat the
  current k-th entry of the top-k order (a bound equal to the k-th score
  still can, when its vertex's sort key precedes the k-th entry's).

Identified information is only recorded for vertices that can still matter:
a vertex whose *static* bound is already at or below the current k-th best
exact score can never enter the result, so harvesting facts for it would be
pure overhead (the top-k threshold never decreases).  This gating keeps the
per-computation cost of EgoBWCal close to the plain kernel while preserving
the bound's validity — the recorded facts are always a subset of the true
facts, which is all Lemma 3 requires.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Set, Tuple

from repro._ordering import sort_key
from repro.core.bounds import static_upper_bound
from repro.core.ego_betweenness import _sum_pair_contributions
from repro.core.spath_map import IdentifiedInfo
from repro.core.topk import SearchStats, TopKAccumulator, TopKResult
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex

__all__ = ["opt_b_search", "ego_bw_cal"]


def opt_b_search(
    graph: Graph, k: int, theta: float = 1.05, backend: str = "hash"
) -> TopKResult:
    """Run OptBSearch and return the top-k ego-betweenness vertices.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        Number of results (clamped to the number of vertices).
    theta:
        Gradient ratio ``θ ≥ 1``.  When the re-tightened bound ``˜ub`` of the
        popped vertex satisfies ``θ·˜ub < old bound`` the vertex is pushed
        back instead of being computed, postponing (or avoiding) its exact
        computation.  The paper's default is 1.05.
    backend:
        ``"hash"`` (the default) runs on the hash-set :class:`Graph` as-is;
        ``"compact"`` / ``"auto"`` convert once to the CSR backend and run
        :func:`repro.core.csr_kernels.opt_b_search_csr`, which returns the
        identical result (entries and counters) faster.

    Returns
    -------
    TopKResult
        Ranked result with statistics: ``exact_computations`` (Table II),
        ``bound_updates`` and ``repushes``.

    Notes
    -----
    Compatibility wrapper: constructs a throwaway
    :class:`~repro.session.EgoSession` around ``graph`` and runs the query
    through it, sharing the graph-level snapshot and ego-summary caches with
    every other entry point; results and counters are bit-identical to the
    pre-session implementation (enforced by ``tests/test_session.py``).
    """
    from repro.session import EgoSession

    session = EgoSession(graph, backend=backend)
    return session.top_k(k, algorithm="opt", theta=theta)


def _opt_b_search_hash(graph: Graph, k: int, theta: float = 1.05) -> TopKResult:
    """The hash-set OptBSearch implementation (parity oracle).

    Dispatched to by :class:`~repro.session.EgoSession`; ``graph`` must
    already be a hash-set :class:`Graph`.
    """
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    if theta < 1.0:
        raise InvalidParameterError("theta must be >= 1")

    start = time.perf_counter()
    n = graph.num_vertices
    stats = SearchStats(algorithm="OptBSearch")
    if n == 0:
        stats.elapsed_seconds = time.perf_counter() - start
        return TopKResult(entries=[], k=k, stats=stats)

    effective_k = min(k, n)
    degrees = graph.degrees()
    accumulator = TopKAccumulator(effective_k)
    info = IdentifiedInfo()

    # Max-heap keyed by the current bound; stale entries (older pushes of the
    # same vertex) are detected via ``current_bound`` and skipped.
    heap: List[Tuple[float, Tuple[str, str], Vertex]] = []
    current_bound: Dict[Vertex, float] = {}
    for v in graph.vertices():
        bound = static_upper_bound(degrees[v])
        current_bound[v] = bound
        heap.append((-bound, sort_key(v), v))
    heapq.heapify(heap)

    computed: Set[Vertex] = set()
    pruned: Set[Vertex] = set()

    while heap:
        neg_bound, key, v_star = heapq.heappop(heap)
        stored_bound = -neg_bound
        if v_star in computed or v_star in pruned:
            continue
        if stored_bound != current_bound[v_star]:
            continue  # stale entry superseded by a later, tighter push

        tight_bound = info.upper_bound(v_star, degrees[v_star])
        stats.bound_updates += 1

        if theta * tight_bound < stored_bound:
            # The bound dropped substantially: postpone or prune.
            if accumulator.admits(tight_bound, key):
                current_bound[v_star] = tight_bound
                heapq.heappush(heap, (-tight_bound, key, v_star))
                stats.repushes += 1
            else:
                pruned.add(v_star)
            continue

        # Pops come in (bound desc, key asc) order, so once the popped
        # vertex cannot enter, no vertex left in the heap can.
        if not accumulator.admits(stored_bound, key):
            break

        score = ego_bw_cal(
            graph,
            v_star,
            info,
            computed,
            degrees=degrees,
            threshold=accumulator.threshold,
        )
        stats.exact_computations += 1
        computed.add(v_star)
        info.discard(v_star)
        accumulator.offer(v_star, score)

    stats.pruned_vertices = n - stats.exact_computations
    stats.elapsed_seconds = time.perf_counter() - start
    return TopKResult(entries=accumulator.ranked_entries(), k=k, stats=stats)


def ego_bw_cal(
    graph: Graph,
    u: Vertex,
    info: IdentifiedInfo,
    computed: Set[Vertex],
    degrees: Dict[Vertex, int] | None = None,
    threshold: float = float("-inf"),
) -> float:
    """EgoBWCal (Algorithm 3): exact ``CB(u)`` plus identified-info harvesting.

    Computes the exact ego-betweenness of ``u`` with the same wedge-based
    kernel as :func:`repro.core.ego_betweenness.ego_betweenness`, and while
    doing so records, for every *relevant* vertex touched by the enumeration,
    the facts that tighten its dynamic bound:

    * for every triangle ``(u, x, w)``: the pair ``(u, w)`` is an identified
      edge in ``GE(x)`` and ``(u, x)`` is one in ``GE(w)``;
    * for every diamond witnessed by a wedge ``x – w – y`` inside ``GE(u)``
      with ``(x, y)`` non-adjacent: ``u`` is an identified connector of the
      pair ``(x, y)`` in ``GE(w)``.

    A touched vertex is *relevant* when it has not been computed yet and its
    static bound still exceeds ``threshold`` (the current k-th best exact
    score); all other vertices can never enter the result, so recording facts
    for them would be wasted work.
    """
    neighbors = graph.neighbors(u)
    degree = len(neighbors)
    if degree < 2:
        return 0.0
    if degrees is None:
        degrees = {}

    ego_adj: Dict[Vertex, List[Vertex]] = {}
    relevant: Dict[Vertex, bool] = {}
    for x in neighbors:
        nx = graph.neighbors(x)
        if len(nx) <= degree:
            ego_adj[x] = [w for w in nx if w != u and w in neighbors]
        else:
            ego_adj[x] = [w for w in neighbors if w != x and w in nx]
        degree_x = degrees.get(x, len(nx))
        relevant[x] = x not in computed and static_upper_bound(degree_x) > threshold

    # Identified edges for the triangle endpoints: for the triangle
    # (u, x, w), the pair (u, w) is an edge of GE(x).  Recording is
    # idempotent, so visiting each triangle from both endpoints is harmless.
    for x, adj in ego_adj.items():
        if not relevant[x]:
            continue
        for w in adj:
            info.record_edge(x, u, w)

    edges_in_ego = sum(len(adj) for adj in ego_adj.values()) // 2

    linker_counts: Dict[frozenset, int] = {}
    for w, adj in ego_adj.items():
        length = len(adj)
        if length < 2:
            continue
        record_for_w = relevant[w]
        for i in range(length):
            x = adj[i]
            x_neighbors = graph.neighbors(x)
            for j in range(i + 1, length):
                y = adj[j]
                if y in x_neighbors:
                    continue
                key = frozenset((x, y))
                linker_counts[key] = linker_counts.get(key, 0) + 1
                if record_for_w:
                    # u connects x and y inside GE(w): x, y, u ∈ N(w) and u
                    # is adjacent to both — a certain fact for w's bound.
                    info.record_link(w, x, y, u)

    total_pairs = degree * (degree - 1) // 2
    lonely_pairs = total_pairs - edges_in_ego - len(linker_counts)
    return _sum_pair_contributions(lonely_pairs, linker_counts.values())
