"""Result containers, the top-k order and the unified top-k dispatch API.

Every search algorithm returns a :class:`TopKResult`, which carries the
ranked ``(vertex, score)`` entries plus a :class:`SearchStats` record with
the counters the paper reports (most importantly the number of vertices whose
ego-betweenness was computed exactly — Table II — and the number of bound
re-pushes performed by OptBSearch).

The paper leaves ties unbroken; this module breaks them once.  The top-k of
a score map is its first ``k`` ``(vertex, score)`` pairs under score
descending, then :func:`~repro._ordering.sort_key` of the vertex ascending —
on every path, whatever order its results arrive in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro._ordering import sort_key
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex

__all__ = [
    "SearchStats",
    "TopKResult",
    "TopKAccumulator",
    "rank_entries",
    "threshold_cut",
    "top_entries",
    "top_k_ego_betweenness",
]


def rank_entries(entries: Sequence[Tuple[Vertex, float]]) -> List[Tuple[Vertex, float]]:
    """Sort ``(vertex, score)`` pairs into the top-k order.

    ``rank_entries(scores.items())[:k]`` is the top-k of a score map.
    """
    return sorted(entries, key=lambda item: (-item[1], sort_key(item[0])))


def threshold_cut(entries: Sequence[Tuple[Any, float]], k: int) -> List[Tuple[Any, float]]:
    """Every ``(item, score)`` entry whose score reaches the k-th largest.

    The top-k by score plus every tie at the k-th score, in input order.
    It needs no vertex keys, so holders of bare ids (parallel workers, the
    runtime's merge) can cut without deciding which ties survive.
    """
    if len(entries) <= k:
        return list(entries)
    threshold = heapq.nlargest(k, map(itemgetter(1), entries))[-1]
    return [entry for entry in entries if entry[1] >= threshold]


def top_entries(
    scores: Mapping[Vertex, float],
    k: int,
    key: Callable[[Vertex], tuple] = sort_key,
) -> List[Tuple[Vertex, float]]:
    """The top-k of a full score map: ``rank_entries(scores.items())[:k]``.

    Selects by score first (``nlargest`` over the floats) and sorts only
    the entries above the k-th score and the ties at it, the ties by
    ``key`` alone.  ``key`` must agree with
    :func:`~repro._ordering.sort_key`; callers holding precomputed keys (a
    snapshot's ``label_keys()``) pass their lookup.
    """
    if not scores:
        return []
    threshold = heapq.nlargest(k, scores.values())[-1]
    above = rank_entries([item for item in scores.items() if item[1] > threshold])
    tied = [v for v, score in scores.items() if score == threshold]
    tied.sort(key=key)
    return above + [(v, scores[v]) for v in tied[: k - len(above)]]


@dataclass
class SearchStats:
    """Counters describing the work a top-k search performed.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the result.
    exact_computations:
        Number of vertices whose ego-betweenness was computed exactly
        (the quantity reported in Table II of the paper).
    bound_updates:
        Number of dynamic-bound recomputations (OptBSearch only).
    repushes:
        Number of times a vertex was pushed back into the priority structure
        with a tightened bound (OptBSearch only).
    pruned_vertices:
        Number of vertices eliminated without an exact computation.
    elapsed_seconds:
        Wall-clock time of the search.
    """

    algorithm: str = ""
    exact_computations: int = 0
    bound_updates: int = 0
    repushes: int = 0
    pruned_vertices: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class TopKResult:
    """Ranked top-k ego-betweenness result.

    Attributes
    ----------
    entries:
        The first ``k`` ``(vertex, score)`` pairs under the top-k order
        (score descending, then vertex sort key ascending).
    k:
        The requested ``k``.
    stats:
        Work counters for the search that produced this result.
    """

    entries: List[Tuple[Vertex, float]]
    k: int
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def vertices(self) -> List[Vertex]:
        """The ranked vertices (best first)."""
        return [v for v, _ in self.entries]

    @property
    def scores(self) -> Dict[Vertex, float]:
        """Mapping from each returned vertex to its exact ego-betweenness."""
        return dict(self.entries)

    @property
    def threshold(self) -> float:
        """The smallest score in the result (0.0 when the result is empty)."""
        if not self.entries:
            return 0.0
        return self.entries[-1][1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, vertex: Vertex) -> bool:
        return any(v == vertex for v, _ in self.entries)


class _Descending:
    """Wraps a sort key so that a min-heap pops its *largest* key first."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key


class TopKAccumulator:
    """The ``k`` best ``(vertex, score)`` pairs offered so far.

    "Best" is the top-k order, so the retained set does not depend on the
    order of the offers.  The min-heap keeps the k-th entry (lowest score,
    largest key among those) on top: what a new offer must beat.
    """

    __slots__ = ("_k", "_heap")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        self._k = k
        self._heap: List[Tuple[float, _Descending, Vertex]] = []

    def offer(self, vertex: Vertex, score: float) -> None:
        """Consider ``vertex`` with ``score`` for inclusion in the top-k."""
        entry = (score, _Descending(sort_key(vertex)), vertex)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, entry)
        elif self._heap[0] < entry:
            heapq.heapreplace(self._heap, entry)

    def admits(self, bound: float, key: tuple) -> bool:
        """Can a vertex with score at most ``bound`` and sort key ``key`` enter?

        True while not full, when ``bound`` beats the k-th score, or when it
        ties it and ``key`` precedes the k-th entry's.  Once false it stays
        false: the k-th entry only moves up the order.
        """
        if len(self._heap) < self._k:
            return True
        score, worst, _ = self._heap[0]
        return bound > score or (bound == score and key < worst.key)

    @property
    def is_full(self) -> bool:
        """``True`` once ``k`` candidates have been accepted."""
        return len(self._heap) >= self._k

    @property
    def threshold(self) -> float:
        """The k-th best score so far (``-inf`` until the heap is full)."""
        if not self.is_full:
            return float("-inf")
        return self._heap[0][0]

    def entries(self) -> List[Tuple[Vertex, float]]:
        """The retained ``(vertex, score)`` pairs in no particular order."""
        return [(vertex, score) for score, _, vertex in self._heap]

    def ranked_entries(self) -> List[Tuple[Vertex, float]]:
        """Return the accumulated entries in the top-k order."""
        return rank_entries(self.entries())

    def __len__(self) -> int:
        return len(self._heap)


def top_k_ego_betweenness(
    graph: Graph,
    k: int,
    method: str = "opt",
    theta: float = 1.05,
    backend: str = "auto",
) -> TopKResult:
    """Find the ``k`` vertices with the highest ego-betweenness.

    Parameters
    ----------
    graph:
        The input graph — a hash-set :class:`Graph` or a pre-converted
        :class:`~repro.graph.csr.CompactGraph`.
    k:
        Number of results to return (values larger than ``n`` are clamped).
    method:
        ``"opt"`` (OptBSearch, the default), ``"base"`` (BaseBSearch) or
        ``"naive"`` (compute every vertex then select — the straightforward
        algorithm the paper uses as a strawman).
    theta:
        Gradient ratio for OptBSearch (ignored by the other methods).
    backend:
        ``"auto"`` (the default) runs the search on the compact CSR backend,
        converting a hash ``Graph`` once up front and mapping results back
        to the original vertex labels; ``"compact"`` forces that explicitly
        and ``"hash"`` forces the hash-set oracle implementation.  Both
        backends return identical entries and work counters, so the default
        output is unchanged for existing callers — only faster.

    Returns
    -------
    TopKResult
        The ranked result with search statistics.

    Notes
    -----
    Compatibility wrapper over :class:`~repro.session.EgoSession`: the call
    constructs a throwaway session and runs the query through it, so every
    call shares the graph-level snapshot and ego-summary caches with every
    other entry point.  Long-lived callers should hold an ``EgoSession``
    directly — it additionally keeps the all-vertex score memo and the
    dynamic-maintenance state warm across queries.
    """
    # Imported lazily: the session module imports the result containers
    # defined above.
    from repro.session import EgoSession

    session = EgoSession(graph, backend=backend)
    return session.top_k(k, algorithm=method, theta=theta)
