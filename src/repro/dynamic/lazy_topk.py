"""Lazy maintenance of the top-k result set (LazyInsert / LazyDelete, §IV.C).

The lazy maintainer keeps, for every vertex outside the result set, a
*priority* that is guaranteed to be an upper bound on its current
ego-betweenness, plus a flag saying whether the stored value is exact.  The
top-k result set ``R`` always holds exact values.  When an edge update
arrives, only the vertices Observation 1 marks as affected are touched, and
exact recomputations happen only when an upper bound says the vertex could
matter for the answer — the core idea of the paper's Algorithm 6:

* a **common neighbour** of an inserted edge can only lose ego-betweenness,
  so outside ``R`` its old value remains a valid upper bound and no work is
  done;
* an **endpoint** (whose value may move either way) gets the refreshed static
  bound ``d(d-1)/2`` as its new priority; it is recomputed only if that bound
  later exceeds the k-th best exact score;
* members of ``R`` that were affected are recomputed exactly (the result set
  must stay exact), after which a bound-gated loop swaps in any outsider
  whose exact value now beats the k-th best.

Deletions mirror the rules (common neighbours can only gain and therefore
get the static bound; endpoints shrink their bound).

Like :class:`~repro.dynamic.local_update.EgoBetweennessIndex`, the
maintainer runs on one of two backends (``backend={"auto", "compact",
"hash"}``, auto = compact).  The compact backend keeps the graph in a
:class:`~repro.graph.dynamic_csr.DynamicCompactGraph` overlay whose
memoised ego scores are invalidated only for the Observation-1 affected
set, so the exact recomputations the laziness cannot avoid are served from
int-set kernels — and repeated probes of untouched outsiders cost a dict
lookup.  The decision sequence (which vertices are recomputed, skipped,
swapped) is deterministic and identical across backends, so the
``exact_recomputations`` / ``skipped_recomputations`` counters and the
maintained values agree exactly; the hash backend remains the parity
oracle.

Implementation note.  The paper's Algorithm 6 keeps the *outdated
ego-betweenness* as the stale priority of a skipped endpoint.  Because an
insertion can increase an endpoint's value, that stored number is not always
an upper bound, and a later replacement search ordered by it can miss the
true best outsider.  This implementation stores the refreshed static bound
instead, which is always an upper bound, so the maintained result set is
provably equal to the true top-k after every update (verified against
from-scratch recomputation by the test-suite) while preserving the lazy
skip-when-bounded behaviour that Exp-3 measures.

The canonical owner of these maintainers is
:class:`repro.session.EgoSession`, which attaches one per requested ``k``
(``maintained_top_k(k, mode="lazy")``, seeded from the session's exact
values) and forwards every applied update to it; direct construction
remains supported for standalone use.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Dict, List, Optional, Set, Tuple

from repro._ordering import sort_key
from repro.core.bounds import static_upper_bound
from repro.core.csr_kernels import (
    all_dynamic_ego_scores,
    as_dynamic,
    dynamic_ego_score,
    normalize_backend,
)
from repro.core.ego_betweenness import all_ego_betweenness, ego_betweenness
from repro.core.topk import SearchStats, TopKResult, rank_entries
from repro.errors import EdgeExistsError, EdgeNotFoundError, InvalidParameterError, SelfLoopError
from repro.graph.graph import Graph, Vertex

__all__ = ["LazyTopKMaintainer"]


class LazyTopKMaintainer:
    """Maintains the exact top-k ego-betweenness set across edge updates.

    Parameters
    ----------
    graph:
        The initial graph (copied; later updates go through this object).
    k:
        Size of the maintained result set.
    backend:
        ``"auto"`` (default, resolves to ``"compact"``) runs on the mutable
        CSR overlay with memoised, selectively-invalidated ego scores;
        ``"hash"`` forces the label-level oracle.  Values, result sets and
        counters are identical either way.
    values:
        Optional precomputed exact ego-betweenness map for ``graph``; skips
        the initial all-vertex computation.

    Attributes
    ----------
    exact_recomputations:
        Cumulative number of exact per-vertex recomputations triggered by
        updates — the laziness metric compared against
        :class:`~repro.dynamic.local_update.EgoBetweennessIndex` in the
        Fig. 8 experiment.
    skipped_recomputations:
        Cumulative number of affected vertices whose recomputation the bound
        test allowed the maintainer to skip.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        backend: str = "auto",
        values: Optional[Dict[Vertex, float]] = None,
        **overlay_options,
    ) -> None:
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        self.backend = normalize_backend(backend)
        if self.backend == "compact":
            # The maintainer's exact recomputations are served from patched
            # ego summaries, so summary maintenance pays for itself here.
            overlay_options.setdefault("maintain_summaries", True)
            self._dyn = as_dynamic(graph, **overlay_options)
            self._graph: Optional[Graph] = None
            self._graph_version = -1
            if values is None:
                self._values: Dict[Vertex, float] = all_dynamic_ego_scores(self._dyn)
            else:
                self._values = dict(values)
                self._dyn.seed_scores(
                    {self._dyn.id_of(label): value for label, value in values.items()}
                )
        else:
            if overlay_options:
                raise TypeError("overlay options are only valid with backend='compact'")
            self._dyn = None
            self._graph = graph.copy()
            self._values = dict(values) if values is not None else all_ego_betweenness(self._graph)
        self._k = k
        self._exact: Set[Vertex] = set(self._values)
        self._result: Set[Vertex] = set()
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, Vertex]] = []
        self.exact_recomputations = 0
        self.skipped_recomputations = 0
        self.last_update_seconds = 0.0
        self._initialise_result()

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph the maintainer currently reflects (treat as read-only).

        On the compact backend a hash-set view is materialised lazily and
        cached until the next update.
        """
        if self._dyn is None:
            return self._graph
        if self._graph is None or self._graph_version != self._dyn.version:
            self._graph = self._dyn.to_graph()
            self._graph_version = self._dyn.version
        return self._graph

    @property
    def k(self) -> int:
        """The maintained result size."""
        return self._k

    def result_vertices(self) -> Set[Vertex]:
        """Return the current result set as a set of vertices."""
        return set(self._result)

    def top_k(self) -> TopKResult:
        """Return the current top-k result (scores are always exact)."""
        entries = rank_entries([(v, self._values[v]) for v in self._result])
        stats = SearchStats(
            algorithm="LazyTopKMaintainer",
            exact_computations=self.exact_recomputations,
        )
        return TopKResult(entries=entries, k=self._k, stats=stats)

    def score(self, vertex: Vertex) -> float:
        """Return the stored score of ``vertex`` (exact for result members,
        an upper bound for stale outsiders)."""
        return self._values[vertex]

    def rebuild(self) -> None:
        """Re-compact the CSR overlay's storage (no-op on the hash backend).

        Maintained values, result set and counters are unchanged — only the
        overlay's delta sets are folded back into contiguous CSR arrays.
        """
        if self._dyn is not None:
            self._dyn.rebuild()

    @property
    def overlay_rebuilds(self) -> int:
        """Number of overlay re-compactions so far (0 on the hash backend)."""
        if self._dyn is not None:
            return self._dyn.rebuilds
        return 0

    # ------------------------------------------------------------------
    # Backend adapters
    # ------------------------------------------------------------------
    def _has_vertex(self, vertex: Vertex) -> bool:
        if self._dyn is not None:
            return self._dyn.has_vertex(vertex)
        return self._graph.has_vertex(vertex)

    def _has_edge(self, u: Vertex, v: Vertex) -> bool:
        if self._dyn is not None:
            return self._dyn.has_edge(u, v)
        return self._graph.has_edge(u, v)

    def _degree(self, vertex: Vertex) -> int:
        if self._dyn is not None:
            return self._dyn.degree(self._dyn.id_of(vertex))
        return self._graph.degree(vertex)

    def _add_vertex(self, vertex: Vertex) -> None:
        if self._dyn is not None:
            self._dyn.add_vertex(vertex)
        else:
            self._graph.add_vertex(vertex)

    def _mutate(self, u: Vertex, v: Vertex, inserting: bool) -> Set[Vertex]:
        """Apply the edge update; return the common neighbours (labels)."""
        if self._dyn is not None:
            dyn = self._dyn
            uid, vid = dyn.id_of(u), dyn.id_of(v)
            common_ids = (
                dyn.insert_edge_ids(uid, vid) if inserting else dyn.delete_edge_ids(uid, vid)
            )
            label_of = dyn.label_of
            return {label_of(w) for w in common_ids}
        graph = self._graph
        common = graph.common_neighbors(u, v)
        if inserting:
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)
        return common

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """LazyInsert: apply the edge insertion and restore the top-k invariant."""
        start = time.perf_counter()
        if u == v:
            raise SelfLoopError(u)
        if self._has_vertex(u) and self._has_vertex(v) and self._has_edge(u, v):
            raise EdgeExistsError(u, v)
        for endpoint in (u, v):
            if not self._has_vertex(endpoint):
                self._add_vertex(endpoint)
                self._values[endpoint] = 0.0
                self._exact.add(endpoint)
                self._push(endpoint, 0.0)
        common = self._mutate(u, v, inserting=True)
        self._apply_update(uncertain=(u, v), monotone=common, decreasing=True)
        self.last_update_seconds = time.perf_counter() - start

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """LazyDelete: apply the edge deletion and restore the top-k invariant."""
        start = time.perf_counter()
        if not (self._has_vertex(u) and self._has_vertex(v) and self._has_edge(u, v)):
            raise EdgeNotFoundError(u, v)
        common = self._mutate(u, v, inserting=False)
        self._apply_update(uncertain=(u, v), monotone=common, decreasing=False)
        self.last_update_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Update machinery
    # ------------------------------------------------------------------
    def _apply_update(
        self, uncertain: Tuple[Vertex, Vertex], monotone: Set[Vertex], decreasing: bool
    ) -> None:
        """Three-phase update: stale the affected vertices, fix the result
        members, then restore the top-k invariant lazily.

        Parameters
        ----------
        uncertain:
            The two endpoints, whose value may move either way.
        monotone:
            The common neighbours, whose value moves monotonically:
            downwards for an insertion (``decreasing=True``), upwards for a
            deletion.  Iterated in canonical label order so the heap
            tie-breaking — and with it every lazy decision — is identical
            across backends.
        """
        affected_in_result: List[Vertex] = []

        # Phase A — mark affected vertices stale with valid upper bounds.
        for vertex in uncertain:
            if vertex in self._result:
                affected_in_result.append(vertex)
            else:
                self._stale(vertex, static_upper_bound(self._degree(vertex)))
        for vertex in sorted(monotone, key=sort_key):
            if vertex in self._result:
                affected_in_result.append(vertex)
            elif decreasing:
                # Old stored value (or bound) still upper-bounds the new one.
                self._exact.discard(vertex)
            else:
                self._stale(vertex, static_upper_bound(self._degree(vertex)))

        # Phase B — result members must stay exact.
        for vertex in affected_in_result:
            self._recompute(vertex)

        skipped = (len(uncertain) + len(monotone)) - len(affected_in_result)

        # Phase C — lazily pull in any outsider that now beats the k-th best.
        skipped -= self._restore_invariant()
        self.skipped_recomputations += max(skipped, 0)

    def _restore_invariant(self) -> int:
        """Swap outsiders into the result until no upper bound can beat it.

        Returns the number of exact recomputations performed while probing
        outsiders (so the caller can account for skipped work accurately).
        """
        probes = 0
        while True:
            candidate = self._pop_best_candidate()
            if candidate is None:
                return probes
            vertex, priority, is_exact = candidate
            if len(self._result) < self._k:
                if not is_exact:
                    self._recompute(vertex)
                    probes += 1
                self._result.add(vertex)
                continue
            threshold_vertex = self._threshold_vertex()
            threshold = self._values[threshold_vertex]
            if priority <= threshold:
                # No outsider can beat the current k-th best: done.  Put the
                # candidate back so future updates still see it.
                self._push(vertex, priority)
                return probes
            if not is_exact:
                score = self._recompute(vertex)
                probes += 1
                self._push(vertex, score)
                continue
            # Exact outsider strictly better than the k-th best: swap.
            self._result.discard(threshold_vertex)
            self._result.add(vertex)
            self._push(threshold_vertex, self._values[threshold_vertex])

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------
    def _initialise_result(self) -> None:
        ordered = rank_entries(self._values.items())
        for vertex, _ in ordered[: self._k]:
            self._result.add(vertex)
        for vertex, value in ordered[self._k :]:
            self._push(vertex, value)

    def _threshold_vertex(self) -> Vertex:
        """Return the result member with the smallest (exact) score."""
        return min(
            self._result,
            key=lambda p: (self._values[p], sort_key(p)),
        )

    def _recompute(self, vertex: Vertex) -> float:
        if self._dyn is not None:
            score = dynamic_ego_score(self._dyn, self._dyn.id_of(vertex))
        else:
            score = ego_betweenness(self._graph, vertex)
        self._values[vertex] = score
        self._exact.add(vertex)
        self.exact_recomputations += 1
        return score

    def _stale(self, vertex: Vertex, priority: float) -> None:
        """Mark ``vertex`` stale with ``priority`` as its upper-bound score."""
        self._exact.discard(vertex)
        self._values[vertex] = max(self._values.get(vertex, 0.0), priority)
        self._push(vertex, self._values[vertex])

    def _push(self, vertex: Vertex, priority: float) -> None:
        heapq.heappush(self._heap, (-priority, next(self._counter), vertex))

    def _pop_best_candidate(self) -> Optional[Tuple[Vertex, float, bool]]:
        """Pop the highest-priority valid outsider entry from the heap.

        Returns ``(vertex, priority, is_exact)`` or ``None`` when no valid
        candidate remains.  Entries whose priority no longer matches the
        stored value (superseded pushes) and entries for result members are
        discarded.
        """
        while self._heap:
            neg_priority, _, vertex = heapq.heappop(self._heap)
            priority = -neg_priority
            if vertex in self._result or not self._has_vertex(vertex):
                continue
            if priority != self._values.get(vertex):
                continue
            return vertex, priority, vertex in self._exact
        return None
