"""Local maintenance of all ego-betweenness values (LocalInsert / LocalDelete).

Observation 1 of the paper: inserting or deleting an edge ``(u, v)`` only
changes the ego-betweenness of ``u``, ``v`` and their common neighbours
``N(u) ∩ N(v)`` — every other ego network is untouched.  Lemmas 4–7 then
name the neighbour pairs of each affected vertex whose connector count the
update moves:

* for each endpoint: the pairs among the common neighbours ``L`` plus the
  new/vanishing pairs ``(other endpoint, x)``,
* for each common neighbour ``w``: the pair ``(u, v)`` plus the pairs
  ``(x, u)`` / ``(x, v)`` with ``x ∈ N(w)`` adjacent to the other endpoint,

matching the work bound of the paper's Algorithms 4–5.

Two backends implement the index (``backend={"auto", "compact",
"hash"}``, auto = compact):

* **compact** — the served path: a
  :class:`~repro.graph.dynamic_csr.DynamicCompactGraph` overlay holds a
  connector-count histogram per vertex, seeded at construction from one
  kernel sweep, and moves exactly those pairs between buckets (the integer
  state of
  :meth:`~repro.graph.dynamic_csr.DynamicCompactGraph._patch_histograms`);
  each affected score is re-summed from its histogram
  (:func:`repro.core.csr_kernels.dynamic_ego_score`), so it is
  bit-identical to a fresh recomputation after any number of updates;
* **hash** — the definition oracle: after each update it recomputes every
  Observation-1 affected vertex with
  :func:`~repro.core.ego_betweenness.ego_betweenness`, so compact-vs-hash
  parity checks the Lemma 4–7 patcher against the definition itself.

The canonical owner of this index is :class:`repro.session.EgoSession`,
which builds one at its static→dynamic promotion (seeded with the values
the session already computed, else re-summed from the overlay's
histograms) and serves ``scores()`` and naive
``top_k`` from it; direct construction remains supported for standalone
use.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.csr_kernels import as_dynamic, dynamic_ego_score, normalize_backend
from repro.core.ego_betweenness import all_ego_betweenness, ego_betweenness
from repro.core.topk import top_entries
from repro.errors import EdgeNotFoundError, SelfLoopError
from repro.graph.graph import Graph, Vertex

__all__ = ["EgoBetweennessIndex", "affected_vertices"]


def initial_values(dyn, graph: Optional[Graph]) -> Dict[Vertex, float]:
    """Every vertex's exact value: re-summed from the overlay ``dyn``'s
    seeded histograms, or computed on the hash ``graph`` when ``dyn`` is
    ``None``."""
    if dyn is None:
        return all_ego_betweenness(graph)
    return {label: dynamic_ego_score(dyn, pid) for pid, label in enumerate(dyn.labels)}


def affected_vertices(graph: Graph, u: Vertex, v: Vertex) -> Set[Vertex]:
    """Return the vertices whose ego-betweenness an update of ``(u, v)`` touches.

    Observation 1: the affected set is ``{u, v} ∪ (N(u) ∩ N(v))``.  The graph
    must contain both endpoints; the edge itself may or may not be present.
    """
    affected = {u, v}
    if u in graph and v in graph:
        affected |= graph.common_neighbors(u, v)
    return affected


class EgoBetweennessIndex:
    """Exact ego-betweenness of every vertex, maintained under edge updates.

    Parameters
    ----------
    graph:
        The graph to index.  The index keeps its own copy, so the caller's
        graph is never mutated by :meth:`insert_edge` / :meth:`delete_edge`.
    backend:
        ``"auto"`` (default, resolves to ``"compact"``) maintains the values
        on the mutable CSR overlay from patched connector-count histograms;
        ``"hash"`` recomputes the affected vertices by definition.  Both
        produce values bit-identical to a fresh recomputation.
    values:
        Optional precomputed exact ego-betweenness map for ``graph`` (as
        returned by :func:`~repro.core.ego_betweenness.all_ego_betweenness`);
        the caller guarantees the values match the supplied graph.  Without
        it the compact backend re-sums the overlay's seeded histograms and
        the hash backend computes every vertex.
    copy:
        When ``False`` the index *adopts* the supplied graph instead of
        copying it: a :class:`DynamicCompactGraph` (compact backend) or a
        :class:`Graph` (hash backend) is used as the index's own mutable
        state.  The caller hands over ownership — every update must go
        through this index (the :class:`~repro.session.EgoSession` uses
        this to share one topology between the session and its index).

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> index = EgoBetweennessIndex(g)
    >>> sorted(index.insert_edge(1, 3))
    [1, 2, 3]
    >>> index.score(2) == ego_betweenness(index.graph, 2)
    True
    """

    def __init__(
        self,
        graph: Graph,
        backend: str = "auto",
        values: Optional[Dict[Vertex, float]] = None,
        copy: bool = True,
    ) -> None:
        from repro.graph.dynamic_csr import DynamicCompactGraph

        self.backend = normalize_backend(backend)
        self._snapshot_cache: Optional[Tuple[int, "CompactGraph"]] = None
        if self.backend == "compact":
            if not copy and isinstance(graph, DynamicCompactGraph):
                self._dyn = graph
            else:
                self._dyn = as_dynamic(graph)
            self._graph: Optional[Graph] = None
            self._graph_version = -1
        else:
            self._dyn = None
            self._graph = graph if not copy else graph.copy()
        self._scores: Dict[Vertex, float] = (
            dict(values) if values is not None else initial_values(self._dyn, self._graph)
        )
        self.last_update_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph the index currently reflects (treat as read-only).

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
    def version(self) -> int:
        """Monotone counter bumped by every applied update (cache keying)."""
        if self._dyn is not None:
            return self._dyn.version
        return self._graph.version

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the maintained graph."""
        if self._dyn is not None:
            return self._dyn.num_vertices
        return self._graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges of the maintained graph."""
        if self._dyn is not None:
            return self._dyn.num_edges
        return self._graph.num_edges

    def compact_snapshot(self) -> "CompactGraph":
        """Return an immutable CSR snapshot of the current graph state.

        Memoised per :attr:`version`: between updates, every caller
        receives the *same* ``CompactGraph`` object, so its cached search
        orders and memoised ego summaries stay warm across repeated
        queries — the cheap way to run a top-k search against a live
        standalone index (an :class:`~repro.session.EgoSession` keeps its
        own equivalent memo over the shared topology).
        """
        if self._dyn is not None:
            version = self._dyn.version
            cached = self._snapshot_cache
            if cached is not None and cached[0] == version:
                return cached[1]
            snapshot = self._dyn.snapshot()
            self._snapshot_cache = (version, snapshot)
            return snapshot
        return self._graph.to_compact()

    def rebuild(self) -> None:
        """Re-compact the CSR overlay's storage (no-op on the hash backend).

        The graph and the maintained values are unchanged — only the
        overlay's delta sets are folded back into contiguous CSR arrays
        (see :meth:`DynamicCompactGraph.rebuild`).
        """
        if self._dyn is not None:
            self._dyn.rebuild()

    @property
    def overlay_rebuilds(self) -> int:
        """Number of overlay re-compactions so far (0 on the hash backend)."""
        if self._dyn is not None:
            return self._dyn.rebuilds
        return 0

    def score(self, vertex: Vertex) -> float:
        """Return the maintained ego-betweenness of ``vertex``."""
        return self._scores[vertex]

    @property
    def values(self) -> Dict[Vertex, float]:
        """The live ego-betweenness map (read-only; :meth:`scores` copies)."""
        return self._scores

    def scores(self) -> Dict[Vertex, float]:
        """Return a copy of the full ego-betweenness map."""
        return dict(self._scores)

    def top_k(self, k: int) -> List[Tuple[Vertex, float]]:
        """Return the ``k`` best (vertex, score) pairs, best first."""
        return top_entries(self._scores, k) if k > 0 else []

    # ------------------------------------------------------------------
    # Updates (LocalInsert / LocalDelete)
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """LocalInsert: add edge ``(u, v)`` and refresh the affected scores.

        Returns the set of vertices whose score was updated.  Raises
        :class:`EdgeExistsError` when the edge is already present and
        :class:`SelfLoopError` for ``u == v``.
        """
        start = time.perf_counter()
        if u == v:
            raise SelfLoopError(u)
        if self._dyn is not None:
            affected = self._update_compact(u, v, inserting=True)
        else:
            affected = self._update_hash(u, v, inserting=True)
        self.last_update_seconds = time.perf_counter() - start
        return affected

    def delete_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """LocalDelete: remove edge ``(u, v)`` and refresh the affected scores.

        Returns the set of vertices whose score was updated.  Raises
        :class:`EdgeNotFoundError` when the edge is absent.
        """
        start = time.perf_counter()
        if self._dyn is not None:
            affected = self._update_compact(u, v, inserting=False)
        else:
            affected = self._update_hash(u, v, inserting=False)
        self.last_update_seconds = time.perf_counter() - start
        return affected

    # ------------------------------------------------------------------
    # Compact backend: patched histograms on the CSR overlay
    # ------------------------------------------------------------------
    def _update_compact(self, u: Vertex, v: Vertex, inserting: bool) -> Set[Vertex]:
        dyn = self._dyn
        if inserting:
            uid, vid = dyn.add_vertex(u), dyn.add_vertex(v)
            common = dyn.insert_edge_ids(uid, vid)  # raises EdgeExistsError
        else:
            if not (dyn.has_vertex(u) and dyn.has_vertex(v)):
                raise EdgeNotFoundError(u, v)
            uid, vid = dyn.id_of(u), dyn.id_of(v)
            common = dyn.delete_edge_ids(uid, vid)  # raises EdgeNotFoundError
        scores = self._scores
        label_of = dyn.label_of
        affected = {u, v}
        for pid in (uid, vid, *common):
            label = label_of(pid)
            scores[label] = dynamic_ego_score(dyn, pid)
            affected.add(label)
        return affected

    # ------------------------------------------------------------------
    # Hash backend (definition oracle)
    # ------------------------------------------------------------------
    def _update_hash(self, u: Vertex, v: Vertex, inserting: bool) -> Set[Vertex]:
        graph = self._graph
        if inserting:
            graph.add_edge(u, v)  # raises EdgeExistsError
        else:
            graph.remove_edge(u, v)  # raises EdgeNotFoundError
        affected = {u, v} | graph.common_neighbors(u, v)
        scores = self._scores
        for p in affected:
            scores[p] = ego_betweenness(graph, p)
        return affected
