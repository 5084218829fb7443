"""Local maintenance of all ego-betweenness values (LocalInsert / LocalDelete).

Observation 1 of the paper: inserting or deleting an edge ``(u, v)`` only
changes the ego-betweenness of ``u``, ``v`` and their common neighbours
``N(u) ∩ N(v)`` — every other ego network is untouched.  The update rules of
Lemmas 4–7 then express the new values as the old values plus per-pair
corrections; each correction is the difference between the pair's
contribution before and after the update, where a pair's contribution is
``1/(S_p(x, y) + 1)`` for a non-adjacent pair and 0 for an adjacent pair.

:class:`EgoBetweennessIndex` implements those rules by evaluating the old and
new contributions of exactly the affected pairs (the same pairs the lemmas
enumerate), which is mathematically identical to applying the lemma deltas
and keeps the implementation robust against sign mistakes.  The affected-pair
enumeration per update touches

* for each endpoint: the pairs among the common neighbours ``L`` plus the
  new/vanishing pairs ``(other endpoint, x)``,
* for each common neighbour ``w``: the pair ``(u, v)`` plus the pairs
  ``(x, u)`` / ``(x, v)`` with ``x ∈ N(w)`` adjacent to the other endpoint,

matching the work bound of the paper's Algorithms 4–5.

Two backends implement the machinery (``backend={"auto", "compact",
"hash"}``, auto = compact):

* **compact** — the default hot path: a
  :class:`~repro.graph.dynamic_csr.DynamicCompactGraph` overlay plus the
  incremental delta kernels of :mod:`repro.core.csr_kernels`, which
  evaluate the affected-pair corrections over dense int ids and packed-int
  pair keys;
* **hash** — the original label-level implementation, kept as the
  bit-identical parity oracle (both backends accumulate contribution sums
  through the same canonical sorted histogram, so the maintained values
  agree exactly, not merely to float noise).

The canonical owner of this index is :class:`repro.session.EgoSession`,
which builds one at its static→dynamic promotion (seeded with the values
the session already computed) and serves ``scores()`` and naive
``top_k`` from it; direct construction remains supported for standalone
use.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.csr_kernels import (
    all_dynamic_ego_scores,
    as_dynamic,
    dynamic_ego_score,
    dynamic_update_corrections,
    normalize_backend,
)
from repro.core.ego_betweenness import (
    _sum_pair_contributions,
    all_ego_betweenness,
    ego_betweenness,
)
from repro.core.topk import top_entries
from repro.errors import EdgeExistsError, EdgeNotFoundError, SelfLoopError
from repro.graph.graph import Graph, Vertex

__all__ = ["EgoBetweennessIndex", "affected_vertices"]


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
        on the mutable CSR overlay with the incremental delta kernels;
        ``"hash"`` forces the label-level oracle.  Both produce bit-identical
        values.
    values:
        Optional precomputed exact ego-betweenness map for ``graph`` (as
        returned by :func:`~repro.core.ego_betweenness.all_ego_betweenness`).
        Skips the initial all-vertex computation; the caller guarantees the
        values match the supplied graph.
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
    >>> abs(index.score(2) - ego_betweenness(index.graph, 2)) < 1e-12
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
            if values is None:
                self._scores: Dict[Vertex, float] = all_dynamic_ego_scores(self._dyn)
            else:
                self._scores = dict(values)
                self._dyn.seed_scores(
                    {self._dyn.id_of(label): value for label, value in values.items()}
                )
        else:
            self._dyn = None
            self._graph = graph if not copy else graph.copy()
            self._scores = dict(values) if values is not None else all_ego_betweenness(self._graph)
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
        """LocalInsert: add edge ``(u, v)`` and patch the affected scores.

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
        """LocalDelete: remove edge ``(u, v)`` and patch the affected scores.

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
    # Compact backend: incremental delta kernels over the CSR overlay
    # ------------------------------------------------------------------
    def _update_compact(self, u: Vertex, v: Vertex, inserting: bool) -> Set[Vertex]:
        dyn = self._dyn
        if inserting:
            if dyn.has_vertex(u) and dyn.has_vertex(v) and dyn.has_edge(u, v):
                raise EdgeExistsError(u, v)
            for endpoint in (u, v):
                if not dyn.has_vertex(endpoint):
                    dyn.add_vertex(endpoint)
                    self._scores[endpoint] = 0.0
        else:
            if not (dyn.has_vertex(u) and dyn.has_vertex(v) and dyn.has_edge(u, v)):
                raise EdgeNotFoundError(u, v)

        uid, vid = dyn.id_of(u), dyn.id_of(v)
        common, deltas = dynamic_update_corrections(dyn, uid, vid, inserting)
        if inserting:
            dyn.insert_edge_ids(uid, vid, common)
        else:
            dyn.delete_edge_ids(uid, vid, common)

        scores = self._scores
        label_of = dyn.label_of
        for pid, delta in deltas.items():
            if delta:
                label = label_of(pid)
                scores[label] = scores.get(label, 0.0) + delta
        return {u, v} | {label_of(w) for w in common}

    # ------------------------------------------------------------------
    # Hash backend (parity oracle)
    # ------------------------------------------------------------------
    def _update_hash(self, u: Vertex, v: Vertex, inserting: bool) -> Set[Vertex]:
        graph = self._graph
        if inserting:
            if graph.has_vertex(u) and graph.has_vertex(v) and graph.has_edge(u, v):
                raise EdgeExistsError(u, v)
            for endpoint in (u, v):
                if not graph.has_vertex(endpoint):
                    graph.add_vertex(endpoint)
                    self._scores[endpoint] = 0.0
        else:
            if not (graph.has_vertex(u) and graph.has_vertex(v) and graph.has_edge(u, v)):
                raise EdgeNotFoundError(u, v)

        common = graph.common_neighbors(u, v)
        affected_pairs = self._collect_affected_pairs(u, v, common)

        old = self._pair_connector_counts(affected_pairs)
        if inserting:
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)
        new = self._pair_connector_counts(affected_pairs)
        self._apply_deltas(old, new)
        return {u, v} | common

    def _collect_affected_pairs(
        self, u: Vertex, v: Vertex, common: Set[Vertex]
    ) -> Dict[Vertex, Set[FrozenSet[Vertex]]]:
        """Enumerate, per affected vertex, the neighbour pairs whose
        contribution the update may change (the pairs of Lemmas 4–7)."""
        graph = self._graph
        pairs: Dict[Vertex, Set[FrozenSet[Vertex]]] = {u: set(), v: set()}

        # Endpoint u (Lemma 4 / 6): pairs among L, plus pairs (v, x).
        common_list = list(common)
        for endpoint, other in ((u, v), (v, u)):
            bucket = pairs[endpoint]
            add = bucket.add
            for i, x in enumerate(common_list):
                for y in common_list[i + 1 :]:
                    add(frozenset((x, y)))
            for x in graph.neighbors(endpoint):
                if x != other:
                    add(frozenset((other, x)))

        # Common neighbours w (Lemma 5 / 7): the pair (u, v), plus pairs
        # (x, v) with x ∈ N(w) ∩ N(u) and pairs (x, u) with x ∈ N(w) ∩ N(v).
        # The endpoint adjacency sets are hoisted out of the loop so the
        # inner test is one set membership instead of a has_edge probe.
        uv_key = frozenset((u, v))
        nbrs_u = graph.neighbors(u)
        nbrs_v = graph.neighbors(v)
        for w in common_list:
            bucket = pairs.setdefault(w, set())
            add = bucket.add
            add(uv_key)
            for x in graph.neighbors(w):
                if x == u or x == v:
                    continue
                if x in nbrs_u:
                    add(frozenset((x, v)))
                if x in nbrs_v:
                    add(frozenset((x, u)))
        return pairs

    def _pair_connector_counts(
        self, affected_pairs: Dict[Vertex, Set[FrozenSet[Vertex]]]
    ) -> Dict[Vertex, Dict[FrozenSet[Vertex], int]]:
        """Evaluate the ``S_p`` connector counts of the affected pairs.

        For each affected vertex ``p`` the result stores, for exactly the
        pairs that currently contribute to ``CB(p)`` (both members in
        ``N(p)``, non-adjacent), the number of connectors ``|N(x) ∩ N(y) ∩
        N(p)|``.  Adjacent or vanished pairs contribute 0 and are omitted —
        this is what makes the before/after difference handle appearing and
        vanishing pairs uniformly.  All neighbour-set lookups are hoisted to
        one dict access per pair member; the inner count iterates the
        smallest of the three sets.
        """
        graph = self._graph
        counts: Dict[Vertex, Dict[FrozenSet[Vertex], int]] = {}
        for p, pair_set in affected_pairs.items():
            neighbors_p = graph.neighbors(p)
            per: Dict[FrozenSet[Vertex], int] = {}
            for pair in pair_set:
                x, y = tuple(pair)
                if x not in neighbors_p or y not in neighbors_p:
                    continue
                nx = graph.neighbors(x)
                if y in nx:
                    continue
                ny = graph.neighbors(y)
                # |N(x) ∩ N(y) ∩ N(p)|; p ∉ N(p), so no explicit p filter.
                a, b, c = sorted((neighbors_p, nx, ny), key=len)
                per[pair] = sum(1 for w in a if w in b and w in c)
            counts[p] = per
        return counts

    def _apply_deltas(
        self,
        old: Dict[Vertex, Dict[FrozenSet[Vertex], int]],
        new: Dict[Vertex, Dict[FrozenSet[Vertex], int]],
    ) -> None:
        """Apply per-vertex corrections via the canonical histogram sums.

        Old and new contribution sums are accumulated in ascending connector
        count order (the same canonical summation the kernels and the
        compact backend use), so both backends patch every score with the
        bit-identical delta.
        """
        scores = self._scores
        for p, old_counts in old.items():
            delta = _sum_pair_contributions(0, new[p].values()) - _sum_pair_contributions(
                0, old_counts.values()
            )
            if delta:
                scores[p] = scores.get(p, 0.0) + delta

    # ------------------------------------------------------------------
    # Verification helper
    # ------------------------------------------------------------------
    def recompute_from_scratch(self, vertices: Iterable[Vertex] | None = None) -> Dict[Vertex, float]:
        """Recompute scores directly from the graph (used by tests)."""
        if self._dyn is not None:
            dyn = self._dyn
            if vertices is None:
                targets = list(dyn.labels)
            else:
                targets = list(vertices)
            return {p: dynamic_ego_score(dyn, dyn.id_of(p)) for p in targets}
        targets = self._graph.vertices() if vertices is None else list(vertices)
        return {p: ego_betweenness(self._graph, p) for p in targets}
