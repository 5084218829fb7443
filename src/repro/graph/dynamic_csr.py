"""Delta-capable CSR overlay for the dynamic-maintenance hot path.

:class:`DynamicCompactGraph` is the mutable twin of the immutable
:class:`~repro.graph.csr.CompactGraph`: it keeps the base CSR snapshot
(``indptr`` / ``indices``) untouched and layers small per-vertex *delta
sets* of inserted and deleted edges on top, so that

* adjacency and intersection queries run on live per-vertex **int sets**
  (C-level ``set`` operations over dense ids — no hashing of arbitrary
  vertex labels),
* rows that no update has touched are still served as contiguous array
  slices straight from the base snapshot,
* once the accumulated deltas grow past a size/ratio gate the overlay
  :meth:`rebuild`\\ s itself into a fresh CSR snapshot, which re-compacts
  every row back to array form and resets the delta tracking.

Vertex ids are dense ``0..n-1`` ints and — crucially for the incremental
kernels — **stable across rebuilds**: new vertices are appended, existing
ids never move, so memoised per-vertex results survive a rebuild (a rebuild
changes the storage layout, never the graph).

The overlay also hosts the memoised per-vertex ego-betweenness scores used
by the incremental maintenance kernels
(:func:`repro.core.csr_kernels.dynamic_ego_score`): an edge update
``(u, v)`` invalidates exactly the entries of ``{u, v} ∪ N(u) ∩ N(v)``
(Observation 1 of the paper) and leaves every other memoised score valid.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro._ordering import sort_key
from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph, Vertex

__all__ = [
    "DynamicCompactGraph",
    "DEFAULT_REBUILD_RATIO",
    "DEFAULT_MIN_REBUILD_DELTAS",
]

#: Fraction of the base edge count the accumulated deltas may reach before
#: the overlay re-compacts itself into a fresh CSR snapshot.
DEFAULT_REBUILD_RATIO = 0.25

#: Floor on the delta count before a rebuild is considered at all — on
#: small graphs the ratio gate alone would trigger a rebuild every few
#: updates, which costs more than it saves.
DEFAULT_MIN_REBUILD_DELTAS = 256


class DynamicCompactGraph:
    """A mutable CSR overlay: base snapshot + per-vertex edge delta sets.

    Parameters
    ----------
    base:
        The immutable CSR snapshot the overlay starts from.  The snapshot is
        never mutated; its per-row neighbour sets are copied once so the
        overlay owns its working adjacency.
    maintain_summaries:
        Whether :func:`~repro.core.csr_kernels.dynamic_ego_score` memoises
        per-vertex ego summaries (the lazy top-k maintainer's mode).

    The overlay re-compacts itself once the delta count reaches
    :data:`DEFAULT_REBUILD_RATIO` of the base edge count, and never before
    :data:`DEFAULT_MIN_REBUILD_DELTAS` deltas.

    Examples
    --------
    >>> g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    >>> dyn = DynamicCompactGraph.from_graph(g)
    >>> sorted(dyn.insert_edge("c", "d"))
    ['c', 'd']
    >>> dyn.num_edges, dyn.delta_records
    (4, 1)
    >>> dyn.to_graph() == Graph(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    True
    >>> dyn.rebuild()
    >>> dyn.delta_records
    0
    """

    __slots__ = (
        "_base",
        "_base_n",
        "_labels",
        "_ids",
        "_label_keys",
        "_degrees",
        "_nbr_sets",
        "_added",
        "_removed",
        "_delta_records",
        "_num_edges",
        "_score_cache",
        "_summaries",
        "_summary_cost",
        "maintain_summaries",
        "_version",
        "rebuilds",
    )

    def __init__(
        self,
        base: CompactGraph,
        maintain_summaries: bool = False,
    ) -> None:
        self._base = base
        self._base_n = base.num_vertices
        self._labels: List[Vertex] = list(base.labels)
        self._ids: Dict[Vertex, int] = {label: i for i, label in enumerate(self._labels)}
        self._label_keys: Dict[Vertex, tuple] = dict(base.label_keys())
        self._degrees: List[int] = list(base.degrees)
        indptr, indices = base.indptr, base.indices
        # Fresh mutable copies — never alias the snapshot's cached sets.
        self._nbr_sets: List[Set[int]] = [
            set(indices[indptr[i] : indptr[i + 1]]) for i in range(self._base_n)
        ]
        self._added: Dict[int, Set[int]] = {}
        self._removed: Dict[int, Set[int]] = {}
        self._delta_records = 0
        self._num_edges = base.num_edges
        # Memoised exact ego-betweenness per id, maintained by
        # repro.core.csr_kernels.dynamic_ego_score; updates invalidate only
        # the affected entries and a rebuild keeps the cache (the graph is
        # unchanged, only its storage is).
        self._score_cache: Dict[int, float] = {}
        # Memoised ego summaries: id -> (edges_in_ego, linker) where
        # ``linker`` maps the sorted pair ``(x, y)`` of non-adjacent
        # neighbours to its in-ego connector count.  All-integer state:
        # every edge update patches the affected entries exactly (see
        # _patch_summaries), so the canonical float score re-derived from a
        # patched summary is bit-identical to a fresh enumeration.  Entries
        # are created by dynamic_ego_score when ``maintain_summaries`` is
        # set (the lazy maintainer's mode); patching always honours
        # whatever entries exist.
        self._summaries: Dict[int, Tuple[int, Dict[Tuple[int, int], int]]] = {}
        self._summary_cost = 0
        self.maintain_summaries = maintain_summaries
        self._version = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicCompactGraph":
        """Build an overlay from a hash-set :class:`Graph` (one conversion)."""
        return cls(CompactGraph.from_graph(graph))

    def to_graph(self) -> Graph:
        """Materialise the *current* state as a hash-set :class:`Graph`."""
        labels = self._labels
        graph = Graph(vertices=labels)
        for u, nbrs in enumerate(self._nbr_sets):
            lu = labels[u]
            for v in nbrs:
                if u < v:
                    graph.add_edge(lu, labels[v])
        return graph

    def snapshot(self) -> CompactGraph:
        """Return an immutable CSR snapshot of the current state.

        When no deltas have accumulated this is the base snapshot itself
        (free); otherwise fresh CSR arrays are compacted from the live
        neighbour sets.  Ids and labels are preserved either way, so results
        computed against the snapshot map 1:1 onto the overlay.
        """
        if self._delta_records == 0 and len(self._labels) == self._base_n:
            return self._base
        indptr = [0]
        indices: List[int] = []
        for nbrs in self._nbr_sets:
            indices.extend(sorted(nbrs))
            indptr.append(len(indices))
        return CompactGraph(self._labels, indptr, indices)

    def rebuild(self) -> None:
        """Re-compact the overlay into a fresh base CSR snapshot.

        The graph itself is unchanged — only the storage layout: every row
        becomes a contiguous sorted array slice again, the delta sets are
        cleared and the memoised ego scores survive.
        """
        self._base = self.snapshot()
        self._base_n = len(self._labels)
        self._added = {}
        self._removed = {}
        self._delta_records = 0
        self.rebuilds += 1

    def _maybe_rebuild(self) -> None:
        threshold = max(
            DEFAULT_MIN_REBUILD_DELTAS,
            int(DEFAULT_REBUILD_RATIO * max(self._base.num_edges, 1)),
        )
        if self._delta_records >= threshold:
            self.rebuild()

    # ------------------------------------------------------------------
    # Size / label queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (base ± deltas)."""
        return self._num_edges

    @property
    def delta_records(self) -> int:
        """Number of edges on which the overlay diverges from its base."""
        return self._delta_records

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation (cache-keying aid)."""
        return self._version

    @property
    def base(self) -> CompactGraph:
        """The current immutable base snapshot (pre-delta state)."""
        return self._base

    @property
    def labels(self) -> List[Vertex]:
        """The id → original-label table (do not mutate)."""
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicCompactGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"deltas={self._delta_records})"
        )

    def id_of(self, vertex: Vertex) -> int:
        """Return the dense id of ``vertex`` (raises if absent)."""
        try:
            return self._ids[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def label_of(self, vertex_id: int) -> Vertex:
        """Return the original label of dense id ``vertex_id``."""
        return self._labels[vertex_id]

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` when the label ``vertex`` is present."""
        return vertex in self._ids

    def label_keys(self) -> Dict[Vertex, tuple]:
        """Every label's :func:`~repro._ordering.sort_key` (top-k tie-breaking)."""
        return self._label_keys

    # ------------------------------------------------------------------
    # Adjacency queries (id based)
    # ------------------------------------------------------------------
    def degree(self, vertex_id: int) -> int:
        """Return ``d(vertex_id)``."""
        return self._degrees[vertex_id]

    def degrees_by_label(self) -> Dict[Vertex, int]:
        """Return the ``label -> degree`` mapping."""
        degrees = self._degrees
        return {label: degrees[i] for i, label in enumerate(self._labels)}

    def neighbor_set(self, vertex_id: int) -> Set[int]:
        """Return the live neighbour-id set of ``vertex_id`` (do not mutate)."""
        return self._nbr_sets[vertex_id]

    def neighbor_sets(self) -> List[Set[int]]:
        """Return the per-vertex neighbour-id sets (live — do not mutate)."""
        return self._nbr_sets

    def neighbor_ids(self, vertex_id: int) -> List[int]:
        """Return the sorted neighbour ids of ``vertex_id``.

        Rows untouched since the last rebuild come straight from the base
        CSR arrays (an array slice); dirty rows are sorted from the live
        set.
        """
        if (
            vertex_id < self._base_n
            and not self._added.get(vertex_id)
            and not self._removed.get(vertex_id)
        ):
            start, end = self._base.neighbor_range(vertex_id)
            return self._base.indices[start:end]
        return sorted(self._nbr_sets[vertex_id])

    def has_edge_ids(self, u: int, v: int) -> bool:
        """Return ``True`` when the edge ``(u, v)`` currently exists."""
        return v in self._nbr_sets[u]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Label-level edge query (``False`` when either label is absent)."""
        iu = self._ids.get(u)
        iv = self._ids.get(v)
        if iu is None or iv is None:
            return False
        return iv in self._nbr_sets[iu]

    def common_neighbor_ids(self, u: int, v: int) -> Set[int]:
        """Return ``N(u) ∩ N(v)`` as a set of ids (one C-level intersection)."""
        a, b = self._nbr_sets[u], self._nbr_sets[v]
        if len(a) > len(b):
            a, b = b, a
        return a & b

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, label: Vertex) -> int:
        """Add an isolated vertex (no-op when present); return its id."""
        existing = self._ids.get(label)
        if existing is not None:
            return existing
        vid = len(self._labels)
        self._labels.append(label)
        self._ids[label] = vid
        self._label_keys[label] = sort_key(label)
        self._degrees.append(0)
        self._nbr_sets.append(set())
        self._version += 1
        return vid

    def insert_edge_ids(self, u: int, v: int, common: Optional[Set[int]] = None) -> Set[int]:
        """Insert the edge ``(u, v)`` (ids); return ``N(u) ∩ N(v)``.

        The returned common-neighbour set is exactly the rest of the
        Observation-1 affected set ``{u, v} ∪ N(u) ∩ N(v)`` — computed
        anyway for score-cache invalidation, so callers get it for free
        (or may pass it in via ``common`` when they already hold it).
        """
        if u == v:
            raise SelfLoopError(self._labels[u])
        nbr_u = self._nbr_sets[u]
        nbr_v = self._nbr_sets[v]
        if v in nbr_u:
            raise EdgeExistsError(self._labels[u], self._labels[v])
        if common is None:
            common = nbr_u & nbr_v if len(nbr_u) <= len(nbr_v) else nbr_v & nbr_u
        if self._summaries:
            self._patch_summaries(u, v, common, inserting=True)
        nbr_u.add(v)
        nbr_v.add(u)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._num_edges += 1
        self._record_delta(u, v, inserting=True)
        self._invalidate(u, v, common)
        self._maybe_rebuild()
        return common

    def delete_edge_ids(self, u: int, v: int, common: Optional[Set[int]] = None) -> Set[int]:
        """Delete the edge ``(u, v)`` (ids); return ``N(u) ∩ N(v)``."""
        nbr_u = self._nbr_sets[u]
        nbr_v = self._nbr_sets[v]
        if v not in nbr_u:
            raise EdgeNotFoundError(self._labels[u], self._labels[v])
        if common is None:
            common = nbr_u & nbr_v if len(nbr_u) <= len(nbr_v) else nbr_v & nbr_u
        if self._summaries:
            self._patch_summaries(u, v, common, inserting=False)
        nbr_u.discard(v)
        nbr_v.discard(u)
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._num_edges -= 1
        self._record_delta(u, v, inserting=False)
        self._invalidate(u, v, common)
        self._maybe_rebuild()
        return common

    def insert_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Label-level insert (endpoints auto-added); return affected labels.

        The returned set is Observation 1's ``{u, v} ∪ N(u) ∩ N(v)``.
        """
        if u == v:
            raise SelfLoopError(u)
        iu = self.add_vertex(u)
        iv = self.add_vertex(v)
        common = self.insert_edge_ids(iu, iv)
        labels = self._labels
        return {u, v} | {labels[w] for w in common}

    def delete_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Label-level delete; return the affected labels (Observation 1)."""
        iu = self._ids.get(u)
        iv = self._ids.get(v)
        if iu is None or iv is None:
            raise EdgeNotFoundError(u, v)
        common = self.delete_edge_ids(iu, iv)
        labels = self._labels
        return {u, v} | {labels[w] for w in common}

    # ------------------------------------------------------------------
    # Memoised ego scores
    # ------------------------------------------------------------------
    def seed_scores(self, scores: Dict[int, float]) -> None:
        """Prime the memoised ego-score cache with known-exact values."""
        self._score_cache.update(scores)

    def cached_score_ids(self) -> Set[int]:
        """Return the ids whose memoised ego score is currently valid."""
        return set(self._score_cache)

    def _invalidate(self, u: int, v: int, common: Iterable[int]) -> None:
        """Drop the memoised scores of the Observation-1 affected set."""
        self._version += 1
        cache = self._score_cache
        if not cache:
            return
        cache.pop(u, None)
        cache.pop(v, None)
        for w in common:
            cache.pop(w, None)

    # ------------------------------------------------------------------
    # Incremental ego-summary patching (exact integer state)
    # ------------------------------------------------------------------
    def _patch_summaries(
        self, u: int, v: int, common: Set[int], inserting: bool
    ) -> None:
        """Patch the memoised ego summaries of the affected vertices.

        Called *before* the adjacency sets change, with ``common`` the
        pre-update ``N(u) ∩ N(v)``.  Applies the Lemma 4–7 case analysis as
        exact integer edits to each affected vertex's ``(edges_in_ego,
        linker)`` summary, so a summary stays equal — key for key, count
        for count — to what a fresh enumeration of the post-update ego
        network would produce:

        * endpoint ``e``: the other endpoint ``o`` joins/leaves ``N(e)``;
          the pairs ``(o, x)`` appear with connector count
          ``|common ∩ N(x)|`` (or vanish), the adjacent ones — ``x ∈
          common`` — move ``edges_in_ego`` by ``|common|``, and every
          non-adjacent pair inside ``common`` gains/loses the connector
          ``o``;
        * common neighbour ``w``: the pair ``(u, v)`` flips between edge
          and non-adjacent pair (count ``|common ∩ N(w)|``), and the pairs
          ``(x, v)`` / ``(x, u)`` with ``x`` adjacent to the other endpoint
          gain/lose the connector ``u`` / ``v``.

        When ``common`` is empty every case degenerates to a no-op for the
        common-neighbour loop and to pure pair-appearance/vanishing with
        zero connectors for the endpoints — no stored state changes at all.
        """
        summaries = self._summaries
        nbr_sets = self._nbr_sets
        nbr_u, nbr_v = nbr_sets[u], nbr_sets[v]
        common_list = list(common) if common else ()
        cost = self._summary_cost

        # Endpoints (Lemmas 4 and 6).
        for e, o, ne in ((u, v, nbr_u), (v, u, nbr_v)):
            entry = summaries.get(e)
            if entry is None:
                continue
            edges, linker = entry
            for i, x in enumerate(common_list):
                sx = nbr_sets[x]
                for y in common_list[i + 1 :]:
                    if y in sx:
                        continue
                    key = (x, y) if x < y else (y, x)
                    if inserting:
                        count = linker.get(key, 0)
                        if count == 0:
                            cost += 1
                        linker[key] = count + 1
                    else:
                        count = linker[key]  # >= 1: o is a connector
                        if count == 1:
                            del linker[key]
                            cost -= 1
                        else:
                            linker[key] = count - 1
            if common:
                if inserting:
                    for x in ne:
                        if x in common:
                            continue
                        count = len(common & nbr_sets[x])
                        if count:
                            linker[(o, x) if o < x else (x, o)] = count
                            cost += 1
                    summaries[e] = (edges + len(common), linker)
                else:
                    pop = linker.pop
                    for x in ne:
                        if x == o or x in common:
                            continue
                        if pop((o, x) if o < x else (x, o), None) is not None:
                            cost -= 1
                    summaries[e] = (edges - len(common), linker)

        # Common neighbours (Lemmas 5 and 7).
        if not common:
            self._summary_cost = cost
            return
        uv_key = (u, v) if u < v else (v, u)
        for w in common_list:
            entry = summaries.get(w)
            if entry is None:
                continue
            edges, linker = entry
            nw = nbr_sets[w]
            if inserting:
                if linker.pop(uv_key, None) is not None:
                    cost -= 1  # present iff |common ∩ N(w)| > 0
                edges += 1
            else:
                count = len(common & nw)
                if count:
                    linker[uv_key] = count
                    cost += 1
                edges -= 1
            cw_u = nw & nbr_u if len(nw) <= len(nbr_u) else nbr_u & nw
            cw_v = nw & nbr_v if len(nw) <= len(nbr_v) else nbr_v & nw
            for members, anchor_set, other in ((cw_u, nbr_v, v), (cw_v, nbr_u, u)):
                for x in members:
                    if x == u or x == v or x in anchor_set:
                        continue
                    key = (x, other) if x < other else (other, x)
                    if inserting:
                        count = linker.get(key, 0)
                        if count == 0:
                            cost += 1
                        linker[key] = count + 1
                    else:
                        count = linker[key]  # >= 1: the other endpoint connects
                        if count == 1:
                            del linker[key]
                            cost -= 1
                        else:
                            linker[key] = count - 1
            summaries[w] = (edges, linker)
        self._summary_cost = cost

    # ------------------------------------------------------------------
    # Delta bookkeeping
    # ------------------------------------------------------------------
    def _record_delta(self, u: int, v: int, inserting: bool) -> None:
        """Track the divergence of the edge ``(u, v)`` from the base snapshot.

        Re-inserting a delta-deleted edge (or deleting a delta-inserted one)
        cancels the record instead of stacking a second one, so
        ``delta_records`` always counts the edges on which the overlay and
        its base actually differ.
        """
        cancel, record = (self._removed, self._added) if inserting else (self._added, self._removed)
        pending = cancel.get(u)
        if pending is not None and v in pending:
            pending.discard(v)
            cancel[v].discard(u)
            self._delta_records -= 1
            return
        record.setdefault(u, set()).add(v)
        record.setdefault(v, set()).add(u)
        self._delta_records += 1
