"""The mutable CSR overlay: one dynamic graph state per owner.

:class:`DynamicCompactGraph` is the mutable twin of the immutable
:class:`~repro.graph.csr.CompactGraph`.  It copies each row of a CSR
snapshot into a live per-vertex **int set** once, at construction, so
adjacency and intersection queries run as C-level ``set`` operations over
dense ids (no hashing of arbitrary vertex labels), and an update changes
two sets.  :meth:`~DynamicCompactGraph.snapshot` compacts the sets back
into CSR arrays once per :attr:`~DynamicCompactGraph.version`: until the
first mutation it returns the construction snapshot itself, for free.

Vertex ids are dense ``0..n-1`` ints and stable: new vertices are
appended, existing ids never move, so a snapshot's ids map 1:1 onto the
overlay.

The overlay also holds the dynamic maintainers' exact state: one
connector-count histogram per vertex (``{count: non-adjacent pairs}``,
count 0 being the lonely pairs).  Every histogram is seeded at
construction from one kernel sweep of the base snapshot
(:meth:`repro.core.csr_kernels.CSRChunkKernel.histogram_chunk`), and a
vertex added later starts empty.  An edge update ``(u, v)`` changes only
the histograms of ``{u, v} ∪ N(u) ∩ N(v)`` (Observation 1 of the paper),
and :meth:`DynamicCompactGraph._patch_histograms` moves exactly the pairs
Lemmas 4–7 name between buckets, so every histogram stays equal to a
fresh enumeration of its ego network; a score is a re-sum of it
(:func:`repro.core.csr_kernels.dynamic_ego_score`).  One overlay serves
every maintainer of a session: it is patched once per update, and the
exact index and each lazy top-k maintainer then re-sum what they need.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro._ordering import sort_key
from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph, Vertex

__all__ = ["DynamicCompactGraph"]


class DynamicCompactGraph:
    """A mutable CSR overlay: live per-vertex neighbour sets over dense ids.

    Parameters
    ----------
    base:
        The immutable CSR snapshot the overlay starts from.  The snapshot is
        never mutated; its rows are copied once into the overlay's own
        neighbour sets, and it is what :meth:`snapshot` returns until the
        first mutation.
    histograms:
        The connector-count histogram of every id of ``base``, as
        :meth:`~repro.core.csr_kernels.CSRChunkKernel.histogram_chunk`
        returns them; the overlay adopts them.  Swept from ``base`` when
        omitted.

    Attributes
    ----------
    compactions:
        Snapshots compacted from the live sets so far (at most one per
        :attr:`version`).

    Examples
    --------
    >>> g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    >>> dyn = DynamicCompactGraph.from_graph(g)
    >>> base = dyn.snapshot()
    >>> sorted(dyn.insert_edge("c", "d"))
    ['c', 'd']
    >>> dyn.to_graph() == Graph(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    True
    >>> snap = dyn.snapshot()
    >>> snap is base, snap is dyn.snapshot(), snap.num_edges, dyn.compactions
    (False, True, 4, 1)
    """

    __slots__ = (
        "_labels",
        "_ids",
        "_label_keys",
        "_degrees",
        "_nbr_sets",
        "_num_edges",
        "_hists",
        "_version",
        "_snapshot",
        "compactions",
    )

    def __init__(
        self, base: CompactGraph, histograms: Optional[Dict[int, Dict[int, int]]] = None
    ) -> None:
        n = base.num_vertices
        self._labels: List[Vertex] = list(base.labels)
        self._ids: Dict[Vertex, int] = {label: i for i, label in enumerate(self._labels)}
        self._label_keys: Dict[Vertex, tuple] = dict(base.label_keys())
        self._degrees: List[int] = list(base.degrees)
        indptr, indices = base.indptr, base.indices
        # Fresh mutable copies — never alias the snapshot's cached sets.
        self._nbr_sets: List[Set[int]] = [
            set(indices[indptr[i] : indptr[i + 1]]) for i in range(n)
        ]
        self._num_edges = base.num_edges
        # Connector-count histogram per id (see _patch_histograms).
        if histograms is None:
            from repro.core.csr_kernels import CSRChunkKernel

            histograms = CSRChunkKernel.for_compact(base).histogram_chunk(range(n))
        self._hists: List[Dict[int, int]] = [histograms[i] for i in range(n)]
        self._version = 0
        # (version, snapshot): the construction snapshot serves version 0.
        self._snapshot: Tuple[int, CompactGraph] = (0, base)
        self.compactions = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicCompactGraph":
        """Build an overlay from a hash-set :class:`Graph` (one conversion)."""
        return cls(CompactGraph.from_graph(graph))

    def to_graph(self) -> Graph:
        """Materialise the *current* state as an independent :class:`Graph`."""
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

        Memoised per :attr:`version`: every caller between two mutations
        receives the same object, and before the first mutation that is
        the construction snapshot (free).  Otherwise fresh CSR arrays are
        compacted from the live neighbour sets.  Ids and labels are
        preserved, so results computed against the snapshot map 1:1 onto
        the overlay.
        """
        version, snapshot = self._snapshot
        if version != self._version:
            indptr = [0]
            indices: List[int] = []
            for nbrs in self._nbr_sets:
                indices.extend(sorted(nbrs))
                indptr.append(len(indices))
            snapshot = CompactGraph(self._labels, indptr, indices)
            self._snapshot = (self._version, snapshot)
            self.compactions += 1
        return snapshot

    # ------------------------------------------------------------------
    # Size / label queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation (cache-keying aid)."""
        return self._version

    @property
    def labels(self) -> List[Vertex]:
        """The id → original-label table (do not mutate)."""
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicCompactGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"version={self._version})"
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

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Label-level edge query (``False`` when either label is absent)."""
        iu = self._ids.get(u)
        iv = self._ids.get(v)
        if iu is None or iv is None:
            return False
        return iv in self._nbr_sets[iu]

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
        self._hists.append({})
        self._version += 1
        return vid

    def insert_edge_ids(self, u: int, v: int) -> Set[int]:
        """Insert the edge ``(u, v)`` (ids); return ``N(u) ∩ N(v)``.

        The returned common-neighbour set is exactly the rest of the
        Observation-1 affected set ``{u, v} ∪ N(u) ∩ N(v)`` — computed
        anyway for the histogram patch, so callers get it for free.
        """
        if u == v:
            raise SelfLoopError(self._labels[u])
        nbr_u = self._nbr_sets[u]
        nbr_v = self._nbr_sets[v]
        if v in nbr_u:
            raise EdgeExistsError(self._labels[u], self._labels[v])
        common = nbr_u & nbr_v
        self._patch_histograms(u, v, common, inserting=True)
        nbr_u.add(v)
        nbr_v.add(u)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._num_edges += 1
        self._version += 1
        return common

    def delete_edge_ids(self, u: int, v: int) -> Set[int]:
        """Delete the edge ``(u, v)`` (ids); return ``N(u) ∩ N(v)``."""
        nbr_u = self._nbr_sets[u]
        nbr_v = self._nbr_sets[v]
        if v not in nbr_u:
            raise EdgeNotFoundError(self._labels[u], self._labels[v])
        common = nbr_u & nbr_v
        self._patch_histograms(u, v, common, inserting=False)
        nbr_u.discard(v)
        nbr_v.discard(u)
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._num_edges -= 1
        self._version += 1
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
    # Connector-count histograms (exact integer state, Lemmas 4–7)
    # ------------------------------------------------------------------
    def _patch_histograms(
        self, u: int, v: int, common: Set[int], inserting: bool
    ) -> None:
        """Move the affected pairs of the held histograms to their new counts.

        Called *before* the adjacency sets change, with ``common`` the
        pre-update ``L = N(u) ∩ N(v)``.  The Lemma 4–7 closed form, with
        every set read from the current state:

        * endpoint ``e`` (other endpoint ``o``), non-adjacent pairs among
          ``L``: ``o`` joins/leaves their connectors, so each count moves
          by ±1 — one triple intersection gives the old count;
        * endpoint ``e``, pairs ``(o, x)`` with ``x ∈ N(e) \\ L``: they
          exist only with the edge, with count ``|L ∩ N(x)|`` (all 0 when
          ``L`` is empty, one bulk move of the lonely bucket);
        * common neighbour ``w``, pair ``(u, v)``: non-adjacent only
          without the edge, with count ``|L ∩ N(w)|``;
        * common neighbour ``w``, pairs ``(x, v)`` / ``(x, u)`` with ``x``
          in ``N(w) ∩ N(u)`` / ``N(w) ∩ N(v)`` and not adjacent to the
          other endpoint: that endpoint joins/leaves their connectors (±1).

        A patched histogram equals a fresh enumeration's key for key, so
        the score re-summed from it is bit-identical to a recomputation.
        """
        hists = self._hists
        nbr_sets = self._nbr_sets
        nu, nv = nbr_sets[u], nbr_sets[v]
        shift = 1 if inserting else -1
        common_list = list(common)

        # Endpoints (Lemmas 4 and 6).
        for e, o in ((u, v), (v, u)):
            hist = hists[e]
            ne = nbr_sets[e]
            for i, x in enumerate(common_list):
                sx = nbr_sets[x]
                for y in common_list[i + 1 :]:
                    if y not in sx:
                        count = _intersection_size(sx, nbr_sets[y], ne)
                        _bump(hist, count, -1)
                        _bump(hist, count + shift, 1)
            if not common:
                _bump(hist, 0, len(ne) if inserting else 1 - len(ne))
                continue
            for x in ne:
                if x != o and x not in common:
                    _bump(hist, len(common & nbr_sets[x]), shift)

        # Common neighbours (Lemmas 5 and 7).
        for w in common_list:
            hist = hists[w]
            nw = nbr_sets[w]
            _bump(hist, len(common & nw), -shift)
            cw_u = nw & nu
            cw_v = nw & nv
            for members, anchor, other_side in ((cw_u, nv, cw_v), (cw_v, nu, cw_u)):
                for x in members:
                    if x == u or x == v or x in anchor:
                        continue
                    count = len(other_side & nbr_sets[x])
                    _bump(hist, count, -1)
                    _bump(hist, count + shift, 1)


def _intersection_size(a: Set[int], b: Set[int], c: Set[int]) -> int:
    """Return ``|a ∩ b ∩ c|``, intersecting the two smallest sets first."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) > len(c):
        a, c = c, a
    joint = a & b
    return len(joint & c) if joint else 0


def _bump(hist: Dict[int, int], count: int, by: int) -> None:
    """Add ``by`` pairs to bucket ``count``, dropping a bucket that empties."""
    total = hist.get(count, 0) + by
    if total:
        hist[count] = total
    else:
        hist.pop(count, None)
