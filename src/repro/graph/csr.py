"""Compact CSR (compressed-sparse-row) graph backend.

:class:`CompactGraph` is the read-only fast twin of the hash-set
:class:`~repro.graph.graph.Graph`.  Vertices are relabelled to dense
``0..n-1`` integers (insertion order of the source graph, with a stable
id ↔ label mapping) and the adjacency is stored as two flat arrays::

    indices[indptr[v] : indptr[v + 1]]   # sorted neighbour ids of v

plus a degree array and a cached static-bound processing order for the
top-k searches.  Everything the hot kernels need — adjacency membership,
sorted-merge / galloping intersection, ego slicing — becomes integer
arithmetic over contiguous ``array`` storage instead of hashing arbitrary
Python objects, which is what makes the CSR top-k search several times
faster than the hash-set oracle.

The class is deliberately immutable: the dynamic-maintenance algorithms of
Section IV keep operating on :class:`Graph`, and callers convert once up
front via :meth:`Graph.to_compact` / :meth:`CompactGraph.from_graph` before
entering a read-only hot path.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._ordering import sort_key
from repro.errors import VertexNotFoundError
from repro.graph.graph import Edge, Graph, Vertex

__all__ = [
    "CompactGraph",
    "intersect_sorted",
    "intersect_size_sorted",
    "gallop_intersect_size",
    "DENSE_ADJACENCY_VERTEX_LIMIT",
]

#: Largest vertex count for which the O(n^2)-byte dense adjacency bitmap is
#: built (4096 -> at most 16 MiB).  Larger graphs use the neighbour-set
#: probe instead.
DENSE_ADJACENCY_VERTEX_LIMIT = 4096


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Return the sorted intersection of two sorted int sequences (merge scan).

    Examples
    --------
    >>> intersect_sorted([1, 3, 5, 9], [2, 3, 4, 5])
    [3, 5]
    """
    out: List[int] = []
    i, j = 0, 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def intersect_size_sorted(a: Sequence[int], b: Sequence[int]) -> int:
    """Return ``|a ∩ b|`` for two sorted int sequences via a linear merge.

    Examples
    --------
    >>> intersect_size_sorted([1, 3, 5, 9], [2, 3, 4, 5])
    2
    """
    count = 0
    i, j = 0, 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            count += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return count


def gallop_intersect_size(small: Sequence[int], large: Sequence[int]) -> int:
    """Return ``|small ∩ large|`` by galloping (binary) search into ``large``.

    Preferable to the linear merge when ``len(large) >> len(small)`` — the
    cost is ``O(|small| · log |large|)`` instead of ``O(|small| + |large|)``.

    Examples
    --------
    >>> gallop_intersect_size([3, 50], list(range(0, 100, 2)))
    1
    """
    count = 0
    lo = 0
    hi = len(large)
    for x in small:
        lo = bisect_left(large, x, lo, hi)
        if lo == hi:
            break
        if large[lo] == x:
            count += 1
            lo += 1
    return count


class CompactGraph:
    """Immutable CSR snapshot of an undirected simple graph.

    Parameters
    ----------
    labels:
        The original vertex labels; position = dense vertex id.
    indptr:
        Row-offset array of length ``n + 1``.
    indices:
        Concatenated, per-row sorted neighbour-id array of length ``2m``.

    Examples
    --------
    >>> g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    >>> cg = CompactGraph.from_graph(g)
    >>> cg.num_vertices, cg.num_edges
    (3, 3)
    >>> cg.label_of(cg.id_of("b"))
    'b'
    >>> list(cg.neighbor_ids(cg.id_of("a"))) == sorted(
    ...     [cg.id_of("b"), cg.id_of("c")])
    True
    """

    __slots__ = (
        "_labels",
        "_ids",
        "indptr",
        "indices",
        "degrees",
        "_bound_order",
        "_tie_keys",
        "_label_keys",
        "_nbr_sets",
        "_dense_adj",
        "_dense_adj_built",
        "_ego_cache",
        "_ego_cache_cost",
    )

    def __init__(
        self, labels: Sequence[Vertex], indptr: Sequence[int], indices: Sequence[int]
    ) -> None:
        self._labels: List[Vertex] = list(labels)
        self._ids: Dict[Vertex, int] = {label: i for i, label in enumerate(self._labels)}
        # Plain lists index and slice measurably faster than typed arrays in
        # CPython, and the kernels are index/slice bound; arrays() rebuilds
        # the typed form when a compact pickle payload is needed.
        self.indptr: List[int] = list(indptr)
        self.indices: List[int] = list(indices)
        self.degrees: List[int] = [
            self.indptr[i + 1] - self.indptr[i] for i in range(len(self._labels))
        ]
        self._bound_order: Optional[List[int]] = None
        self._tie_keys: Optional[List[tuple]] = None
        self._label_keys: Optional[Dict[Vertex, tuple]] = None
        self._nbr_sets: Optional[List[set]] = None
        self._dense_adj: Optional[bytearray] = None
        self._dense_adj_built = False
        # Per-vertex ego summaries memoised by the search kernels (see
        # repro.core.csr_kernels._ego_summary), plus the accumulated size
        # (in stored ints) used to budget the cache.  Safe because the
        # snapshot is immutable; dynamic updates go through Graph and
        # re-convert.
        self._ego_cache: Dict[int, tuple] = {}
        self._ego_cache_cost = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CompactGraph":
        """Build a CSR snapshot of ``graph`` (labels keep insertion order)."""
        labels = graph.vertices()
        ids = {label: i for i, label in enumerate(labels)}
        indptr = [0]
        indices: List[int] = []
        for label in labels:
            row = sorted(ids[w] for w in graph.neighbors(label))
            indices.extend(row)
            indptr.append(len(indices))
        return cls(labels, indptr, indices)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "CompactGraph":
        """Build a CSR graph from an edge list (duplicates ignored)."""
        return cls.from_graph(Graph(edges=edges, vertices=vertices))

    def to_graph(self) -> Graph:
        """Materialise an equivalent mutable hash-set :class:`Graph`."""
        graph = Graph(vertices=self._labels)
        labels = self._labels
        indptr, indices = self.indptr, self.indices
        for u in range(len(labels)):
            for pos in range(indptr[u], indptr[u + 1]):
                v = indices[pos]
                if u < v:
                    graph.add_edge(labels[u], labels[v])
        return graph

    # ------------------------------------------------------------------
    # Size and label queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return len(self.indices) // 2

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactGraph(n={self.num_vertices}, m={self.num_edges})"

    @property
    def labels(self) -> List[Vertex]:
        """The id → original-label table (do not mutate)."""
        return self._labels

    def id_of(self, vertex: Vertex) -> int:
        """Return the dense id of ``vertex``.

        Raises
        ------
        VertexNotFoundError
            If the vertex is not part of the snapshot.
        """
        try:
            return self._ids[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def label_of(self, vertex_id: int) -> Vertex:
        """Return the original label of dense id ``vertex_id``."""
        return self._labels[vertex_id]

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` when the original label ``vertex`` is present."""
        return vertex in self._ids

    # ------------------------------------------------------------------
    # Degree and adjacency queries (id based)
    # ------------------------------------------------------------------
    def degree(self, vertex_id: int) -> int:
        """Return ``d(vertex_id)``."""
        return self.degrees[vertex_id]

    def max_degree(self) -> int:
        """Return ``d_max`` (0 for the empty graph)."""
        return max(self.degrees, default=0)

    def degrees_by_label(self) -> Dict[Vertex, int]:
        """Return the ``label -> degree`` mapping (hash-``Graph`` shaped)."""
        degrees = self.degrees
        return {label: degrees[i] for i, label in enumerate(self._labels)}

    def neighbor_range(self, vertex_id: int) -> Tuple[int, int]:
        """Return the ``[start, end)`` slice of ``indices`` for a vertex."""
        return self.indptr[vertex_id], self.indptr[vertex_id + 1]

    def neighbor_ids(self, vertex_id: int) -> List[int]:
        """Return the sorted neighbour ids of ``vertex_id`` (a fresh list)."""
        start, end = self.neighbor_range(vertex_id)
        return self.indices[start:end]

    def has_edge_ids(self, u: int, v: int) -> bool:
        """Return ``True`` when the edge ``(u, v)`` exists (O(log min-degree)).

        The probe binary-searches the smaller adjacency row.
        """
        if self.degrees[u] > self.degrees[v]:
            u, v = v, u
        start, end = self.indptr[u], self.indptr[u + 1]
        pos = bisect_left(self.indices, v, start, end)
        return pos < end and self.indices[pos] == v

    def common_neighbor_count(self, u: int, v: int) -> int:
        """Return ``|N(u) ∩ N(v)|`` using merge or galloping intersection.

        The galloping variant is selected when the degree ratio is large
        enough that ``O(d_small · log d_large)`` beats the linear merge.
        """
        du, dv = self.degrees[u], self.degrees[v]
        if du > dv:
            u, v = v, u
            du, dv = dv, du
        a = self.neighbor_ids(u)
        b = self.neighbor_ids(v)
        if du == 0:
            return 0
        if dv > 8 * du:
            return gallop_intersect_size(a, b)
        return intersect_size_sorted(a, b)

    # ------------------------------------------------------------------
    # Orderings and worker payloads
    # ------------------------------------------------------------------
    def bound_order(self) -> List[int]:
        """Return vertex ids sorted by non-increasing static bound (cached).

        Ties are broken by ascending label sort key — the exact pop order of
        OptBSearch's max-heap over the initial static bounds, and the visit
        order of BaseBSearch.  (Sorting by the bound, not the degree:
        degrees 0 and 1 share the bound 0.0, so they tie with each other in
        the heap.)  Having this precomputed lets the CSR search stream
        static candidates lazily and only heap-manage the few re-pushed
        vertices.
        """
        if self._bound_order is None:
            degrees = self.degrees
            ties = self.tie_keys()
            self._bound_order = sorted(
                range(len(degrees)),
                key=lambda v: (-(degrees[v] * (degrees[v] - 1) / 2.0), ties[v]),
            )
        return self._bound_order

    def neighbor_sets(self) -> List[set]:
        """Return the per-vertex neighbour-id sets (lazily built, cached).

        A derived acceleration structure over the CSR arrays: the wedge
        kernels restrict each neighbour's adjacency to an ego via one
        C-level ``set.intersection`` and probe adjacency via ``in`` against
        these sets, which beats any per-element Python loop.  Costs
        ``O(n + 2m)`` extra memory; built on first use only.
        """
        if self._nbr_sets is None:
            indptr, indices = self.indptr, self.indices
            self._nbr_sets = [
                set(indices[indptr[i] : indptr[i + 1]]) for i in range(len(self._labels))
            ]
        return self._nbr_sets

    def dense_adjacency(self) -> Optional[bytearray]:
        """Return the flat ``n × n`` adjacency bitmap, or ``None`` if too big.

        Built lazily (and cached) only when
        ``n <= DENSE_ADJACENCY_VERTEX_LIMIT``: ``dense[u * n + v]`` is 1 iff
        the edge ``(u, v)`` exists.  The wedge kernels exploit that their
        packed pair key ``x * n + y`` is exactly this probe index, turning
        the adjacency test into a single byte load.
        """
        if not self._dense_adj_built:
            self._dense_adj_built = True
            # One bitmap builder for parent snapshots and parallel workers
            # alike (imported lazily: csr_kernels imports this module).
            from repro.core.csr_kernels import build_dense_adjacency

            self._dense_adj = build_dense_adjacency(self.indptr, self.indices)
        return self._dense_adj

    def arrays(self) -> Tuple[array, array]:
        """Return ``(indptr, indices)`` — the cheap picklable worker payload.

        Parallel workers receive these two flat typed arrays instead of a
        rebuilt adjacency dictionary, which shrinks both pickling time and
        payload size (two ``array('l')`` buffers versus ``n`` Python sets).
        """
        return array("l", self.indptr), array("l", self.indices)

    def tie_keys(self) -> List[tuple]:
        """Return the per-id deterministic sort keys of the labels (cached).

        They equal :func:`repro._ordering.sort_key` on the original labels:
        the tie-breakers of the top-k order, precomputed once per snapshot
        for the searches and the full-map ranking.
        """
        if self._tie_keys is None:
            self._tie_keys = [sort_key(label) for label in self._labels]
        return self._tie_keys

    def label_keys(self) -> Dict[Vertex, tuple]:
        """Return :meth:`tie_keys` keyed by label (cached).

        Ranking a label-keyed score map looks its tied vertices up here.
        """
        if self._label_keys is None:
            self._label_keys = dict(zip(self._labels, self.tie_keys()))
        return self._label_keys
