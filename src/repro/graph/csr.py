"""Compact CSR (compressed-sparse-row) graph backend.

:class:`CompactGraph` is the read-only fast twin of the hash-set
:class:`~repro.graph.graph.Graph`.  Vertices are relabelled to dense
``0..n-1`` integers (first-seen order of the source, with a stable
id ↔ label mapping) and the adjacency is stored as two flat arrays::

    indices[indptr[v] : indptr[v + 1]]   # sorted neighbour ids of v

plus a degree array and a cached static-bound processing order for the
top-k searches.  Everything the hot kernels need — adjacency membership,
sorted-merge / galloping intersection, ego slicing — becomes integer
arithmetic over contiguous ``array`` storage instead of hashing arbitrary
Python objects, which is what makes the CSR top-k search several times
faster than the hash-set oracle.

An edge list of plain ``int`` labels goes straight to CSR through
:meth:`CompactGraph.from_edges` (a numpy sort-and-dedupe, no hash
:class:`Graph` in between); any other edge list, or the same one without
numpy, goes through :class:`Graph` and :meth:`CompactGraph.from_graph`,
as an existing :class:`Graph` does via :meth:`Graph.to_compact`.  Both
routes give the same labels and arrays.

The class is deliberately immutable: the dynamic-maintenance algorithms of
Section IV run on :class:`Graph` or on the
:class:`~repro.graph.dynamic_csr.DynamicCompactGraph` overlay.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._ordering import sort_key
from repro.errors import SelfLoopError, VertexNotFoundError
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


def row_sets(indptr: Sequence[int], indices: Sequence[int]) -> List[set]:
    """The per-vertex neighbour-id sets of raw CSR arrays, one C-level pass.

    Examples
    --------
    >>> row_sets([0, 1, 3, 4], [1, 0, 2, 1])
    [{1}, {0, 2}, {1}]
    """
    return list(map(set, map(indices.__getitem__, map(slice, indptr[:-1], indptr[1:]))))


def _run_starts(np, ordered):
    """Mask of the positions in a sorted array where a new value begins."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _int_edges_to_csr(
    edges: List[Edge], vertices: List[Vertex]
) -> Optional[Tuple[List[int], List[int], List[int]]]:
    """``(labels, indptr, indices)`` of an edge list of plain-``int`` labels.

    Returns ``None`` — the caller goes through the hash :class:`Graph` —
    without numpy, when an edge is not a pair, when any label is not
    exactly an ``int`` (``bool``, other ``int`` subclasses and non-ints
    keep their own identity there) or when a label overflows int64.
    """
    try:
        import numpy as np
    except ImportError:
        return None
    try:
        if set(map(len, edges)) - {2}:
            return None
        flat = vertices + list(chain.from_iterable(edges))
    except TypeError:
        return None
    if list(map(type, flat)).count(int) != len(flat):
        return None
    try:
        values = np.array(flat, dtype=np.int64)
    except OverflowError:
        return None
    ends = values[len(vertices):]
    loops = np.flatnonzero(ends[0::2] == ends[1::2])
    if loops.size:
        raise SelfLoopError(int(ends[2 * loops[0]]))
    # Ids in first-seen order, which a dict keeps.  A label's id is found
    # from its rank among the sorted distinct labels.
    labels = list(dict.fromkeys(flat))
    n = len(labels)
    if not n:
        return [], [0], []
    order = np.argsort(values)
    ids = np.empty_like(order)
    ids[order] = np.argsort(np.array(labels, dtype=np.int64))[
        np.cumsum(_run_starts(np, values[order])) - 1
    ]
    ids = ids[len(vertices):]
    # Both directions of every edge as row-major keys, sorted and deduped.
    keys = np.concatenate((ids[0::2] * n + ids[1::2], ids[1::2] * n + ids[0::2]))
    keys.sort()
    keys = keys[_run_starts(np, keys)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return labels, indptr.tolist(), (keys % n).tolist()


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
        self._ids: Dict[Vertex, int] = dict(zip(self._labels, range(len(self._labels))))
        # Plain lists index and slice measurably faster than typed arrays in
        # CPython, and the kernels are index/slice bound; arrays() rebuilds
        # the typed form when a compact pickle payload is needed.
        self.indptr: List[int] = list(indptr)
        self.indices: List[int] = list(indices)
        self.degrees: List[int] = list(map(sub, self.indptr[1:], self.indptr[:-1]))
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
        """Build a CSR graph straight from an edge list.

        Labels take first-seen order (``vertices`` first, then each edge's
        endpoints); duplicate and reversed pairs are ignored and a
        self-loop raises :class:`~repro.errors.SelfLoopError` — the labels
        and arrays of ``from_graph(Graph(edges=edges, vertices=vertices))``
        without building the hash graph.

        Examples
        --------
        >>> cg = CompactGraph.from_edges([(7, 3), (3, 7), (3, 5)])
        >>> cg.labels, cg.indptr, cg.indices
        ([7, 3, 5], [0, 1, 3, 4], [1, 0, 2, 1])
        """
        edges = edges if isinstance(edges, list) else list(edges)
        vertices = [] if vertices is None else list(vertices)
        csr = _int_edges_to_csr(edges, vertices)
        if csr is None:
            return cls.from_graph(Graph(edges=edges, vertices=vertices))
        return cls(*csr)

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
            self._nbr_sets = row_sets(self.indptr, self.indices)
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
