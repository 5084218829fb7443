"""Vectorized wedge kernels and top-k searches for the CSR backend.

These are the compact-backend twins of the hash-set hot paths:

* :func:`ego_betweenness_csr` / :func:`all_ego_betweenness_csr` — the exact
  per-vertex kernel (Lemma 2's wedge enumeration) over CSR arrays,
* :func:`ego_bw_cal_csr` — EgoBWCal (Algorithm 3) with CSR-native
  identified-information harvesting,
* :func:`base_b_search_csr` / :func:`opt_b_search_csr` — BaseBSearch and
  OptBSearch running entirely on dense integer ids,
* :func:`bound_decomposition_csr` — the Lemma 1 decomposition,
* :func:`dynamic_ego_score` — the dynamic maintainers' exact score of a
  vertex of the mutable overlay, re-summed from the connector-count
  histogram the overlay holds for it (seeded at construction from one
  :meth:`CSRChunkKernel.histogram_chunk` sweep, then patched per update).

Why this is fast in pure Python
-------------------------------
The hash kernels hash arbitrary vertex objects and allocate a ``frozenset``
per touched pair.  Here every vertex is a dense int, so

* each neighbour's adjacency is restricted to the ego by one C-level
  ``set.intersection`` against the graph's cached neighbour sets — no
  per-element Python work;
* the adjacency probe inside the wedge loops is either a set membership
  test or, on graphs small enough for the dense bitmap
  (:data:`repro.graph.csr.DENSE_ADJACENCY_VERTEX_LIMIT`), a single byte
  load at the packed pair key ``x·n + y`` itself;
* wedges are collected as packed int keys into a flat list and aggregated
  by ``collections.Counter`` (C speed) instead of two Python dict
  operations per wedge, and ``frozenset`` pair keys disappear entirely;
* identified-information recording appends *deferred references* into the
  vertex's ego structures (one append per neighbour or wedge centre) and
  the rarely-evaluated Lemma 3 bound materialises them lazily
  (:class:`repro.core.spath_map.IdentifiedInfoCSR`);
* the per-vertex ego summary (rows, wedge groups, exact score) is
  graph-static and memoised on the immutable :class:`CompactGraph`
  (:func:`_ego_summary`), so repeated top-k queries over one snapshot —
  the steady state of a production service — skip the enumeration
  entirely.

Every float accumulation goes through the same canonical sorted-histogram
summation as the hash implementations, so both backends return
**bit-identical** scores and bounds — the hash backend stays the oracle, and
the parity suite (``tests/test_csr_backend.py``) checks exact equality.
"""

from __future__ import annotations

import heapq
import os
import time
from collections import Counter, OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro._ordering import sort_key
from repro.core.bounds import BoundDecomposition
from repro.core.ego_betweenness import _sum_from_histogram
from repro.core.spath_map import IdentifiedInfoCSR
from repro.core.topk import SearchStats, TopKAccumulator, TopKResult, threshold_cut
from repro.errors import InvalidParameterError
from repro.graph.csr import CompactGraph, row_sets
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.graph import Graph, Vertex

__all__ = [
    "as_compact",
    "as_dynamic",
    "ego_betweenness_csr",
    "ego_betweenness_csr_cached",
    "all_ego_betweenness_csr",
    "ego_betweenness_from_arrays",
    "top_k_entries_from_arrays",
    "build_dense_adjacency",
    "set_neighbor_sets_cache_limit",
    "CSRChunkKernel",
    "ego_bw_cal_csr",
    "bound_decomposition_csr",
    "base_b_search_csr",
    "opt_b_search_csr",
    "static_bound_order",
    "dynamic_ego_score",
]

GraphLike = Union[Graph, CompactGraph]

def as_compact(source: GraphLike) -> CompactGraph:
    """Return ``source`` as a :class:`CompactGraph`, converting once if needed."""
    if isinstance(source, CompactGraph):
        return source
    if isinstance(source, Graph):
        return source.to_compact()
    raise TypeError(f"expected Graph or CompactGraph, got {type(source).__name__}")


def as_hash_graph(source: GraphLike) -> Graph:
    """Return ``source`` as a hash-set :class:`Graph`, converting if needed."""
    if isinstance(source, (CompactGraph, DynamicCompactGraph)):
        return source.to_graph()
    return source


def as_dynamic(source) -> DynamicCompactGraph:
    """Return an independent :class:`DynamicCompactGraph` built from ``source``.

    The result never aliases mutable state of ``source`` — mutating it
    leaves the original graph untouched (the contract of the dynamic
    maintainers).
    """
    if isinstance(source, DynamicCompactGraph):
        return DynamicCompactGraph(source.snapshot())
    if isinstance(source, CompactGraph):
        return DynamicCompactGraph(source)
    if isinstance(source, Graph):
        return DynamicCompactGraph.from_graph(source)
    raise TypeError(
        f"expected Graph, CompactGraph or DynamicCompactGraph, got {type(source).__name__}"
    )


#: One-line description per backend name, including the graph type each one
#: requires — the single copy behind every backend-validation error message
#: (the free entry points here and :class:`repro.session.EgoSession`).
BACKEND_DESCRIPTIONS = {
    "auto": "resolves to 'compact'",
    "compact": (
        "runs on an immutable CompactGraph CSR snapshot; a hash-set Graph "
        "is converted once up front"
    ),
    "hash": (
        "runs on the mutable hash-set Graph oracle; a CSR graph is "
        "materialised back to a Graph"
    ),
}


def normalize_backend(backend: str) -> str:
    """Validate a backend name and resolve ``"auto"`` to ``"compact"``.

    The single copy of the backend-selection contract shared by
    :class:`~repro.session.EgoSession`, the dynamic maintainers, the
    parallel engines and the free search functions.
    """
    backend = backend.lower()
    if backend not in BACKEND_DESCRIPTIONS:
        accepted = ", ".join(
            f"'{name}' ({text})" for name, text in BACKEND_DESCRIPTIONS.items()
        )
        raise InvalidParameterError(
            f"unknown backend {backend!r}; accepted values are {accepted}."
        )
    return "compact" if backend == "auto" else backend


# ----------------------------------------------------------------------
# Ego-network construction (shared by every kernel)
# ----------------------------------------------------------------------
#: Memo of derived neighbour sets keyed by CSR buffer identity.  Values pin
#: the buffers themselves, which both keeps the ``id()`` keys valid (a
#: pinned object cannot be garbage-collected and its id recycled) and lets
#: the identity re-check below reject any coincidental key collision.
_NBR_SETS_CACHE: "OrderedDict[Tuple[int, int], tuple]" = OrderedDict()
_DEFAULT_NBR_SETS_CACHE_LIMIT = 8


def _env_limit(name: str, default: int) -> int:
    """Read a positive integer limit from environment variable ``name``.

    An unset, non-integer or non-positive value reads as ``default``.
    """
    try:
        value = int(os.environ.get(name, default))
    except ValueError:
        return default
    return value if value >= 1 else default


_NBR_SETS_CACHE_LIMIT = _env_limit(
    "REPRO_NBR_SETS_CACHE_LIMIT", _DEFAULT_NBR_SETS_CACHE_LIMIT
)


def set_neighbor_sets_cache_limit(limit: "Optional[int]" = None) -> int:
    """Resize this process's neighbour-set memo; return the new limit.

    One entry per buffer pair (graph version) the process has scored, so
    the limit bounds the memory of a worker that many tenants' graphs
    pass through: ``None`` re-reads the ``REPRO_NBR_SETS_CACHE_LIMIT``
    environment variable (falling back to the built-in default of 8); an
    integer sets it directly.  Workers inherit the parent's limit when
    the pool forks.  Shrinking evicts the least-recently-used entries
    immediately.
    """
    global _NBR_SETS_CACHE_LIMIT
    if limit is None:
        limit = _env_limit("REPRO_NBR_SETS_CACHE_LIMIT", _DEFAULT_NBR_SETS_CACHE_LIMIT)
    if limit < 1:
        raise InvalidParameterError("neighbour-set cache limit must be >= 1")
    _NBR_SETS_CACHE_LIMIT = limit
    while len(_NBR_SETS_CACHE) > _NBR_SETS_CACHE_LIMIT:
        _NBR_SETS_CACHE.popitem(last=False)
    return _NBR_SETS_CACHE_LIMIT


def _neighbor_sets_cached(
    indptr: Sequence[int], indices: Sequence[int]
) -> List[set]:
    """Return (possibly memoized) neighbour sets for the exact buffer pair.

    Per-chunk entry points (:func:`ego_betweenness_from_arrays`,
    :func:`top_k_entries_from_arrays`) are called many times against the
    same resident CSR arrays — one shared-memory payload serves every chunk
    of a graph version — so the derived sets are built once per buffer pair
    instead of once per call.  CSR buffers are immutable by contract
    (mutation creates a new version and new arrays), which is what makes
    identity a sound cache key.
    """
    key = (id(indptr), id(indices))
    hit = _NBR_SETS_CACHE.get(key)
    if hit is not None and hit[0] is indptr and hit[1] is indices:
        _NBR_SETS_CACHE.move_to_end(key)
        return hit[2]
    nbr_sets = row_sets(indptr, indices)
    _NBR_SETS_CACHE[key] = (indptr, indices, nbr_sets)
    while len(_NBR_SETS_CACHE) > _NBR_SETS_CACHE_LIMIT:
        _NBR_SETS_CACHE.popitem(last=False)
    return nbr_sets


def _build_ego(
    indices: Sequence[int],
    nbr_sets: List[set],
    start: int,
    end: int,
) -> Tuple[List[int], List[List[int]]]:
    """Return ``(nbrs, rows)`` for the ego network of the vertex owning the slice.

    ``nbrs`` lists the neighbour ids in ascending order and ``rows[i]`` is
    the adjacency of neighbour ``i`` restricted to the ego (the centre is
    excluded automatically because it is not its own neighbour), as an
    unordered list of *global* ids.  Each restriction is one C-level
    ``set.intersection`` (which iterates the smaller operand) — no
    per-element Python work; the wedge loops canonicalise pair keys
    themselves, so row order does not matter.
    """
    nbrs = indices[start:end]
    ego_set = set(nbrs)
    intersection = ego_set.intersection
    return nbrs, [list(intersection(nbr_sets[x])) for x in nbrs]


def _enumerate_wedges(
    rows: List[List[int]],
    n: int,
    nbr_sets: List[set],
    dense: Optional[bytearray],
) -> Tuple[List[int], List[Tuple[int, int, int]]]:
    """Enumerate every wedge of an ego as ``(wedges, segments)``.

    ``wedges`` holds one packed canonical pair key ``min·n + max`` per
    non-adjacent neighbour pair per wedge centre, grouped by centre;
    ``segments`` holds ``(li, start, end)`` triples locating each centre's
    group inside ``wedges``.  Keys are collected into a flat list so the
    caller can aggregate with ``Counter`` (C speed) instead of paying two
    Python-level dict operations per wedge.  When the ``dense`` adjacency
    bitmap is available, the packed key doubles as its probe index, making
    the adjacency test a single byte load.

    This is the single copy of the hot pair loops — both the uncached
    kernel and the memoised :func:`_ego_summary` go through it, which is
    what keeps the two paths bit-identical.
    """
    wedges: List[int] = []
    append = wedges.append
    segments: List[Tuple[int, int, int]] = []
    for li, row in enumerate(rows):
        length = len(row)
        if length < 2:
            continue
        mark = len(wedges)
        if dense is None:
            for i in range(length - 1):
                x = row[i]
                adjacent = nbr_sets[x]
                base = x * n
                for y in row[i + 1 :]:
                    if y not in adjacent:
                        append(base + y if x < y else y * n + x)
        else:
            for i in range(length - 1):
                x = row[i]
                base = x * n
                for y in row[i + 1 :]:
                    key = base + y if x < y else y * n + x
                    if not dense[key]:
                        append(key)
        end_mark = len(wedges)
        if end_mark > mark:
            segments.append((li, mark, end_mark))
    return wedges, segments


def _ego_wedge_stats(
    indptr: Sequence[int],
    indices: Sequence[int],
    pid: int,
    nbr_sets: List[set],
    dense: Optional[bytearray] = None,
) -> Tuple[int, int, Dict[int, int]]:
    """Return ``(degree, edges_in_ego, linker_counts)`` for vertex ``pid``.

    ``linker_counts`` maps the packed global pair key ``x·n + y``
    (``x < y``) of every non-adjacent neighbour pair joined by at least one
    2-path to its number of connectors inside ``N(pid)``.
    """
    start = indptr[pid]
    end = indptr[pid + 1]
    d = end - start
    if d < 2:
        return d, 0, {}
    n = len(indptr) - 1
    nbrs, rows = _build_ego(indices, nbr_sets, start, end)
    wedges, _ = _enumerate_wedges(rows, n, nbr_sets, dense)
    return d, sum(map(len, rows)) // 2, Counter(wedges)


def _ego_histogram(
    indptr: Sequence[int],
    indices: Sequence[int],
    pid: int,
    nbr_sets: List[set],
    dense: Optional[bytearray] = None,
) -> Dict[int, int]:
    """The connector-count histogram of ``pid``'s ego network.

    ``{count: non-adjacent neighbour pairs with that many connectors in
    N(pid)}``, count 0 being the lonely pairs (only ``pid`` joins them);
    ``_sum_from_histogram(0, hist)`` is the exact ``CB(pid)``.
    """
    d, edges_in_ego, linker_counts = _ego_wedge_stats(
        indptr, indices, pid, nbr_sets, dense
    )
    if d < 2:
        return {}
    histogram = Counter(linker_counts.values())
    lonely_pairs = d * (d - 1) // 2 - edges_in_ego - len(linker_counts)
    if lonely_pairs:
        histogram[0] = lonely_pairs
    return histogram


def _ego_score_id(
    indptr: Sequence[int],
    indices: Sequence[int],
    pid: int,
    nbr_sets: List[set],
    dense: Optional[bytearray] = None,
) -> float:
    """Exact ``CB(pid)`` from CSR arrays (no identified-info harvesting)."""
    return _sum_from_histogram(0, _ego_histogram(indptr, indices, pid, nbr_sets, dense))


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------
def ego_betweenness_csr(source: GraphLike, vertex: Vertex) -> float:
    """Return the exact ego-betweenness of ``vertex`` on the CSR backend.

    ``vertex`` is an *original* label; agrees bit-for-bit with
    :func:`repro.core.ego_betweenness.ego_betweenness`.

    Examples
    --------
    >>> g = Graph(edges=[("d", x) for x in "abcghi"]
    ...                 + [("a", "b"), ("a", "c"), ("b", "c"),
    ...                    ("c", "g"), ("c", "h"), ("g", "i"), ("h", "i")])
    >>> round(ego_betweenness_csr(g, "d"), 6) == round(14 / 3, 6)
    True
    """
    compact = as_compact(source)
    pid = compact.id_of(vertex)
    return _ego_score_id(
        compact.indptr, compact.indices, pid, compact.neighbor_sets(), compact.dense_adjacency()
    )


def ego_betweenness_csr_cached(compact: CompactGraph, vertex: Vertex) -> float:
    """Exact ``CB(vertex)`` served from the snapshot's memoised ego summary.

    Bit-identical to :func:`ego_betweenness_csr` (both accumulate through
    the canonical sorted histogram), but repeated probes of the same vertex
    on the same snapshot cost one dict lookup — the per-vertex twin of the
    warm-search steady state.  Used by the :class:`~repro.session.EgoSession`
    ``score()`` fast path.
    """
    pid = compact.id_of(vertex)
    return _ego_summary(compact, pid, compact.neighbor_sets())[0]


def all_ego_betweenness_csr(
    source: GraphLike, vertices: Optional[Iterable[Vertex]] = None
) -> Dict[Vertex, float]:
    """Return the exact ego-betweenness of every vertex (or a subset).

    The CSR twin of :func:`repro.core.ego_betweenness.all_ego_betweenness`;
    the neighbour-set cache is shared across all per-vertex kernel calls.
    """
    compact = as_compact(source)
    indptr, indices = compact.indptr, compact.indices
    labels = compact.labels
    nbr_sets = compact.neighbor_sets()
    dense = compact.dense_adjacency()
    if vertices is None:
        ids: Iterable[int] = range(compact.num_vertices)
    else:
        ids = [compact.id_of(v) for v in vertices]
    return {
        labels[pid]: _ego_score_id(indptr, indices, pid, nbr_sets, dense) for pid in ids
    }


def ego_betweenness_from_arrays(
    indptr: Sequence[int],
    indices: Sequence[int],
    ids: Sequence[int],
    nbr_sets: Optional[List[set]] = None,
    dense: Optional[bytearray] = None,
) -> Dict[int, float]:
    """Return ``{id: CB(id)}`` straight from raw CSR arrays.

    This is the parallel-worker entry point: workers receive the two flat
    arrays (cheap to pickle) instead of a rebuilt adjacency dictionary and
    never need labels at all.  When not supplied, the neighbour sets come
    from the buffer-identity memo, so repeated chunk calls against the
    same resident arrays reuse one build.
    """
    if nbr_sets is None:
        nbr_sets = _neighbor_sets_cached(indptr, indices)
    return {pid: _ego_score_id(indptr, indices, pid, nbr_sets, dense) for pid in ids}


def top_k_entries_from_arrays(
    indptr: Sequence[int],
    indices: Sequence[int],
    ids: Iterable[int],
    k: int,
    nbr_sets: Optional[List[set]] = None,
    dense: Optional[bytearray] = None,
) -> List[Tuple[int, float]]:
    """Score ``ids``; return every candidate that can reach a global top-k.

    Returns the chunk's ``(id, score)`` entries whose score is **>= the
    chunk's k-th largest score — all threshold ties included** (everything,
    when the chunk has at most ``k`` entries); see :func:`threshold_cut`.

    The tie cohort ships whole because a worker holds bare ids, not labels:
    ties are broken by the label sort key, so only the parent can decide
    which tied entries survive.  Entries strictly below the chunk threshold
    are strictly below the global threshold too (a subset's k-th best never
    exceeds the full set's), so omitting them cannot change the top-k.
    """
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    scores = ego_betweenness_from_arrays(indptr, indices, ids, nbr_sets, dense)
    return threshold_cut(list(scores.items()), k)


def build_dense_adjacency(
    indptr: Sequence[int], indices: Sequence[int]
) -> Optional[bytearray]:
    """Build the flat ``n × n`` adjacency bitmap from raw CSR buffers.

    The standalone twin of :meth:`CompactGraph.dense_adjacency` for callers
    that hold only the two flat arrays (parallel workers reading a
    shared-memory segment).  Returns ``None`` above
    :data:`~repro.graph.csr.DENSE_ADJACENCY_VERTEX_LIMIT`, where the
    neighbour-set probe is used instead.  With numpy the edges are
    scattered into the ``bytearray`` through an ``np.frombuffer`` view in
    one call; without it, one Python store per directed edge.
    """
    from repro.core.vec_kernels import _numpy_module, as_int64
    from repro.graph.csr import DENSE_ADJACENCY_VERTEX_LIMIT

    n = len(indptr) - 1
    if not 0 < n <= DENSE_ADJACENCY_VERTEX_LIMIT:
        return None
    dense = bytearray(n * n)
    np = _numpy_module()
    if np is not None:
        ptr = as_int64(np, indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(ptr))
        rows += as_int64(np, indices)
        np.frombuffer(dense, dtype=np.uint8)[rows] = 1
        return dense
    for u in range(n):
        base = u * n
        for pos in range(indptr[u], indptr[u + 1]):
            dense[base + indices[pos]] = 1
    return dense


class CSRChunkKernel:
    """Reusable chunk-scoring kernel over raw CSR buffers.

    Wraps the two flat ``(indptr, indices)`` arrays — plain sequences or
    zero-copy ``memoryview`` casts of a shared-memory segment.  The python
    tier's acceleration structures (per-vertex neighbour sets and, on
    small graphs, the dense adjacency bitmap) are built on its first chunk
    and kept; the numpy tier never builds them.  A persistent parallel
    worker constructs one kernel per shipped graph version and then serves
    every vertex chunk of that version from it, so after the first chunk
    the per-call cost is the wedge enumeration alone.  A kernel made by
    :meth:`for_compact` uses that snapshot's own cached structures instead.

    ``kernel`` is the execution tier, by default the platform's
    (:func:`repro.core.vec_kernels.platform_tier`): ``"python"`` runs the
    interpreted wedge loops, ``"numpy"`` scores whole chunks through the
    vectorized :class:`~repro.core.vec_kernels.VectorizedChunkScorer`.
    Naming a tier is the one place one can be forced (the tier-parity
    tests and the kernel benchmark compare the two here).  A numpy chunk
    that fails for any reason demotes the kernel to the python tier
    permanently and counts one ``kernel_fallbacks`` — the answer is
    recomputed, never lost.
    ``chunks_by_tier`` records which tier actually served each chunk.
    ``build_dense=False`` keeps both tiers off the dense bitmap.

    Scores are bit-identical to :func:`all_ego_betweenness_csr` on every
    tier (all integer counting funnels through the canonical sorted
    histogram).

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    >>> cg = CompactGraph.from_graph(g)
    >>> kernel = CSRChunkKernel(cg.indptr, cg.indices)
    >>> kernel.score_chunk([0, 3]) == {0: 0.0, 3: 0.0}
    True
    """

    __slots__ = (
        "indptr",
        "indices",
        "build_dense",
        "kernel",
        "chunks_by_tier",
        "kernel_fallbacks",
        "_compact",
        "_nbr_sets",
        "_dense",
        "_dense_built",
        "_vec",
    )

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        build_dense: bool = True,
        kernel: Optional[str] = None,
    ) -> None:
        from repro.core.vec_kernels import platform_tier

        if kernel not in (None, "python", "numpy"):
            raise InvalidParameterError(
                f"unknown kernel tier {kernel!r}; use 'python' or 'numpy'"
            )
        self.indptr = indptr
        self.indices = indices
        self.build_dense = build_dense
        self.kernel = kernel or platform_tier()
        self.chunks_by_tier: Dict[str, int] = {"python": 0, "numpy": 0}
        self.kernel_fallbacks = 0
        self._compact: Optional[CompactGraph] = None
        self._nbr_sets: Optional[List[set]] = None
        self._dense: Optional[bytearray] = None
        self._dense_built = False
        self._vec = None

    @classmethod
    def for_compact(cls, compact: CompactGraph) -> "CSRChunkKernel":
        """A platform-tier kernel over ``compact``'s arrays that shares its
        cached neighbour sets and dense bitmap (the serial transport's kernel)."""
        chunk_kernel = cls(compact.indptr, compact.indices)
        chunk_kernel._compact = compact
        return chunk_kernel

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the buffers."""
        return len(self.indptr) - 1

    @property
    def nbr_sets(self) -> List[set]:
        """The python tier's per-vertex neighbour-id sets (built on first use)."""
        if self._nbr_sets is None:
            if self._compact is not None:
                self._nbr_sets = self._compact.neighbor_sets()
            else:
                self._nbr_sets = _neighbor_sets_cached(self.indptr, self.indices)
        return self._nbr_sets

    @property
    def dense(self) -> Optional[bytearray]:
        """The python tier's dense adjacency bitmap, or ``None`` (built on first use)."""
        if not self._dense_built:
            self._dense_built = True
            if not self.build_dense:
                self._dense = None
            elif self._compact is not None:
                self._dense = self._compact.dense_adjacency()
            else:
                self._dense = build_dense_adjacency(self.indptr, self.indices)
        return self._dense

    def _vectorized(self):
        if self._vec is None:
            from repro.core.vec_kernels import VectorizedChunkScorer

            self._vec = VectorizedChunkScorer(
                self.indptr, self.indices, dense=self.build_dense
            )
        return self._vec

    def _demote(self) -> None:
        """Fall back to the python tier permanently, counting the failure."""
        self.kernel = "python"
        self.kernel_fallbacks += 1
        self._vec = None

    def score_chunk(self, ids: Iterable[int]) -> Dict[int, float]:
        """Return ``{id: CB(id)}`` for every dense vertex id in ``ids``."""
        return {
            pid: _sum_from_histogram(0, histogram)
            for pid, histogram in self.histogram_chunk(ids).items()
        }

    def histogram_chunk(self, ids: Iterable[int]) -> Dict[int, Dict[int, int]]:
        """Return ``{id: connector-count histogram}`` for every id in ``ids``.

        Key 0 holds the lonely pairs; both tiers return equal histograms,
        the state a :class:`DynamicCompactGraph` is seeded with.
        """
        if self.kernel == "numpy":
            id_list = list(ids)
            try:
                histograms = self._vectorized().histograms(id_list)
            except Exception:
                ids = id_list
                self._demote()
            else:
                self.chunks_by_tier["numpy"] += 1
                return histograms
        self.chunks_by_tier["python"] += 1
        indptr, indices = self.indptr, self.indices
        nbr_sets, dense = self.nbr_sets, self.dense
        return {
            pid: _ego_histogram(indptr, indices, pid, nbr_sets, dense) for pid in ids
        }

    def top_chunk(self, ids: Iterable[int], k: int) -> List[Tuple[int, float]]:
        """Return the chunk's top-k candidates (threshold ties included).

        The worker-side reduction of ``top_k(parallel=)``: ``k`` entries
        plus any ties at the chunk threshold leave the worker instead of
        one score per chunk id.  See :func:`top_k_entries_from_arrays` for
        why the tie cohort ships whole.
        """
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        return threshold_cut(list(self.score_chunk(ids).items()), k)


def bound_decomposition_csr(source: GraphLike, vertex: Vertex) -> BoundDecomposition:
    """Return the exact Lemma 1 decomposition for ``vertex`` (CSR-native).

    Agrees with :func:`repro.core.bounds.bound_decomposition` on every
    vertex; runs on the wedge statistics instead of pairwise set
    intersections, so it is valid only for the same simple-graph model.
    """
    compact = as_compact(source)
    pid = compact.id_of(vertex)
    d, edges_in_ego, linker_counts = _ego_wedge_stats(
        compact.indptr, compact.indices, pid, compact.neighbor_sets(), compact.dense_adjacency()
    )
    total_pairs = d * (d - 1) // 2 if d >= 2 else 0
    linked = len(linker_counts)
    return BoundDecomposition(
        adjacent_pairs=edges_in_ego,
        linked_pairs=linked,
        exclusive_pairs=total_pairs - edges_in_ego - linked,
        total_pairs=total_pairs,
    )


#: Soft cap on the number of per-vertex ego summaries memoised per
#: CompactGraph; beyond it new summaries are simply not cached.
EGO_CACHE_MAX_VERTICES = 65536

#: Soft cap on the total number of ints held by the memoised summaries of
#: one CompactGraph (a hub of degree d stores up to ~d^2/2 wedge keys, so
#: an entry-count cap alone would not bound memory).  2e7 ints is on the
#: order of a few hundred MB worst case — the working set of the hubs a
#: top-k service keeps re-evaluating.
EGO_CACHE_MAX_INTS = 20_000_000


def _ego_summary(compact: CompactGraph, pid: int, nbr_sets: List[set]):
    """Return the memoised ``(score, nbrs, rows, wedges, segments)`` of ``pid``.

    All five components are *graph-static*, so they are computed once per
    vertex and cached on the (immutable) snapshot — repeated searches over
    the same ``CompactGraph`` (the steady state of a top-k query service)
    skip the wedge enumeration entirely and only redo the search-dependent
    relevance filtering and fact recording:

    * ``score`` — the exact ``CB(pid)``;
    * ``nbrs`` / ``rows`` — the ego members and their ego-restricted
      adjacency lists (global ids);
    * ``wedges`` — one packed canonical pair key ``min·n + max`` per wedge,
      grouped by wedge centre;
    * ``segments`` — ``(li, start, end)`` triples locating each centre's
      group inside ``wedges``.
    """
    cache = compact._ego_cache
    entry = cache.get(pid)
    if entry is not None:
        return entry
    indptr, indices = compact.indptr, compact.indices
    n = compact.num_vertices
    # The wedge keys are the same with either probe, so use the bitmap
    # only if a full sweep already built it.
    dense = compact.dense_adjacency(build=False)
    start = indptr[pid]
    end = indptr[pid + 1]
    d = end - start
    nbrs, rows = _build_ego(indices, nbr_sets, start, end)
    wedges, segments = _enumerate_wedges(rows, n, nbr_sets, dense)
    edge_endpoints = sum(map(len, rows))
    linker_counts = Counter(wedges)
    total_pairs = d * (d - 1) // 2
    lonely_pairs = total_pairs - edge_endpoints // 2 - len(linker_counts)
    score = _sum_from_histogram(lonely_pairs, Counter(linker_counts.values()))
    entry = (score, nbrs, rows, wedges, segments)
    cost = len(wedges) + sum(map(len, rows)) + len(nbrs)
    if (
        len(cache) < EGO_CACHE_MAX_VERTICES
        and compact._ego_cache_cost + cost <= EGO_CACHE_MAX_INTS
    ):
        cache[pid] = entry
        compact._ego_cache_cost += cost
    return entry


def ego_bw_cal_csr(
    compact: CompactGraph,
    pid: int,
    info: IdentifiedInfoCSR,
    computed: bytearray,
    threshold: float = float("-inf"),
    nbr_sets: Optional[List[set]] = None,
) -> float:
    """EgoBWCal (Algorithm 3) on the CSR backend.

    Computes the exact ``CB(pid)`` and, for every *relevant* vertex touched
    by the enumeration (not yet computed, static bound above ``threshold``),
    records the identified facts exactly as the hash implementation does:
    triangle edges and diamond connectors, as deferred references into the
    vertex's memoised ego structures (see :class:`IdentifiedInfoCSR` and
    :func:`_ego_summary`).  The recorded fact set is identical to the hash
    backend's, so the resulting dynamic bounds are too.
    """
    degrees = compact.degrees
    if degrees[pid] < 2:
        return 0.0
    if nbr_sets is None:
        nbr_sets = compact.neighbor_sets()
    score, nbrs, rows, wedges, segments = _ego_summary(compact, pid, nbr_sets)

    if threshold == float("-inf"):
        # Before the top-k heap fills, every not-yet-computed vertex is
        # relevant — skip the per-neighbour bound arithmetic.
        relevant = [not computed[x] for x in nbrs]
    else:
        relevant = [
            not computed[x] and degrees[x] * (degrees[x] - 1) * 0.5 > threshold
            for x in nbrs
        ]

    # Identified edges: for the triangle (pid, x, w) the pair (pid, w) is an
    # edge of GE(x).  Logged as one deferred (pid, row) reference per
    # relevant neighbour — packed pair keys are materialised only if x's
    # bound is ever queried.
    edges_store = info._edges
    links_store = info._links
    for li in range(len(nbrs)):
        if not relevant[li]:
            continue
        row = rows[li]
        if row:
            x = nbrs[li]
            log = edges_store.get(x)
            if log is None:
                log = edges_store[x] = []
            log.append((pid, row))

    # pid connects every non-adjacent pair in a centre's segment inside
    # GE(w): certain Lemma 3 facts for w's bound, recorded as one slice
    # reference per centre.  Each pair occurs at most once per call, so
    # log multiplicity equals the number of distinct connectors.
    for li, mark, end_mark in segments:
        if relevant[li]:
            w_id = nbrs[li]
            log = links_store.get(w_id)
            if log is None:
                log = links_store[w_id] = []
            log.append((wedges, mark, end_mark))

    return score


# ----------------------------------------------------------------------
# Top-k searches
# ----------------------------------------------------------------------
def static_bound_order(compact: CompactGraph) -> Iterator[Tuple[float, tuple, int]]:
    """Yield ``(-bound, sort key, id)`` for every vertex, in ascending order.

    The static visit order of the searches and of the session's
    bound-pruned parallel top-k — the eager ``sorted`` of these triples,
    with ``bound = d(d-1)/2`` (Lemma 1) — produced lazily.  Ids
    are ordered by degree once, with an int key at C speed; each group of
    equal bounds is sorted by label sort key, computing the keys, only
    when the consumer reaches it.  Degrees 0 and 1 share the bound 0 and
    so form one group.  A search that stops after a short prefix pays for
    that prefix.
    """
    degrees = compact.degrees
    labels = compact.labels
    order = sorted(range(len(degrees)), key=degrees.__getitem__, reverse=True)
    sizes = Counter(degrees)
    sizes[1] += sizes.pop(0, 0)
    start = 0
    for d in sorted(sizes, reverse=True):
        group = order[start : start + sizes[d]]
        start += len(group)
        neg_bound = -(d * (d - 1) / 2.0)
        keys = map(sort_key, map(labels.__getitem__, group))
        for key, v in sorted(zip(keys, group)):
            yield neg_bound, key, v


def base_b_search_csr(
    source: GraphLike, k: int, maintain_shared_maps: bool = True
) -> TopKResult:
    """BaseBSearch (Algorithm 1) on the CSR backend.

    Produces the exact same entries and work counters as
    :func:`repro.core.base_search.base_b_search`; results are reported under
    the original vertex labels.
    """
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    compact = as_compact(source)
    start = time.perf_counter()
    n = compact.num_vertices
    effective_k = min(k, n) if n else k
    stats = SearchStats(algorithm="BaseBSearch")
    if n == 0:
        stats.elapsed_seconds = time.perf_counter() - start
        return TopKResult(entries=[], k=k, stats=stats)

    indptr, indices = compact.indptr, compact.indices
    labels = compact.labels
    nbr_sets = compact.neighbor_sets()
    dense = compact.dense_adjacency(build=False)
    info = IdentifiedInfoCSR(n) if maintain_shared_maps else None
    computed = bytearray(n)
    accumulator = TopKAccumulator(effective_k)
    for neg_bound, key, pid in static_bound_order(compact):
        if not accumulator.admits(-neg_bound, key):
            break
        if info is not None:
            score = ego_bw_cal_csr(compact, pid, info, computed, float("-inf"), nbr_sets)
            computed[pid] = 1
            info.discard(pid)
        else:
            score = _ego_score_id(indptr, indices, pid, nbr_sets, dense)
        stats.exact_computations += 1
        accumulator.offer(labels[pid], score)

    stats.pruned_vertices = n - stats.exact_computations
    stats.elapsed_seconds = time.perf_counter() - start
    return TopKResult(entries=accumulator.ranked_entries(), k=k, stats=stats)


def opt_b_search_csr(source: GraphLike, k: int, theta: float = 1.05) -> TopKResult:
    """OptBSearch (Algorithms 2–3) on the CSR backend.

    Produces the exact same entries and work counters
    (``exact_computations``, ``bound_updates``, ``repushes``) as
    :func:`repro.core.opt_search.opt_b_search`: the heap uses the identical
    ``(bound, vertex sort key)`` ordering and the dynamic bounds are
    bit-identical, so every pop, re-push and pruning decision coincides.
    """
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    if theta < 1.0:
        raise InvalidParameterError("theta must be >= 1")
    compact = as_compact(source)
    start = time.perf_counter()
    n = compact.num_vertices
    stats = SearchStats(algorithm="OptBSearch")
    if n == 0:
        stats.elapsed_seconds = time.perf_counter() - start
        return TopKResult(entries=[], k=k, stats=stats)

    degrees = compact.degrees
    labels = compact.labels
    effective_k = min(k, n)
    accumulator = TopKAccumulator(effective_k)
    info = IdentifiedInfoCSR(n)
    heappop = heapq.heappop
    heappush = heapq.heappush

    # The initial max-heap over static bounds is replaced by the lazy
    # static pop order plus a small heap holding only re-pushed vertices:
    # the pop sequence is identical to the eager heap's, but a search that
    # terminates after visiting a short prefix never materialises n heap
    # entries nor n sort keys.  ``repush_bound`` tracks the freshest bound
    # of re-pushed vertices so stale (superseded) entries from either
    # source are skipped; every other vertex's current bound is its static
    # bound.
    static = static_bound_order(compact)
    upcoming = next(static, None)
    heap: List[Tuple[float, tuple, int]] = []
    repush_bound: Dict[int, float] = {}

    computed = bytearray(n)
    pruned = bytearray(n)
    nbr_sets = compact.neighbor_sets()

    while upcoming is not None or heap:
        if upcoming is not None and (not heap or upcoming <= heap[0]):
            entry = upcoming
            upcoming = next(static, None)
        else:
            entry = heappop(heap)
        neg_bound, key, pid = entry
        stored_bound = -neg_bound
        if computed[pid] or pruned[pid]:
            continue
        dp = degrees[pid]
        current = repush_bound.get(pid)
        if current is None:
            current = dp * (dp - 1) / 2.0
        if stored_bound != current:
            continue  # stale entry superseded by a later, tighter push

        tight_bound = info.upper_bound(pid, degrees[pid])
        stats.bound_updates += 1

        if theta * tight_bound < stored_bound:
            if accumulator.admits(tight_bound, key):
                repush_bound[pid] = tight_bound
                heappush(heap, (-tight_bound, key, pid))
                stats.repushes += 1
            else:
                pruned[pid] = 1
            continue

        if not accumulator.admits(stored_bound, key):
            break

        score = ego_bw_cal_csr(compact, pid, info, computed, accumulator.threshold, nbr_sets)
        stats.exact_computations += 1
        computed[pid] = 1
        info.discard(pid)
        accumulator.offer(labels[pid], score)

    stats.pruned_vertices = n - stats.exact_computations
    stats.elapsed_seconds = time.perf_counter() - start
    return TopKResult(entries=accumulator.ranked_entries(), k=k, stats=stats)


# ----------------------------------------------------------------------
# Exact scores on the mutable CSR overlay (dynamic maintenance)
# ----------------------------------------------------------------------
def dynamic_ego_score(dyn: DynamicCompactGraph, pid: int) -> float:
    """Exact ``CB(pid)`` on the mutable overlay, re-summed from its histogram.

    The overlay holds a connector-count histogram for every id, seeded by
    one kernel sweep and patched by the Lemma 4–7 closed form on every
    update (:meth:`DynamicCompactGraph._patch_histograms`).  Its key 0
    holds the lonely pairs, so the sum is bit-identical to the static
    kernels and to :func:`repro.core.ego_betweenness.ego_betweenness`,
    which sum the same canonical sorted histogram.
    """
    return _sum_from_histogram(0, dyn._hists[pid])
