"""Shortest-path count maps (``S_p``) and the identified-information store.

Two closely related structures live here:

:class:`SPathMap`
    The per-vertex hash map ``S_p`` of the paper's Algorithms 1/3/5: for a
    pair ``(x, y)`` of ``p``'s neighbours it stores 0 when the pair is
    adjacent and otherwise the number of vertices (excluding ``p``) that
    connect ``x`` and ``y`` inside ``GE(p)``.  The dynamic maintenance
    algorithms of Section IV query these values; this implementation computes
    them on demand from the current graph instead of persisting
    ``O(Σ d(p)^2)`` entries, which keeps the update algorithms exact while
    bounding memory.

:class:`IdentifiedInfo`
    The "identified information" store that powers OptBSearch's dynamic
    upper bound (Lemma 3).  While a vertex ``u`` is being computed exactly,
    the triangles and diamonds touched reveal, for *other* vertices ``p``,
    edges between ``p``'s neighbours and alternative connectors for
    non-adjacent neighbour pairs.  Only facts that are certain are recorded,
    so the derived bound is always a true upper bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Set

from repro.core.bounds import dynamic_upper_bound
from repro.graph.graph import Graph, Vertex

__all__ = ["SPathMap", "IdentifiedInfo", "IdentifiedInfoCSR", "pair_key"]


def pair_key(u: Vertex, v: Vertex) -> FrozenSet[Vertex]:
    """Return the canonical dictionary key for the unordered pair ``{u, v}``."""
    return frozenset((u, v))


class SPathMap:
    """On-demand view of the paper's per-vertex map ``S_p``.

    ``value(p, x, y)`` returns the number of vertices other than ``p`` that
    connect ``x`` and ``y`` inside ``GE(p)`` — i.e.
    ``|N(x) ∩ N(y) ∩ N(p)|`` for a non-adjacent pair — and 0 when the pair is
    adjacent (mirroring the sentinel the paper stores for visited triangles).
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    def value(self, p: Vertex, x: Vertex, y: Vertex) -> int:
        """Return ``S_p(x, y)`` for the *current* state of the graph."""
        graph = self._graph
        if graph.has_edge(x, y):
            return 0
        np_ = graph.neighbors(p)
        nx = graph.neighbors(x)
        ny = graph.neighbors(y)
        # Iterate the smallest of the three sets.
        smallest = min((np_, nx, ny), key=len)
        if smallest is np_:
            return sum(1 for w in np_ if w != p and w in nx and w in ny)
        if smallest is nx:
            return sum(1 for w in nx if w != p and w in ny and w in np_)
        return sum(1 for w in ny if w != p and w in nx and w in np_)

    def contribution(self, p: Vertex, x: Vertex, y: Vertex) -> float:
        """Return the pair's contribution ``b_xy(p)`` to ``CB(p)``."""
        graph = self._graph
        if graph.has_edge(x, y):
            return 0.0
        return 1.0 / (self.value(p, x, y) + 1)


class IdentifiedInfo:
    """Identified edges and connectors per vertex, for the dynamic bound.

    The store distinguishes two kinds of facts about a vertex ``p`` that is
    *not yet* computed exactly:

    * ``record_edge(p, x, y)`` — the pair ``(x, y)`` of ``p``'s neighbours is
      adjacent, hence contributes 0 to ``CB(p)``.
    * ``record_link(p, x, y, w)`` — the non-adjacent pair ``(x, y)`` of
      ``p``'s neighbours has the alternative connector ``w`` (≠ p), hence
      contributes at most ``1/(count+1)``.

    Connectors are stored as sets so repeated discoveries of the same fact
    (e.g. from two different exact computations touching the same diamond)
    never inflate the count — inflating it could make the bound dip below
    the true value, breaking OptBSearch's correctness.
    """

    __slots__ = ("_edges", "_links")

    def __init__(self) -> None:
        self._edges: Dict[Vertex, Set[FrozenSet[Vertex]]] = {}
        self._links: Dict[Vertex, Dict[FrozenSet[Vertex], Set[Vertex]]] = {}

    def record_edge(self, p: Vertex, x: Vertex, y: Vertex) -> None:
        """Record that the pair ``(x, y)`` of ``p``'s neighbours is adjacent."""
        self._edges.setdefault(p, set()).add(pair_key(x, y))

    def record_link(self, p: Vertex, x: Vertex, y: Vertex, connector: Vertex) -> None:
        """Record that ``connector`` joins the non-adjacent pair ``(x, y)`` in ``GE(p)``."""
        pairs = self._links.setdefault(p, {})
        pairs.setdefault(pair_key(x, y), set()).add(connector)

    def identified_edge_count(self, p: Vertex) -> int:
        """Return ``∗C̄p``."""
        return len(self._edges.get(p, ()))

    def identified_links(self, p: Vertex) -> Dict[FrozenSet[Vertex], Set[Vertex]]:
        """Return the identified connector sets ``∗Ŝp(u, v)`` for vertex ``p``."""
        return self._links.get(p, {})

    def upper_bound(self, p: Vertex, degree: int) -> float:
        """Return Lemma 3's dynamic bound ``˜ub(p)`` from the recorded facts."""
        return dynamic_upper_bound(
            degree, self.identified_edge_count(p), self.identified_links(p)
        )

    def discard(self, p: Vertex) -> None:
        """Drop the stored facts for ``p`` (called after its exact computation)."""
        self._edges.pop(p, None)
        self._links.pop(p, None)


class IdentifiedInfoCSR:
    """CSR-native identified-information store (packed-int fact logs).

    Mirrors :class:`IdentifiedInfo` for the compact backend, tuned for the
    observation that the searches *record* facts for thousands of touched
    vertices but *query* the bound for only a handful of popped ones.  Facts
    are appended to flat per-vertex logs of packed ints — one list append
    (or a C-level slice extend) per fact in the hot wedge loop, no set or
    nested-dict work — and aggregated lazily when :meth:`upper_bound` is
    evaluated.  Both logs key the neighbour pair ``(x, y)`` (``x < y``) as
    ``x * n + y``:

    * the *edge log* may contain duplicates (the same triangle is seen from
      both endpoints across different exact computations); they are removed
      with a ``set()`` at query time;
    * the *link log* counts by multiplicity: every exact computation of a
      vertex ``c`` appends each non-adjacent pair it connects **at most
      once** (a wedge ``x–w–y`` occurs once per ego enumeration, and each
      vertex is computed exactly once per search), so the number of log
      entries for a pair equals the number of *distinct* identified
      connectors — the quantity Lemma 3 needs.  Callers recording facts
      outside a search must uphold the same at-most-once-per-connector
      contract via :meth:`record_link`.

    Beyond plain packed ints, the kernels log *deferred references* —
    tuples pointing into the recording call's shared ego structures — so
    that the hot loop pays a single append per neighbour (edges) or per
    wedge centre (links) instead of one operation per fact:

    * edge entry ``(c, row)``: one identified edge ``(c, w)`` for every
      vertex id ``w`` in ``row``;
    * link entry ``(wedges, start, end)``: the packed pairs
      ``wedges[start:end]``, each with one (implicit) connector.
    """

    __slots__ = ("_n", "_edges", "_links", "_link_connectors")

    def __init__(self, num_vertices: int) -> None:
        self._n = num_vertices
        self._edges: Dict[int, list] = {}
        self._links: Dict[int, list] = {}
        # Guard set used only by the record_link() convenience API so that
        # out-of-search callers cannot inflate a count by re-recording the
        # same (pair, connector) fact; the kernels bypass it by contract.
        self._link_connectors: Set[tuple] = set()

    def record_edge(self, p: int, x: int, y: int) -> None:
        """Record that the pair ``(x, y)`` of ``p``'s neighbours is adjacent."""
        if x > y:
            x, y = y, x
        log = self._edges.get(p)
        if log is None:
            log = self._edges[p] = []
        log.append(x * self._n + y)

    def record_link(self, p: int, x: int, y: int, connector: int) -> None:
        """Record ``connector`` as joining the non-adjacent pair ``(x, y)`` in ``GE(p)``.

        Re-recording the same ``(p, pair, connector)`` fact is ignored, so
        the derived counts never overstate the distinct connectors.
        """
        if x > y:
            x, y = y, x
        pair = x * self._n + y
        guard = (p, pair, connector)
        if guard in self._link_connectors:
            return
        self._link_connectors.add(guard)
        log = self._links.get(p)
        if log is None:
            log = self._links[p] = []
        log.append(pair)

    def identified_edge_pairs(self, p: int) -> Set[int]:
        """Return the distinct identified-edge pair keys for ``p``."""
        log = self._edges.get(p)
        if not log:
            return set()
        n = self._n
        pairs: Set[int] = set()
        add = pairs.add
        for entry in log:
            if type(entry) is tuple:
                c, row = entry
                cn = c * n
                for w in row:
                    add(cn + w if c < w else w * n + c)
            else:
                add(entry)
        return pairs

    def identified_edge_count(self, p: int) -> int:
        """Return ``∗C̄p`` (distinct identified edges).

        Fast path for pure reference logs: within one entry ``(c, row)``
        every pair is distinct, and across entries the connectors ``c``
        differ, so the only possible duplicate of a pair ``{c_i, c_j}`` is
        its mirror recorded from the other endpoint's computation — both
        endpoints then own an entry and each lists the other, so the
        distinct count is ``Σ len(row) - |mutual listings| / 2``.
        """
        log = self._edges.get(p)
        if not log:
            return 0
        if any(type(entry) is not tuple for entry in log):
            return len(self.identified_edge_pairs(p))
        owners = {entry[0] for entry in log}
        total = 0
        mutual = 0
        intersection = owners.intersection
        for c, row in log:
            total += len(row)
            mutual += len(intersection(row))
        return total - mutual // 2

    def identified_link_counts(self, p: int) -> Dict[int, int]:
        """Return ``packed pair -> |∗Ŝp(pair)|`` (distinct connectors per pair)."""
        log = self._links.get(p)
        if not log:
            return {}
        flat: list = []
        extend = flat.extend
        for entry in log:
            if type(entry) is tuple:
                wedges, start, end = entry
                extend(wedges[start:end])
            else:
                flat.append(entry)
        return dict(Counter(flat))

    def upper_bound(self, p: int, degree: int) -> float:
        """Return Lemma 3's dynamic bound ``˜ub(p)`` from the recorded facts.

        Accumulates the per-count terms through the same sorted histogram as
        :func:`repro.core.bounds.dynamic_upper_bound`, so the two backends
        produce bit-identical bounds for identical identified facts.
        """
        bound = degree * (degree - 1) / 2.0
        if self._edges.get(p):
            bound -= self.identified_edge_count(p)
        if self._links.get(p):
            histogram = Counter(self.identified_link_counts(p).values())
            for count in sorted(histogram):
                bound -= histogram[count] * (1.0 - 1.0 / (count + 1))
        return bound

    def discard(self, p: int) -> None:
        """Drop the stored facts for ``p`` (called after its exact computation)."""
        self._edges.pop(p, None)
        self._links.pop(p, None)
