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

Both maintainers share one update path (:class:`_Maintainer`): validate,
mutate the graph state once (:func:`mutate_edge`), then *react* to
``(u, v, N(u) ∩ N(v))``.  The canonical owner of this index is
:class:`repro.session.EgoSession`, which holds one graph state (the overlay,
or the hash graph on the oracle backend) for itself, this index and every
lazy top-k maintainer it attaches: each adopts that state instead of a copy
(:meth:`_Maintainer._adopt`), the session mutates it once per update, and
each consumer reacts.  The index is built at the static→dynamic promotion
(seeded with the values the session already computed, else re-summed from
the overlay's histograms) and serves ``scores()`` and naive ``top_k``.
Direct construction keeps a private copy of the graph for standalone use.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.csr_kernels import as_dynamic, dynamic_ego_score, normalize_backend
from repro.core.ego_betweenness import all_ego_betweenness, ego_betweenness
from repro.core.topk import top_entries
from repro.errors import SelfLoopError
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.graph import Graph, Vertex

__all__ = ["EgoBetweennessIndex", "affected_vertices", "mutate_edge"]

#: The mutable graph state of the dynamic maintainers: the CSR overlay
#: (compact backend) or a hash-set graph (the oracle).
GraphState = Union[DynamicCompactGraph, Graph]


def affected_vertices(graph: Graph, u: Vertex, v: Vertex) -> Set[Vertex]:
    """Return the vertices whose ego-betweenness an update of ``(u, v)`` touches.

    Observation 1: the affected set is ``{u, v} ∪ (N(u) ∩ N(v))``.  The graph
    must contain both endpoints; the edge itself may or may not be present.
    """
    affected = {u, v}
    if u in graph and v in graph:
        affected |= graph.common_neighbors(u, v)
    return affected


def mutate_edge(state: GraphState, u: Vertex, v: Vertex, inserting: bool) -> Set[Vertex]:
    """Insert or delete the edge ``(u, v)`` of ``state``; return ``N(u) ∩ N(v)``.

    The one mutation of an update, validated before anything changes: a
    self-loop raises :class:`SelfLoopError`, inserting an existing edge
    :class:`EdgeExistsError` and deleting an absent one
    :class:`EdgeNotFoundError`.  An insert adds missing endpoints.  On the
    overlay the mutation also patches the connector-count histograms of
    the affected vertices.
    """
    if inserting and u == v:
        raise SelfLoopError(u)
    if isinstance(state, Graph):
        if inserting:
            state.add_edge(u, v)
        else:
            state.remove_edge(u, v)
        return state.common_neighbors(u, v)
    common = state.insert_edge(u, v) if inserting else state.delete_edge(u, v)
    common.discard(u)
    common.discard(v)
    return common


class _Maintainer:
    """The update path and graph state both dynamic maintainers share.

    A maintainer reads one :data:`GraphState`.  Direct construction gives
    it a private copy of the caller's graph; :meth:`_adopt` builds it over
    a state its owner already holds, so one state (and on the overlay one
    set of histograms) serves every consumer.  An update is validate +
    mutate (:func:`mutate_edge`) + :meth:`_react`; an adopted maintainer
    is driven by its owner, which mutates the shared state once and then
    calls each consumer's :meth:`_react`.
    """

    def _hold(self, state: GraphState) -> None:
        self._state = state
        self._dyn: Optional[DynamicCompactGraph] = (
            state if isinstance(state, DynamicCompactGraph) else None
        )
        self.backend = "hash" if self._dyn is None else "compact"
        self._view: Optional[Tuple[int, Graph]] = None
        self.last_update_seconds = 0.0
        self.last_mutation_seconds = 0.0

    @staticmethod
    def _private_state(graph, backend: str) -> GraphState:
        """A copy of ``graph`` on ``backend`` that the caller never sees mutate."""
        if normalize_backend(backend) == "compact":
            return as_dynamic(graph)
        return graph.copy()

    @classmethod
    def _adopt(cls, state: GraphState, *args, values=None):
        """Build the maintainer over ``state`` itself instead of a copy.

        The owner keeps the only write path: it applies every update to
        ``state`` with :func:`mutate_edge` and then calls :meth:`_react`.
        """
        maintainer = cls.__new__(cls)
        maintainer._setup(state, *args, values=values)
        return maintainer

    def _initial_values(self, values: Optional[Dict[Vertex, float]]) -> Dict[Vertex, float]:
        """A copy of ``values``, else every vertex's exact value: re-summed
        from the overlay's histograms, or computed on the hash graph."""
        if values is not None:
            return dict(values)
        dyn = self._dyn
        if dyn is None:
            return all_ego_betweenness(self._state)
        return {label: dynamic_ego_score(dyn, pid) for pid, label in enumerate(dyn.labels)}

    @property
    def graph(self) -> Graph:
        """The graph the maintainer currently reflects (treat as read-only).

        On the compact backend a hash-set view is materialised lazily and
        cached until the next update.
        """
        dyn = self._dyn
        if dyn is None:
            return self._state
        if self._view is None or self._view[0] != dyn.version:
            self._view = (dyn.version, dyn.to_graph())
        return self._view[1]

    def _update(self, u: Vertex, v: Vertex, inserting: bool):
        """Validate + mutate + react, timed into ``last_update_seconds``
        (the mutation's share into ``last_mutation_seconds``)."""
        start = time.perf_counter()
        common = mutate_edge(self._state, u, v, inserting)
        self.last_mutation_seconds = time.perf_counter() - start
        result = self._react(u, v, common, inserting)
        self.last_update_seconds = time.perf_counter() - start
        return result

    def _react(self, u: Vertex, v: Vertex, common: Set[Vertex], inserting: bool):
        raise NotImplementedError


class EgoBetweennessIndex(_Maintainer):
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
    ) -> None:
        self._setup(self._private_state(graph, backend), values=values)

    def _setup(self, state: GraphState, values: Optional[Dict[Vertex, float]]) -> None:
        self._hold(state)
        self._scores: Dict[Vertex, float] = self._initial_values(values)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter bumped by every applied update (cache keying)."""
        return self._state.version

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the maintained graph."""
        return self._state.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges of the maintained graph."""
        return self._state.num_edges

    def compact_snapshot(self) -> "CompactGraph":
        """Return an immutable CSR snapshot of the current graph state.

        Memoised per :attr:`version` (by the overlay, or by the hash
        graph's conversion memo): between updates every caller receives
        the *same* ``CompactGraph`` object, so its cached search orders and
        memoised ego summaries stay warm across repeated queries.
        """
        if self._dyn is not None:
            return self._dyn.snapshot()
        return self._state.to_compact()

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
        return self._update(u, v, inserting=True)

    def delete_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """LocalDelete: remove edge ``(u, v)`` and refresh the affected scores.

        Returns the set of vertices whose score was updated.  Raises
        :class:`EdgeNotFoundError` when the edge is absent.
        """
        return self._update(u, v, inserting=False)

    def _react(self, u: Vertex, v: Vertex, common: Set[Vertex], inserting: bool) -> Set[Vertex]:
        """Refresh the Observation-1 affected scores of a mutated state.

        The overlay re-sums each patched histogram; the hash oracle
        recomputes each ego network by definition.
        """
        affected = {u, v}
        affected |= common
        scores = self._scores
        dyn = self._dyn
        if dyn is None:
            graph = self._state
            for p in affected:
                scores[p] = ego_betweenness(graph, p)
        else:
            id_of = dyn.id_of
            for p in affected:
                scores[p] = dynamic_ego_score(dyn, id_of(p))
        return affected
