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
"hash"}``, auto = compact), and shares its update path: validate, mutate
the graph state once, then react (here: phases A–C below).  The compact
backend reads a :class:`~repro.graph.dynamic_csr.DynamicCompactGraph`
overlay, whose connector-count histograms one kernel sweep seeds at
construction and every update patches, so an exact recomputation the
laziness cannot avoid is a re-sum of a histogram.  The hash backend
recomputes by definition.  The decision sequence (which vertices are
recomputed, skipped, swapped) is deterministic and identical across
backends, so the ``exact_recomputations`` / ``skipped_recomputations``
counters and the maintained values agree exactly.

Ties follow the one top-k order (score descending, then
:func:`~repro._ordering.sort_key` ascending): the outsider heap is keyed on
``(-priority, sort_key)``, the threshold is the result member ranked last,
and an outsider enters only when it ranks strictly above it.

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
(``maintained_top_k(k)``, seeded from the session's exact values) over the
session's own graph state: the session patches that one state per update
and each maintainer reacts, so attaching one sweeps nothing and an update
patches no second copy.  Direct construction keeps a private copy of the
graph for standalone use.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro._ordering import sort_key
from repro.core.bounds import static_upper_bound
from repro.core.csr_kernels import dynamic_ego_score
from repro.core.ego_betweenness import ego_betweenness
from repro.core.topk import SearchStats, TopKResult, rank_entries
from repro.dynamic.local_update import GraphState, _Maintainer
from repro.errors import InvalidParameterError
from repro.graph.graph import Graph, Vertex

__all__ = ["LazyTopKMaintainer"]


class LazyTopKMaintainer(_Maintainer):
    """Maintains the exact top-k ego-betweenness set across edge updates.

    Parameters
    ----------
    graph:
        The initial graph (copied; later updates go through this object).
    k:
        Size of the maintained result set.
    backend:
        ``"auto"`` (default, resolves to ``"compact"``) runs on the mutable
        CSR overlay with patched connector-count histograms; ``"hash"``
        recomputes by definition.  Values, result sets and
        counters are identical either way.
    values:
        Optional precomputed exact ego-betweenness map for ``graph``.
        Without it the compact backend re-sums the overlay's seeded
        histograms and the hash backend computes every vertex.

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
    ) -> None:
        if k < 1:
            raise InvalidParameterError("k must be a positive integer")
        self._setup(self._private_state(graph, backend), k, values=values)

    def _setup(
        self, state: GraphState, k: int, values: Optional[Dict[Vertex, float]]
    ) -> None:
        self._hold(state)
        self._values: Dict[Vertex, float] = self._initial_values(values)
        self._k = k
        self._exact: Set[Vertex] = set(self._values)
        self._result: Set[Vertex] = set()
        self._heap: List[Tuple[float, tuple, Vertex]] = []
        self.exact_recomputations = 0
        self.skipped_recomputations = 0
        self._initialise_result()

    # ------------------------------------------------------------------
    # Public read API
    # ------------------------------------------------------------------
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

    def _degree(self, vertex: Vertex) -> int:
        dyn = self._dyn
        if dyn is not None:
            return dyn.degree(dyn.id_of(vertex))
        return self._state.degree(vertex)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """LazyInsert: apply the edge insertion and restore the top-k invariant."""
        self._update(u, v, inserting=True)

    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """LazyDelete: apply the edge deletion and restore the top-k invariant."""
        self._update(u, v, inserting=False)

    def _react(self, u: Vertex, v: Vertex, common: Set[Vertex], inserting: bool) -> None:
        """Restore the top-k invariant after the graph state took the update.

        An endpoint the insert created enters as an exact outsider of
        value 0; then :meth:`_apply_update` runs the lazy phases.
        """
        if inserting:
            for endpoint in (u, v):
                if endpoint not in self._values:
                    self._values[endpoint] = 0.0
                    self._exact.add(endpoint)
                    self._push(endpoint, 0.0)
        self._apply_update(uncertain=(u, v), monotone=common, decreasing=inserting)

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
            if (-priority, sort_key(vertex)) >= (-threshold, sort_key(threshold_vertex)):
                # No outsider ranks above the k-th entry: done.  Put the
                # candidate back so future updates still see it.
                self._push(vertex, priority)
                return probes
            if not is_exact:
                score = self._recompute(vertex)
                probes += 1
                self._push(vertex, score)
                continue
            # Exact outsider ranked above the k-th entry: swap.
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
        """Return the result member ranked last in the top-k order."""
        values = self._values
        return max(self._result, key=lambda p: (-values[p], sort_key(p)))

    def _recompute(self, vertex: Vertex) -> float:
        dyn = self._dyn
        if dyn is not None:
            score = dynamic_ego_score(dyn, dyn.id_of(vertex))
        else:
            score = ego_betweenness(self._state, vertex)
        self._values[vertex] = score
        self._exact.add(vertex)
        self.exact_recomputations += 1
        return score

    def _stale(self, vertex: Vertex, priority: float) -> None:
        """Mark ``vertex`` stale with ``priority`` as its upper-bound score.

        An outsider already has a heap entry at its stored value, so only a
        raised value is pushed.
        """
        self._exact.discard(vertex)
        stored = self._values.get(vertex)
        value = priority if stored is None else max(stored, priority)
        if value != stored:
            self._values[vertex] = value
            self._push(vertex, value)

    def _push(self, vertex: Vertex, priority: float) -> None:
        """Push an outsider's entry; compact the heap once it passes ``2n``.

        Every outsider holds an entry at its stored value, so the rebuilt
        heap pops the same valid entries in the same order, without the
        superseded ones.
        """
        heapq.heappush(self._heap, (-priority, sort_key(vertex), vertex))
        if len(self._heap) > 2 * len(self._values):
            values, result = self._values, self._result
            self._heap = [
                (-values[v], sort_key(v), v) for v in values if v not in result
            ]
            heapq.heapify(self._heap)

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
            if vertex in self._result:
                continue
            if priority != self._values.get(vertex):
                continue
            return vertex, priority, vertex in self._exact
        return None
