"""Parity and lifecycle suite for the :class:`repro.session.EgoSession` facade.

The session is the canonical entry point; every legacy door —
``top_k_ego_betweenness``, ``base_b_search`` / ``opt_b_search``,
``EgoBetweennessIndex``, ``LazyTopKMaintainer``, the parallel engines and
the CLI — must produce bit-identical entries, scores and work counters
through it.  The suite also pins the lifecycle semantics: backend
negotiation, the one-time static→dynamic promotion (reusing the memoised
values map), capability errors, and the hypothesis stream test that replays
mixed updates in two batches and checks the session against a fresh
hash-oracle recomputation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_search import base_b_search
from repro.core.csr_kernels import normalize_backend
from repro.core.ego_betweenness import all_ego_betweenness, ego_betweenness
from repro.core.opt_search import opt_b_search
from repro.core.topk import rank_entries, top_k_ego_betweenness
from repro.datasets.registry import load_dataset
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex
from repro.dynamic.stream import apply_stream, generate_update_stream
from repro.errors import InvalidParameterError, VertexNotFoundError
from repro.graph.csr import CompactGraph
from repro.graph.dynamic_csr import DynamicCompactGraph
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.graph import Graph
from repro.session import EgoSession


def _labelled_graph() -> Graph:
    return Graph(
        edges=[("alpha", "beta"), ("beta", "gamma"), ("alpha", "gamma"),
               ("gamma", "delta"), ("delta", "epsilon"), ("beta", "delta"),
               ((0, "a"), (1, "b")), ((1, "b"), "alpha")],
        vertices=["isolated-1", (9, "iso")],
    )


GRAPHS = {
    "ba": lambda: barabasi_albert_graph(80, 3, seed=5),
    "gnp": lambda: erdos_renyi_graph(60, 0.12, seed=11),
    "labelled": _labelled_graph,
    "dblp": lambda: load_dataset("dblp", scale=0.1),
}


def _open(graph: Graph, backend: str) -> EgoSession:
    """A session on ``graph``; ``"dynamic"`` opens it on an overlay source."""
    if backend == "dynamic":
        return EgoSession(DynamicCompactGraph.from_graph(graph))
    return EgoSession(graph, backend=backend)


@pytest.fixture(params=sorted(GRAPHS))
def graph(request) -> Graph:
    return GRAPHS[request.param]()


class TestBackendNegotiation:
    def test_auto_resolves_compact_for_static_sources(self):
        assert EgoSession(Graph(edges=[(0, 1)])).backend == "compact"
        assert EgoSession(CompactGraph.from_edges([(0, 1)])).backend == "compact"

    def test_auto_resolves_compact_for_overlays(self):
        overlay = DynamicCompactGraph.from_graph(Graph(edges=[(0, 1)]))
        assert EgoSession(overlay).backend == "compact"

    def test_edge_list_and_dataset_sources(self):
        assert EgoSession([(0, 1), (1, 2)]).num_edges == 2
        session = EgoSession("dblp", scale=0.08)
        assert session.num_vertices > 0

    def test_unknown_backend_names_accepted_values(self):
        with pytest.raises(InvalidParameterError, match="auto.*compact.*hash"):
            EgoSession(Graph(edges=[(0, 1)]), backend="gpu")

    def test_normalize_backend_error_lists_values_and_graph_types(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            normalize_backend("spark")
        message = str(excinfo.value)
        for expected in ("'auto'", "'compact'", "'hash'", "CompactGraph", "Graph"):
            assert expected in message

    def test_overlay_options_rejected_on_hash(self):
        with pytest.raises(TypeError):
            EgoSession(Graph(edges=[(0, 1)]), backend="hash", rebuild_ratio=0.5)


class TestSearchParity:
    @pytest.mark.parametrize("algorithm", ["opt", "base", "naive"])
    def test_session_matches_hash_oracle(self, graph, algorithm):
        session = EgoSession(graph)  # compact
        oracle = EgoSession(graph, backend="hash")
        for k in (1, 3, 10):
            fast = session.top_k(k, algorithm=algorithm)
            slow = oracle.top_k(k, algorithm=algorithm)
            assert fast.entries == slow.entries
            assert fast.stats.exact_computations == slow.stats.exact_computations
            assert fast.stats.bound_updates == slow.stats.bound_updates
            assert fast.stats.repushes == slow.stats.repushes
            assert fast.stats.pruned_vertices == slow.stats.pruned_vertices

    def test_legacy_wrappers_match_session(self, graph):
        session = EgoSession(graph)
        assert top_k_ego_betweenness(graph, 5).entries == session.top_k(5).entries
        assert (
            base_b_search(graph, 5, backend="compact").entries
            == session.top_k(5, algorithm="base").entries
        )
        assert (
            opt_b_search(graph, 5, backend="compact").entries
            == session.top_k(5, algorithm="opt").entries
        )
        assert (
            top_k_ego_betweenness(graph, 5, method="naive", backend="hash").entries
            == session.top_k(5, algorithm="naive").entries
        )

    def test_repeated_queries_are_warm_and_identical(self, graph):
        session = EgoSession(graph)
        first = session.top_k(4)
        second = session.top_k(4)
        assert first.entries == second.entries
        assert session.stats().queries["top_k"] == 2

    def test_invalid_parameters(self):
        session = EgoSession(Graph(edges=[(0, 1), (1, 2)]))
        with pytest.raises(InvalidParameterError):
            session.top_k(0)
        with pytest.raises(InvalidParameterError):
            session.top_k(2, algorithm="quantum")
        with pytest.raises(InvalidParameterError):
            session.top_k(2, theta=0.5)


class TestScoringParity:
    def test_score_and_scores_match_oracle(self, graph):
        session = EgoSession(graph)
        truth = all_ego_betweenness(graph)
        assert session.scores() == truth
        for vertex in list(truth)[:10]:
            assert session.score(vertex) == truth[vertex]

    def test_subset_scores(self, graph):
        session = EgoSession(graph)
        vertices = graph.vertices()[:5]
        subset = session.scores(vertices=vertices)
        assert subset == {v: ego_betweenness(graph, v) for v in vertices}

    def test_parallel_scores_match_sequential(self, graph):
        session = EgoSession(graph)
        truth = session.scores()
        for engine in ("edge", "vertex"):
            assert session.parallel_scores(3, engine=engine).scores == truth
        run = session.parallel_scores(4)
        assert run.scores == truth
        assert run.num_workers == 4

    def test_parallel_full_map_seeds_the_memo(self):
        graph = barabasi_albert_graph(40, 2, seed=7)
        session = EgoSession(graph)
        session.scores(parallel=2)
        assert session.stats().values_cached is True
        # The later naive top-k and score() probes reuse the memoised map.
        truth = all_ego_betweenness(graph)
        assert session.score(graph.vertices()[0]) == truth[graph.vertices()[0]]
        got = session.top_k(5, algorithm="naive")
        expected = top_k_ego_betweenness(graph, 5, method="naive", backend="hash")
        assert got.entries == expected.entries

    def test_unknown_engine_rejected(self):
        session = EgoSession(Graph(edges=[(0, 1)]))
        with pytest.raises(InvalidParameterError):
            session.parallel_scores(2, engine="gpu")


READ_CALLS = {
    "score": lambda session, vertex, parallel: session.score(vertex),
    "scores": lambda session, vertex, parallel: session.scores(
        [vertex], parallel=parallel
    ),
    "scores_batch": lambda session, vertex, parallel: session.scores_batch(
        [[vertex]], parallel=parallel
    ),
}


class TestReadPlanner:
    """Every read goes through one planner: one source per state."""

    @pytest.mark.parametrize("parallel", (None, 2))
    @pytest.mark.parametrize("call", sorted(READ_CALLS))
    @pytest.mark.parametrize("state", ("cold", "memo", "applied"))
    @pytest.mark.parametrize("backend", ("compact", "hash", "dynamic"))
    def test_unknown_vertex_raises_on_every_route(self, backend, state, call, parallel):
        graph = barabasi_albert_graph(30, 2, seed=3)
        with _open(graph, backend) as session:
            if state == "memo":
                session.scores(parallel=parallel)
            elif state == "applied":
                u = graph.vertices()[0]
                v = next(x for x in graph.vertices() if x != u and not graph.has_edge(u, x))
                session.apply(("insert", u, v))
            with pytest.raises(VertexNotFoundError):
                READ_CALLS[call](session, "missing", parallel)

    def test_static_reads_share_one_batch(self):
        graph = barabasi_albert_graph(60, 3, seed=2)
        oracle = all_ego_betweenness(graph)
        with EgoSession(graph) as session:
            assert session.scores(parallel=2) == oracle
            assert session.scores(parallel=2) == oracle
            assert session.scores_batch([None], parallel=2) == [oracle]
            top = session.top_k(5, parallel=2)
            assert top.entries == rank_entries(oracle.items())[:5]
            assert session.runtime_stats()["serial"].batches == 1

    def test_dynamic_reads_build_the_index_from_the_held_histograms(self):
        graph = barabasi_albert_graph(60, 3, seed=2)
        with EgoSession(graph) as session:
            session.apply(("delete", *next(iter(graph.edges()))))
            top = session.top_k(5, parallel=2)
            full = session.scores_batch([None], parallel=2)[0]
            vertex = graph.vertices()[0]
            probe = session.scores([vertex])
            # The overlay holds every histogram: the index re-sums them and
            # no read runs a runtime batch.
            assert "serial" not in session.runtime_stats()
            assert session.stats().values_cached is True
            oracle = all_ego_betweenness(session.to_graph())
            assert full == oracle
            assert probe == {vertex: oracle[vertex]}
            assert top.entries == rank_entries(oracle.items())[:5]


class TestPromotion:
    def test_first_apply_promotes_and_reuses_values(self):
        graph = barabasi_albert_graph(60, 3, seed=3)
        session = EgoSession(graph)
        session.scores()  # memoise the values map
        assert session.stats().state == "static"
        session.apply(("insert", 0, 59) if not graph.has_edge(0, 59) else ("delete", 0, 59))
        stats = session.stats()
        assert stats.state == "dynamic"
        assert stats.promotions == 1
        assert stats.values_reused_on_promotion is True
        # A second apply must not promote again.
        session.apply(("insert", 1, 58) if not graph.has_edge(1, 58) else ("delete", 1, 58))
        assert session.stats().promotions == 1

    def test_promotion_without_values_computes_them(self):
        graph = barabasi_albert_graph(40, 2, seed=9)
        session = EgoSession(graph)
        session.apply(("delete", *graph.edge_list()[0]))
        stats = session.stats()
        assert stats.state == "dynamic"
        assert stats.values_reused_on_promotion is False
        expected = graph.copy()
        expected.remove_edge(*graph.edge_list()[0])
        assert session.scores() == all_ego_betweenness(expected)

    def test_hash_backend_promotes_too(self):
        graph = erdos_renyi_graph(30, 0.15, seed=4)
        session = EgoSession(graph, backend="hash")
        session.scores()
        u, v = graph.edge_list()[0]
        session.apply(("delete", u, v))
        expected = graph.copy()
        expected.remove_edge(u, v)
        assert session.scores() == all_ego_betweenness(expected)
        assert session.stats().values_reused_on_promotion is True


class TestMaintainedTopK:
    def _stream(self, graph, count=40, seed=13):
        return generate_update_stream(graph, count, seed=seed, insert_fraction=0.5)

    @pytest.mark.parametrize("backend", ["compact", "hash"])
    def test_lazy_mode_matches_legacy_maintainer(self, backend):
        graph = barabasi_albert_graph(60, 3, seed=21)
        stream = self._stream(graph)
        session = EgoSession(graph, backend=backend)
        session.maintained_top_k(5)  # attach before the stream
        legacy = LazyTopKMaintainer(graph, 5, backend=backend)
        apply_stream(session, stream)
        apply_stream(legacy, stream)
        assert session.maintained_top_k(5).entries == legacy.top_k().entries
        counters = session.lazy_counters(5)
        assert counters["exact_recomputations"] == legacy.exact_recomputations
        assert counters["skipped_recomputations"] == legacy.skipped_recomputations

    @pytest.mark.parametrize("backend", ["compact", "hash"])
    def test_index_mode_matches_legacy_index(self, backend):
        graph = erdos_renyi_graph(50, 0.1, seed=8)
        stream = self._stream(graph, count=30)
        session = EgoSession(graph, backend=backend)
        session.scores()  # demand values: the index maintains in lockstep
        legacy = EgoBetweennessIndex(graph, backend=backend)
        apply_stream(session, stream)
        apply_stream(legacy, stream)
        assert session.top_k(6, "naive").entries == legacy.top_k(6)
        assert session.scores() == legacy.scores()

    def test_lazy_only_session_defers_the_index(self):
        graph = barabasi_albert_graph(50, 2, seed=33)
        stream = self._stream(graph, count=20)
        session = EgoSession(graph)
        session.maintained_top_k(4)
        apply_stream(session, stream)
        # No full-values consumer has appeared: the exact index was never
        # built, so updates cost only topology + lazy work.
        stats = session.stats()
        assert stats.state == "dynamic"
        assert stats.values_cached is False
        assert session.maintenance_seconds()["index"] == 0.0
        assert session.maintenance_seconds()["lazy"][4] > 0.0
        # First scores() demand builds the index fresh at the current state:
        # bit-identical to a from-scratch oracle recomputation.
        oracle = graph.copy()
        apply_stream(oracle, stream)
        assert session.scores() == all_ego_betweenness(oracle)
        assert session.stats().values_cached is True

    def test_lazy_and_index_modes_agree(self):
        graph = barabasi_albert_graph(50, 2, seed=2)
        session = EgoSession(graph)
        session.maintained_top_k(4)
        apply_stream(session, self._stream(graph, count=25))
        lazy = session.maintained_top_k(4)
        session.promote()
        assert session.top_k(4, "naive").entries == lazy.entries

    @pytest.mark.parametrize("backend", ["compact", "dynamic", "hash"])
    def test_naive_ranking_equals_the_index_after_every_batch(self, backend):
        # One top-k order: ranking the session index's values, a
        # standalone index's own top_k and the lazy maintainer pick the same
        # tied vertices, whatever order the values map is in after the
        # updates.
        graph = erdos_renyi_graph(40, 0.08, seed=3)  # sparse: many tied scores
        stream = self._stream(graph, count=60)
        session = _open(graph, backend)
        index = EgoBetweennessIndex(graph, backend="hash" if backend == "hash" else "auto")
        for k in (1, 5, 12):
            session.maintained_top_k(k)
        for start in range(0, len(stream), 6):
            session.apply(stream[start : start + 6])
            apply_stream(index, stream[start : start + 6])
            for k in (1, 5, 12):
                naive = session.top_k(k, algorithm="naive").entries
                assert naive == index.top_k(k)
                assert naive == session.maintained_top_k(k).entries

    def test_maintenance_seconds_split_per_component(self):
        graph = barabasi_albert_graph(50, 2, seed=17)
        session = EgoSession(graph)
        session.scores()  # demand values so the index exists and is driven
        session.maintained_top_k(3)
        apply_stream(session, self._stream(graph, count=20))
        timings = session.maintenance_seconds()
        assert timings["index"] > 0.0
        assert timings["lazy"][3] > 0.0

    def test_unknown_mode_rejected(self):
        session = EgoSession(Graph(edges=[(0, 1)]))
        with pytest.raises(TypeError, match="mode"):
            session.maintained_top_k(2, mode="index")

    def test_lazy_counters_require_attached_maintainer(self):
        session = EgoSession(Graph(edges=[(0, 1)]))
        with pytest.raises(InvalidParameterError, match="maintained_top_k"):
            session.lazy_counters(3)


class TestPromotionStreamHypothesis:
    """Satellite: bit-identical values/top-k across promotion and updates."""

    @settings(max_examples=20, deadline=None)
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        stream_seed=st.integers(min_value=0, max_value=10_000),
        insert_fraction=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=1, max_value=8),
    )
    def test_session_matches_fresh_hash_oracle(
        self, graph_seed, stream_seed, insert_fraction, k
    ):
        graph = erdos_renyi_graph(28, 0.15, seed=graph_seed)
        stream = generate_update_stream(
            graph, 24, seed=stream_seed, insert_fraction=insert_fraction
        )
        session = EgoSession(graph)
        hash_session = EgoSession(graph, backend="hash")
        for s in (session, hash_session):
            s.scores()  # warm values so the promotion reuses them
            s.apply(stream[: len(stream) // 2])
            s.apply(stream[len(stream) // 2 :])

        oracle = graph.copy()
        apply_stream(oracle, stream)
        truth = all_ego_betweenness(oracle)

        # Maintained values: bit-identical across backends and to a fresh
        # hash-oracle recomputation.
        maintained = session.scores()
        assert maintained == hash_session.scores()
        assert maintained == truth

        # A top-k *search* on the session runs fresh on the current
        # snapshot, so it is bit-identical to the oracle search — entries,
        # scores and counters.
        fast = session.top_k(k)
        slow = top_k_ego_betweenness(oracle, k, backend="hash")
        assert fast.entries == slow.entries
        assert fast.stats.exact_computations == slow.stats.exact_computations

        # The maintained top-k and a naive ranking of the index return the
        # oracle's entries, ties included.
        for result in (session.top_k(k, "naive"), session.maintained_top_k(k)):
            assert result.entries == slow.entries

        stats = session.stats()
        assert stats.promotions == 1
        assert stats.values_reused_on_promotion is True
        assert stats.update_events == len(stream)


class TestSnapshotsAndStats:
    def test_static_snapshot_is_pinned_and_shared(self):
        graph = barabasi_albert_graph(30, 2, seed=1)
        session = EgoSession(graph)
        assert session.snapshot() is session.snapshot()
        # The graph-level conversion memo makes unrelated callers share it.
        assert graph.to_compact() is session.snapshot()

    def test_graph_to_compact_memo_invalidated_by_mutation(self):
        graph = barabasi_albert_graph(20, 2, seed=6)
        first = graph.to_compact()
        assert graph.to_compact() is first
        graph.add_edge(0, 19) if not graph.has_edge(0, 19) else graph.remove_edge(0, 19)
        second = graph.to_compact()
        assert second is not first
        assert second is graph.to_compact()

    def test_dynamic_snapshot_tracks_updates(self):
        session = EgoSession(Graph(edges=[(0, 1), (1, 2)]))
        session.apply(("insert", 0, 2))
        snapshot = session.snapshot()
        assert snapshot.num_edges == 3
        assert session.snapshot() is snapshot  # memoised per version
        session.apply(("insert", 2, 3))
        assert session.snapshot().num_edges == 4

    def test_stats_shape_and_counters(self):
        session = EgoSession([(0, 1), (1, 2), (0, 2)])
        session.top_k(2)
        session.score(0)
        payload = session.stats().as_dict()
        assert payload["backend"] == "compact"
        assert payload["state"] == "static"
        assert payload["queries"] == {"top_k": 1, "score": 1}
        assert payload["last_query"]["kind"] == "score"

    def test_apply_accepts_events_tuples_and_streams(self):
        session = EgoSession([(0, 1), (1, 2)])
        from repro.dynamic.stream import UpdateEvent

        assert session.apply(UpdateEvent("insert", 0, 2)) == 1
        assert session.apply([("delete", 0, 2), ("insert", 2, 3)]) == 2
        with pytest.raises(InvalidParameterError):
            session.apply("insert 0 2")

    @pytest.mark.parametrize("backend", ["compact", "hash"])
    def test_index_snapshot_accessors(self, backend):
        graph = barabasi_albert_graph(30, 2, seed=12)
        index = EgoBetweennessIndex(graph, backend=backend)
        assert index.num_vertices == graph.num_vertices
        assert index.num_edges == graph.num_edges
        before = index.version
        snap = index.compact_snapshot()
        assert index.compact_snapshot() is snap or backend == "hash"
        index.insert_edge("new-a", "new-b")
        assert index.version > before
        assert index.num_vertices == graph.num_vertices + 2
        after = index.compact_snapshot()
        assert after.num_edges == graph.num_edges + 1
        assert index.compact_snapshot() is after or backend == "hash"

    def test_score_unknown_vertex_raises_vertex_not_found(self):
        from repro.errors import VertexNotFoundError

        graph = Graph(edges=[(0, 1), (1, 2)])
        session = EgoSession(graph)
        with pytest.raises(VertexNotFoundError):
            session.score("missing")
        session.scores()  # memoised path
        with pytest.raises(VertexNotFoundError):
            session.score("missing")
        session.apply(("insert", 0, 2))  # dynamic/index path
        with pytest.raises(VertexNotFoundError):
            session.score("missing")

    @pytest.mark.parametrize("backend", ["hash", "compact"])
    def test_to_graph_on_promoted_hash_session_is_a_copy(self, backend):
        graph = Graph(edges=[(0, 1), (1, 2)])
        session = EgoSession(graph, backend=backend)
        session.apply(("insert", 0, 2))
        view = session.to_graph()
        view.remove_edge(0, 2)  # must not corrupt the session topology
        view.add_edge(0, 3)
        assert session.to_graph().has_edge(0, 2)
        assert not session.to_graph().has_edge(0, 3)

    def test_to_graph_round_trip(self):
        graph = _labelled_graph()
        session = EgoSession(graph)
        assert session.to_graph() == graph
        session.apply(("insert", "alpha", "epsilon"))
        mutated = graph.copy()
        mutated.add_edge("alpha", "epsilon")
        assert session.to_graph() == mutated
