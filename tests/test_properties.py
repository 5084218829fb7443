"""Property-based tests (hypothesis) for the core invariants in DESIGN.md §5."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.base_search import base_b_search
from repro.core.bounds import bound_decomposition, static_upper_bound
from repro.core.ego_betweenness import (
    all_ego_betweenness,
    ego_betweenness,
    ego_betweenness_reference,
)
from repro.core.opt_search import opt_b_search
from repro.core.topk import rank_entries, top_k_ego_betweenness
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.local_update import EgoBetweennessIndex
from repro.graph.graph import Graph
from repro.graph.orientation import OrientedGraph
from repro.graph.triangles import count_triangles, enumerate_triangles
from repro.graph.validation import validate_orientation, validate_simple_graph
from repro.parallel.engines import edge_parallel_ego_betweenness, vertex_parallel_ego_betweenness

COMMON_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_vertices: int = 14):
    """Strategy generating small random simple graphs (possibly disconnected)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible_edges:
        edges = draw(
            st.lists(st.sampled_from(possible_edges), unique=True, max_size=len(possible_edges))
        )
    else:
        edges = []
    graph = Graph(vertices=range(n))
    for u, v in edges:
        graph.add_edge(u, v, exist_ok=True)
    return graph


@st.composite
def graphs_with_updates(draw):
    """A graph plus a replayable sequence of edge insertions/deletions."""
    graph = draw(random_graphs(max_vertices=10))
    n = graph.num_vertices
    operations = []
    working = graph.copy()
    steps = draw(st.integers(min_value=1, max_value=12))
    for _ in range(steps):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if not pairs:
            break
        u, v = draw(st.sampled_from(pairs))
        if working.has_edge(u, v):
            working.remove_edge(u, v)
            operations.append(("delete", u, v))
        else:
            working.add_edge(u, v)
            operations.append(("insert", u, v))
    return graph, operations


class TestKernelInvariants:
    @COMMON_SETTINGS
    @given(random_graphs())
    def test_wedge_kernel_equals_reference(self, graph):
        for v in graph.vertices():
            assert ego_betweenness(graph, v) == pytest.approx(
                ego_betweenness_reference(graph, v), abs=1e-9
            )

    @COMMON_SETTINGS
    @given(random_graphs())
    def test_static_bound_and_lemma1(self, graph):
        for v in graph.vertices():
            score = ego_betweenness(graph, v)
            assert 0.0 <= score <= static_upper_bound(graph.degree(v)) + 1e-9
            decomposition = bound_decomposition(graph, v)
            assert decomposition.is_consistent

    @COMMON_SETTINGS
    @given(random_graphs())
    def test_graph_and_orientation_invariants(self, graph):
        validate_simple_graph(graph)
        oriented = OrientedGraph(graph)
        validate_orientation(graph, oriented)
        triangles = list(enumerate_triangles(graph, oriented))
        assert len({frozenset(t) for t in triangles}) == len(triangles)
        assert count_triangles(graph) == len(triangles)


class TestSearchInvariants:
    @COMMON_SETTINGS
    @given(random_graphs(), st.integers(min_value=1, max_value=6))
    def test_searches_agree_with_naive(self, graph, k):
        # One top-k order: every search returns exactly the first k entries
        # of the ranked score map, tied vertices included.
        truth = rank_entries(all_ego_betweenness(graph).items())[:k]
        for backend in ("hash", "compact"):
            for method in ("base", "opt", "naive"):
                result = top_k_ego_betweenness(graph, k, method=method, backend=backend)
                assert result.entries == truth, (method, backend)

    @COMMON_SETTINGS
    @given(random_graphs(), st.integers(min_value=1, max_value=6))
    def test_searches_only_compute_viable_candidates(self, graph, k):
        # Lemma 3 guarantees the dynamic bound never undercuts the true
        # score, so both searches can only compute vertices whose *static*
        # bound still reaches the final top-k threshold.
        base = base_b_search(graph, k)
        opt = opt_b_search(graph, k)
        threshold = min(base.threshold, opt.threshold)
        candidates = sum(
            1 for d in graph.degrees().values() if static_upper_bound(d) >= threshold
        )
        assert opt.stats.exact_computations <= candidates
        assert base.stats.exact_computations <= candidates


class TestDynamicInvariants:
    @COMMON_SETTINGS
    @given(graphs_with_updates())
    def test_local_index_stays_exact(self, graph_and_updates):
        graph, operations = graph_and_updates
        index = EgoBetweennessIndex(graph)
        for operation, u, v in operations:
            if operation == "insert":
                index.insert_edge(u, v)
            else:
                index.delete_edge(u, v)
        fresh = all_ego_betweenness(index.graph)
        for vertex, value in fresh.items():
            assert index.score(vertex) == pytest.approx(value, abs=1e-9)

    @COMMON_SETTINGS
    @given(graphs_with_updates(), st.integers(min_value=1, max_value=5))
    def test_lazy_topk_stays_exact(self, graph_and_updates, k):
        graph, operations = graph_and_updates
        maintainer = LazyTopKMaintainer(graph, k)
        for operation, u, v in operations:
            if operation == "insert":
                maintainer.insert_edge(u, v)
            else:
                maintainer.delete_edge(u, v)
        truth = sorted(all_ego_betweenness(maintainer.graph).values(), reverse=True)
        expected = truth[: maintainer.k]
        got = [score for _, score in maintainer.top_k().entries]
        assert got == pytest.approx(expected, abs=1e-9)


class TestParallelInvariants:
    @COMMON_SETTINGS
    @given(random_graphs(), st.integers(min_value=1, max_value=6))
    def test_parallel_engines_equal_sequential(self, graph, workers):
        expected = all_ego_betweenness(graph)
        for engine in (vertex_parallel_ego_betweenness, edge_parallel_ego_betweenness):
            run = engine(graph, workers)
            assert run.scores.keys() == expected.keys()
            for vertex, value in expected.items():
                assert run.scores[vertex] == pytest.approx(value, abs=1e-9)
            assert 1.0 <= run.load_report.speedup <= workers + 1e-9 or run.load_report.total_work == 0
