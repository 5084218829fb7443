"""Parity suite: the CSR backend must match the hash-set oracle exactly.

The compact backend is only allowed to be *faster* — every kernel and both
search algorithms must produce the same scores (bit-identical, thanks to the
canonical histogram summation shared by both backends), the same ranking and
the same work counters as the hash implementations, on every registry
dataset, on random graphs, and on graphs with non-integer labels and
isolated vertices.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_search import base_b_search
from repro.core.bounds import bound_decomposition
from repro.core.csr_kernels import (
    CSRChunkKernel,
    all_ego_betweenness_csr,
    as_compact,
    base_b_search_csr,
    bound_decomposition_csr,
    ego_betweenness_csr,
    opt_b_search_csr,
)
from repro.core.ego_betweenness import (
    all_ego_betweenness,
    ego_betweenness,
    ego_betweenness_reference,
)
from repro.core.opt_search import opt_b_search
from repro.core.spath_map import IdentifiedInfo, IdentifiedInfoCSR
from repro.core.topk import top_k_ego_betweenness
from repro.datasets.registry import dataset_names, load_dataset
from repro.errors import InvalidParameterError, VertexNotFoundError
from repro.graph.csr import (
    CompactGraph,
    gallop_intersect_size,
    intersect_size_sorted,
    intersect_sorted,
)
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph, star_graph
from repro.graph.graph import Graph

from tests.conftest import graph_families

DATASET_SCALE = 0.08


def _stats_tuple(result):
    s = result.stats
    return (s.exact_computations, s.bound_updates, s.repushes, s.pruned_vertices)


def _assert_results_identical(hash_result, csr_result):
    assert hash_result.vertices == csr_result.vertices
    for (va, sa), (vb, sb) in zip(hash_result.entries, csr_result.entries):
        assert va == vb
        assert sa == pytest.approx(sb, abs=1e-9)
    assert _stats_tuple(hash_result) == _stats_tuple(csr_result)


def _labelled_variants():
    """Graphs with string/tuple labels and isolated vertices."""
    string_graph = Graph(
        edges=[("alpha", "beta"), ("beta", "gamma"), ("alpha", "gamma"),
               ("gamma", "delta"), ("delta", "epsilon"), ("beta", "delta")],
        vertices=["isolated-1", "isolated-2"],
    )
    tuple_graph = Graph(
        edges=[((0, "a"), (1, "b")), ((1, "b"), (2, "c")), ((0, "a"), (2, "c")),
               ((2, "c"), (3, "d")), ((3, "d"), (0, "a"))],
        vertices=[(9, "iso")],
    )
    return {"strings": string_graph, "tuples": tuple_graph}


def _parity_graphs():
    graphs = dict(graph_families())
    graphs.update(_labelled_variants())
    graphs["isolated-only"] = Graph(vertices=[1, 2, 3])
    graphs["empty"] = Graph()
    return graphs


# ----------------------------------------------------------------------
# CompactGraph structure
# ----------------------------------------------------------------------
class TestCompactGraphStructure:
    @pytest.mark.parametrize("name,graph", sorted(_parity_graphs().items()))
    def test_round_trip(self, name, graph):
        compact = graph.to_compact()
        back = compact.to_graph()
        assert back == graph
        assert compact.num_vertices == graph.num_vertices
        assert compact.num_edges == graph.num_edges

    def test_id_label_bijection(self):
        graph = _labelled_variants()["strings"]
        compact = CompactGraph.from_graph(graph)
        for label in graph.vertices():
            assert compact.label_of(compact.id_of(label)) == label
        assert compact.has_vertex("alpha")
        assert not compact.has_vertex("zeta")
        with pytest.raises(VertexNotFoundError):
            compact.id_of("zeta")

    def test_degrees_and_edges(self, social_graph):
        compact = social_graph.to_compact()
        degrees = compact.degrees_by_label()
        assert degrees == social_graph.degrees()
        assert compact.max_degree() == social_graph.max_degree()
        for u, v in social_graph.edge_list():
            assert compact.has_edge_ids(compact.id_of(u), compact.id_of(v))
            assert compact.has_edge_ids(compact.id_of(v), compact.id_of(u))
        a, b = social_graph.vertices()[:2]
        assert compact.has_edge_ids(compact.id_of(a), compact.id_of(b)) == social_graph.has_edge(a, b)

    def test_neighbor_rows_sorted(self, collaboration_graph):
        compact = collaboration_graph.to_compact()
        for i in range(compact.num_vertices):
            row = list(compact.neighbor_ids(i))
            assert row == sorted(row)
            labels = {compact.label_of(j) for j in row}
            assert labels == set(collaboration_graph.neighbors(compact.label_of(i)))

    def test_common_neighbor_count(self, small_random_graph):
        compact = small_random_graph.to_compact()
        vertices = small_random_graph.vertices()
        for u in vertices[:10]:
            for v in vertices[10:20]:
                expected = len(small_random_graph.common_neighbors(u, v))
                assert compact.common_neighbor_count(compact.id_of(u), compact.id_of(v)) == expected

    def test_intersection_primitives(self):
        assert intersect_sorted([1, 2, 5], [2, 5, 9]) == [2, 5]
        assert intersect_size_sorted([], [1, 2]) == 0
        assert gallop_intersect_size([2, 900], list(range(0, 1000, 2))) == 2
        big = list(range(0, 2000, 2))
        small = [3, 4, 1000, 1999]
        assert gallop_intersect_size(small, big) == intersect_size_sorted(small, big)

    def test_dense_adjacency_bitmap(self, triangle_graph):
        compact = triangle_graph.to_compact()
        dense = compact.dense_adjacency()
        n = compact.num_vertices
        assert dense is not None
        for u in range(n):
            for v in range(n):
                assert bool(dense[u * n + v]) == compact.has_edge_ids(u, v) if u != v else True

    def test_arrays_payload_round_trip(self, small_random_graph):
        import pickle

        compact = small_random_graph.to_compact()
        payload = pickle.loads(pickle.dumps(compact.arrays()))
        indptr, indices = payload
        assert list(indptr) == compact.indptr
        assert list(indices) == compact.indices


# ----------------------------------------------------------------------
# Kernel parity
# ----------------------------------------------------------------------
class TestKernelParity:
    @pytest.mark.parametrize("name,graph", sorted(_parity_graphs().items()))
    def test_ego_betweenness_matches_hash_kernel(self, name, graph):
        compact = graph.to_compact()
        for vertex in graph.vertices():
            assert ego_betweenness_csr(compact, vertex) == ego_betweenness(graph, vertex)

    @pytest.mark.parametrize(
        "name,graph",
        [(n, g) for n, g in sorted(_parity_graphs().items()) if g.num_vertices <= 60],
    )
    def test_ego_betweenness_matches_reference(self, name, graph):
        compact = graph.to_compact()
        for vertex in graph.vertices():
            assert ego_betweenness_csr(compact, vertex) == pytest.approx(
                ego_betweenness_reference(graph, vertex), abs=1e-9
            )

    @pytest.mark.parametrize("name,graph", sorted(_parity_graphs().items()))
    def test_all_ego_betweenness_parity(self, name, graph):
        assert all_ego_betweenness_csr(graph.to_compact()) == all_ego_betweenness(graph)

    def test_from_arrays_matches(self, social_graph):
        # A worker's kernel holds only the two raw arrays, no labels.
        compact = social_graph.to_compact()
        ids = list(range(compact.num_vertices))
        kernel = CSRChunkKernel(compact.indptr, compact.indices, kernel="python")
        scores = kernel.score_chunk(ids)
        expected = all_ego_betweenness_csr(compact)
        assert scores == {i: expected[compact.label_of(i)] for i in ids}

    @pytest.mark.parametrize("name,graph", sorted(_parity_graphs().items()))
    def test_bound_decomposition_parity(self, name, graph):
        compact = graph.to_compact()
        for vertex in graph.vertices():
            expected = bound_decomposition(graph, vertex)
            got = bound_decomposition_csr(compact, vertex)
            assert got == expected
            assert got.is_consistent

    def test_as_compact_passthrough_and_errors(self, triangle_graph):
        compact = triangle_graph.to_compact()
        assert as_compact(compact) is compact
        assert as_compact(triangle_graph).num_edges == 3
        with pytest.raises(TypeError):
            as_compact({"not": "a graph"})


# ----------------------------------------------------------------------
# Search parity
# ----------------------------------------------------------------------
class TestSearchParity:
    @pytest.mark.parametrize("dataset", dataset_names())
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_opt_b_search_parity_on_datasets(self, dataset, k):
        graph = load_dataset(dataset, scale=DATASET_SCALE)
        compact = graph.to_compact()
        _assert_results_identical(opt_b_search(graph, k), opt_b_search_csr(compact, k))

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_base_b_search_parity_on_datasets(self, dataset):
        graph = load_dataset(dataset, scale=DATASET_SCALE)
        compact = graph.to_compact()
        for k in (1, 25):
            _assert_results_identical(base_b_search(graph, k), base_b_search_csr(compact, k))

    @pytest.mark.parametrize("name,graph", sorted(_parity_graphs().items()))
    def test_search_parity_on_families(self, name, graph):
        if graph.num_vertices == 0:
            return
        compact = graph.to_compact()
        k = max(1, graph.num_vertices // 3)
        _assert_results_identical(opt_b_search(graph, k), opt_b_search_csr(compact, k))
        _assert_results_identical(base_b_search(graph, k), base_b_search_csr(compact, k))

    def test_repeated_searches_share_one_compact(self, social_graph):
        """The memoised ego summaries must not leak state between searches."""
        compact = social_graph.to_compact()
        for k in (1, 5, 12, 5, 40, 1):
            _assert_results_identical(opt_b_search(social_graph, k), opt_b_search_csr(compact, k))
        for theta in (1.0, 1.05, 2.0):
            _assert_results_identical(
                opt_b_search(social_graph, 8, theta=theta),
                opt_b_search_csr(compact, 8, theta=theta),
            )

    def test_base_without_shared_maps(self, collaboration_graph):
        compact = collaboration_graph.to_compact()
        _assert_results_identical(
            base_b_search(collaboration_graph, 7, maintain_shared_maps=False),
            base_b_search_csr(compact, 7, maintain_shared_maps=False),
        )

    def test_k_larger_than_n_and_empty(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        _assert_results_identical(
            opt_b_search(graph, 50), opt_b_search_csr(graph.to_compact(), 50)
        )
        empty = Graph()
        assert opt_b_search_csr(empty.to_compact(), 3).entries == []
        with pytest.raises(InvalidParameterError):
            opt_b_search_csr(graph.to_compact(), 0)
        with pytest.raises(InvalidParameterError):
            opt_b_search_csr(graph.to_compact(), 2, theta=0.5)


# ----------------------------------------------------------------------
# Dispatcher and backend selection
# ----------------------------------------------------------------------
class TestBackendDispatch:
    @pytest.mark.parametrize("method", ["opt", "base", "naive"])
    def test_top_k_backends_agree(self, social_graph, method):
        results = {
            backend: top_k_ego_betweenness(social_graph, 9, method=method, backend=backend)
            for backend in ("auto", "compact", "hash")
        }
        for backend in ("compact", "hash"):
            assert results[backend].entries == results["auto"].entries
        hashed, compact = results["hash"].stats, results["compact"].stats
        if method != "naive":
            assert hashed.exact_computations == compact.exact_computations
        else:
            # The hash oracle ranks its full sweep; a cold CSR ranking
            # scores only the bound-ordered waves.
            assert hashed.exact_computations == social_graph.num_vertices
            assert compact.exact_computations < social_graph.num_vertices
            assert (
                compact.exact_computations + compact.pruned_vertices
                == social_graph.num_vertices
            )

    def test_top_k_accepts_compact_graph(self, social_graph):
        compact = social_graph.to_compact()
        via_compact = top_k_ego_betweenness(compact, 5)
        via_graph = top_k_ego_betweenness(social_graph, 5)
        assert via_compact.entries == via_graph.entries
        hash_from_compact = top_k_ego_betweenness(compact, 5, backend="hash")
        assert hash_from_compact.entries == via_graph.entries

    def test_invalid_backend_rejected(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            top_k_ego_betweenness(triangle_graph, 1, backend="gpu")
        with pytest.raises(InvalidParameterError):
            opt_b_search(triangle_graph, 1, backend="gpu")
        with pytest.raises(InvalidParameterError):
            base_b_search(triangle_graph, 1, backend="gpu")

    def test_search_backend_parameter_dispatches(self, social_graph):
        assert (
            opt_b_search(social_graph, 6, backend="compact").entries
            == opt_b_search(social_graph, 6, backend="hash").entries
        )
        assert (
            base_b_search(social_graph, 6, backend="auto").entries
            == base_b_search(social_graph, 6).entries
        )


# ----------------------------------------------------------------------
# Identified information store
# ----------------------------------------------------------------------
class TestIdentifiedInfoCSR:
    def test_bound_matches_hash_store(self):
        n = 10
        hash_info = IdentifiedInfo()
        csr_info = IdentifiedInfoCSR(n)
        # p=0 with neighbours 1..5; identified edges (1,2), (3,4); pair
        # (1,3) has connectors {6, 7}; pair (2,4) has connector {6}.
        hash_info.record_edge(0, 1, 2)
        hash_info.record_edge(0, 3, 4)
        hash_info.record_edge(0, 1, 2)  # duplicate must not double count
        for connector in (6, 7, 6):
            hash_info.record_link(0, 1, 3, connector)
        hash_info.record_link(0, 2, 4, 6)
        csr_info.record_edge(0, 1, 2)
        csr_info.record_edge(0, 3, 4)
        csr_info.record_edge(0, 2, 1)  # duplicate, reversed order
        for connector in (6, 7, 6):
            csr_info.record_link(0, 1, 3, connector)
        csr_info.record_link(0, 4, 2, 6)
        assert csr_info.identified_edge_count(0) == hash_info.identified_edge_count(0) == 2
        assert sorted(csr_info.identified_link_counts(0).values()) == [1, 2]
        for degree in (5, 8):
            assert csr_info.upper_bound(0, degree) == hash_info.upper_bound(0, degree)
        csr_info.discard(0)
        assert csr_info.upper_bound(0, 5) == 10.0

    def test_search_bounds_never_below_truth(self, collaboration_graph):
        """Lemma 3 sanity on the CSR store: search results stay exact."""
        compact = collaboration_graph.to_compact()
        exact = all_ego_betweenness(collaboration_graph)
        result = opt_b_search_csr(compact, 10)
        for vertex, score in result.entries:
            assert score == pytest.approx(exact[vertex], abs=1e-9)


# ----------------------------------------------------------------------
# Property-based parity on random graphs
# ----------------------------------------------------------------------
@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=2, max_value=28))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=90,
        )
    )
    graph = Graph(vertices=range(n))
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v, exist_ok=True)
    return graph


class TestPropertyParity:
    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_random_graph_kernel_parity(self, graph):
        assert all_ego_betweenness_csr(graph.to_compact()) == all_ego_betweenness(graph)

    @given(random_graph(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_random_graph_search_parity(self, graph, k):
        compact = graph.to_compact()
        _assert_results_identical(opt_b_search(graph, k), opt_b_search_csr(compact, k))
        _assert_results_identical(base_b_search(graph, k), base_b_search_csr(compact, k))

    @given(st.integers(min_value=20, max_value=80), st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_generator_graph_search_parity(self, n, seed):
        for graph in (
            erdos_renyi_graph(n, 0.15, seed=seed),
            barabasi_albert_graph(n, 3, seed=seed),
            star_graph(n),
        ):
            compact = graph.to_compact()
            _assert_results_identical(
                opt_b_search(graph, 10), opt_b_search_csr(compact, 10)
            )
