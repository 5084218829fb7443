"""Tests for the lazy top-k maintainer (LazyInsert / LazyDelete)."""

from __future__ import annotations

import pytest

from repro.core.ego_betweenness import all_ego_betweenness
from repro.dynamic.lazy_topk import LazyTopKMaintainer
from repro.dynamic.stream import generate_update_stream, split_insert_delete_workload
from repro.errors import EdgeExistsError, EdgeNotFoundError, InvalidParameterError, SelfLoopError
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    overlapping_cliques_graph,
    star_graph,
)
from repro.graph.graph import Graph


def assert_topk_correct(maintainer: LazyTopKMaintainer) -> None:
    """The maintained result must equal the true top-k score multiset."""
    truth = sorted(all_ego_betweenness(maintainer.graph).values(), reverse=True)
    expected = truth[: maintainer.k]
    got = [score for _, score in maintainer.top_k().entries]
    assert got == expected


class TestConstruction:
    def test_initial_result_is_true_topk(self, social_graph):
        maintainer = LazyTopKMaintainer(social_graph, 6)
        assert_topk_correct(maintainer)

    def test_invalid_k(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            LazyTopKMaintainer(triangle_graph, 0)

    def test_k_larger_than_graph(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        maintainer = LazyTopKMaintainer(g, 10)
        assert len(maintainer.top_k().entries) == 3

    def test_caller_graph_not_mutated(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        maintainer = LazyTopKMaintainer(g, 2)
        maintainer.insert_edge(0, 2)
        assert not g.has_edge(0, 2)


class TestErrors:
    def test_duplicate_insert_rejected(self):
        maintainer = LazyTopKMaintainer(Graph(edges=[(0, 1)]), 1)
        with pytest.raises(EdgeExistsError):
            maintainer.insert_edge(1, 0)

    def test_missing_delete_rejected(self):
        maintainer = LazyTopKMaintainer(Graph(edges=[(0, 1)]), 1)
        with pytest.raises(EdgeNotFoundError):
            maintainer.delete_edge(0, 2)

    def test_self_loop_rejected(self):
        maintainer = LazyTopKMaintainer(Graph(edges=[(0, 1)]), 1)
        with pytest.raises(SelfLoopError):
            maintainer.insert_edge(1, 1)


class TestInsertions:
    def test_insert_promoting_new_hub(self):
        # Start with a star; attach many edges to a leaf until it overtakes.
        g = star_graph(6)
        maintainer = LazyTopKMaintainer(g, 1)
        assert maintainer.top_k().entries[0][0] == 0
        for other in range(2, 7):
            maintainer.insert_edge(1, other)
        # Leaf 1 is now connected to everything; the centre's pairs are all
        # adjacent or shared, so the ranking must be re-evaluated correctly.
        assert_topk_correct(maintainer)

    def test_insert_new_vertex(self):
        maintainer = LazyTopKMaintainer(star_graph(3), 2)
        maintainer.insert_edge("fresh", 0)
        assert_topk_correct(maintainer)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_insert_sequence(self, seed):
        g = erdos_renyi_graph(40, 0.1, seed=seed)
        maintainer = LazyTopKMaintainer(g, 5)
        vertices = g.vertices()
        added = 0
        for a in vertices:
            for b in vertices:
                if a != b and not maintainer.graph.has_edge(a, b):
                    maintainer.insert_edge(a, b)
                    added += 1
                    break
            if added >= 12:
                break
        assert_topk_correct(maintainer)


class TestDeletions:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_delete_sequence(self, seed):
        g = overlapping_cliques_graph(25, (3, 6), overlap=2, seed=seed)
        maintainer = LazyTopKMaintainer(g, 5)
        deletions, _ = split_insert_delete_workload(g, 15, seed=seed)
        for event in deletions:
            maintainer.delete_edge(event.u, event.v)
        assert_topk_correct(maintainer)

    def test_delete_dethroning_the_leader(self):
        g = star_graph(8)
        maintainer = LazyTopKMaintainer(g, 1)
        # Remove most of the centre's edges: the top-1 must follow suit.
        for leaf in range(1, 7):
            maintainer.delete_edge(0, leaf)
        assert_topk_correct(maintainer)


class TestMixedStreamsAndLaziness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_mixed_stream_keeps_exact_topk(self, seed, k):
        g = erdos_renyi_graph(40, 0.12, seed=seed)
        maintainer = LazyTopKMaintainer(g, k)
        stream = generate_update_stream(g, 40, seed=seed + 100)
        for event in stream:
            if event.operation == "insert":
                maintainer.insert_edge(event.u, event.v)
            else:
                maintainer.delete_edge(event.u, event.v)
            assert_topk_correct(maintainer)

    def test_lazy_maintainer_skips_work(self):
        g = barabasi_albert_graph(150, 3, seed=6)
        maintainer = LazyTopKMaintainer(g, 5)
        stream = generate_update_stream(g, 60, seed=7)
        affected_total = 0
        for event in stream:
            graph = maintainer.graph
            common = (
                graph.common_neighbors(event.u, event.v)
                if graph.has_vertex(event.u) and graph.has_vertex(event.v)
                else set()
            )
            affected_total += 2 + len(common)
            if event.operation == "insert":
                maintainer.insert_edge(event.u, event.v)
            else:
                maintainer.delete_edge(event.u, event.v)
        # Lazy maintenance must recompute strictly fewer vertices than the
        # eager per-update affected set (that is its entire point).
        assert maintainer.exact_recomputations < affected_total
        assert maintainer.skipped_recomputations > 0
        assert_topk_correct(maintainer)

    def test_scores_in_result_are_exact(self):
        g = barabasi_albert_graph(80, 3, seed=8)
        maintainer = LazyTopKMaintainer(g, 4)
        stream = generate_update_stream(g, 25, seed=9)
        for event in stream:
            if event.operation == "insert":
                maintainer.insert_edge(event.u, event.v)
            else:
                maintainer.delete_edge(event.u, event.v)
        fresh = all_ego_betweenness(maintainer.graph)
        for vertex, score in maintainer.top_k().entries:
            assert score == fresh[vertex]


def _replay(maintainer: LazyTopKMaintainer, stream) -> None:
    for event in stream:
        if event.operation == "insert":
            maintainer.insert_edge(event.u, event.v)
        else:
            maintainer.delete_edge(event.u, event.v)


class TestHeapBound:
    def test_heap_stays_within_twice_the_vertices(self):
        # A star-heavy graph under a long stream: endpoints are staled at
        # their degree bound over and over, mostly at an unchanged value.
        from repro.datasets.registry import load_dataset

        g = load_dataset("wikitalk", scale=0.3)
        values = all_ego_betweenness(g)
        stream = generate_update_stream(g, 600, seed=3)
        runs = {}
        for backend in ("compact", "hash"):
            maintainer = LazyTopKMaintainer(g, 10, backend=backend, values=values)
            for event in stream:
                _replay(maintainer, [event])
                assert len(maintainer._heap) <= 2 * len(maintainer._values)
            runs[backend] = (
                maintainer.exact_recomputations,
                maintainer.skipped_recomputations,
                maintainer.top_k().entries,
            )
        assert runs["compact"] == runs["hash"]
        assert runs["compact"][2] == LazyTopKMaintainer(
            maintainer.graph, 10, backend="hash"
        ).top_k().entries

    def test_compaction_keeps_every_decision(self):
        g = barabasi_albert_graph(120, 3, seed=4)
        stream = generate_update_stream(g, 150, seed=5)
        plain = LazyTopKMaintainer(g, 5)
        crowded = LazyTopKMaintainer(g, 5)
        # Duplicate every outsider's entry until the heap compacts.
        outsiders = [v for v in crowded._values if v not in crowded._result]
        for vertex in outsiders * 3:
            crowded._push(vertex, crowded._values[vertex])
        assert len(crowded._heap) <= 2 * len(crowded._values)
        _replay(plain, stream)
        _replay(crowded, stream)
        assert crowded.top_k().entries == plain.top_k().entries
        assert crowded.exact_recomputations == plain.exact_recomputations
        assert crowded.skipped_recomputations == plain.skipped_recomputations
