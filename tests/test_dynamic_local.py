"""Tests for the local maintenance algorithms (LocalInsert / LocalDelete)."""

from __future__ import annotations

import pytest

from repro.core.ego_betweenness import all_ego_betweenness
from repro.dynamic.local_update import EgoBetweennessIndex, affected_vertices
from repro.dynamic.stream import generate_update_stream
from repro.errors import EdgeExistsError, EdgeNotFoundError, SelfLoopError
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    overlapping_cliques_graph,
    star_graph,
)
from repro.graph.graph import Graph


def assert_index_consistent(index: EgoBetweennessIndex) -> None:
    assert index.scores() == all_ego_betweenness(index.graph)


class TestAffectedVertices:
    def test_observation1_set(self):
        g = Graph(edges=[(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
        assert affected_vertices(g, 0, 3) == {0, 3, 1, 2}

    def test_no_common_neighbors(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        assert affected_vertices(g, 1, 2) == {1, 2}

    def test_unaffected_vertices_keep_their_score(self):
        g = erdos_renyi_graph(40, 0.1, seed=1)
        index = EgoBetweennessIndex(g)
        before = index.scores()
        u, v = None, None
        vertices = g.vertices()
        for a in vertices:
            for b in vertices:
                if a != b and not g.has_edge(a, b):
                    u, v = a, b
                    break
            if u is not None:
                break
        touched = index.insert_edge(u, v)
        for vertex in g.vertices():
            if vertex not in touched:
                assert index.score(vertex) == before[vertex]


class TestPaperUpdateExamples:
    def test_example5_insert_into_small_gadget(self):
        """The arithmetic of Example 5: inserting an edge between two vertices
        whose only common neighbour previously routed all their traffic."""
        # k's neighbours are f and j; f-j not adjacent; i adjacent to f and j.
        g = Graph(edges=[("k", "f"), ("k", "j"), ("i", "f"), ("i", "j")])
        index = EgoBetweennessIndex(g)
        assert index.score("k") == 1.0
        index.insert_edge("i", "k")
        # After the insertion i shares the (f, j) pair with k: 1/2.
        assert index.score("k") == 0.5
        assert_index_consistent(index)

    def test_example6_delete_updates_all_affected(self):
        g = Graph(
            edges=[
                ("c", "g"), ("c", "e"), ("g", "e"), ("c", "d"), ("g", "d"),
                ("e", "a"), ("c", "a"), ("g", "i"), ("c", "h"), ("h", "i"),
            ]
        )
        index = EgoBetweennessIndex(g)
        index.delete_edge("c", "g")
        assert_index_consistent(index)


class TestInsertions:
    def test_single_insert_matches_recompute(self):
        g = erdos_renyi_graph(50, 0.12, seed=2)
        index = EgoBetweennessIndex(g)
        vertices = g.vertices()
        inserted = 0
        for a in vertices:
            for b in vertices:
                if a != b and not index.graph.has_edge(a, b):
                    index.insert_edge(a, b)
                    inserted += 1
                    break
            if inserted >= 5:
                break
        assert_index_consistent(index)

    def test_insert_new_vertex(self):
        g = star_graph(4)
        index = EgoBetweennessIndex(g)
        index.insert_edge(0, "new")
        assert index.graph.has_vertex("new")
        assert_index_consistent(index)

    def test_insert_existing_edge_raises(self):
        index = EgoBetweennessIndex(Graph(edges=[(0, 1)]))
        with pytest.raises(EdgeExistsError):
            index.insert_edge(0, 1)

    def test_insert_self_loop_raises(self):
        index = EgoBetweennessIndex(Graph(edges=[(0, 1)]))
        with pytest.raises(SelfLoopError):
            index.insert_edge(1, 1)

    def test_caller_graph_not_mutated(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        index = EgoBetweennessIndex(g)
        index.insert_edge(0, 2)
        assert not g.has_edge(0, 2)


class TestDeletions:
    def test_single_delete_matches_recompute(self):
        g = overlapping_cliques_graph(20, (3, 6), overlap=2, seed=3)
        index = EgoBetweennessIndex(g)
        for u, v in list(g.edges())[:6]:
            index.delete_edge(u, v)
        assert_index_consistent(index)

    def test_delete_missing_edge_raises(self):
        index = EgoBetweennessIndex(Graph(edges=[(0, 1)]))
        with pytest.raises(EdgeNotFoundError):
            index.delete_edge(0, 2)

    def test_delete_then_reinsert_restores_scores(self):
        g = barabasi_albert_graph(60, 3, seed=4)
        index = EgoBetweennessIndex(g)
        original = index.scores()
        edges = list(g.edges())[:10]
        for u, v in edges:
            index.delete_edge(u, v)
        for u, v in edges:
            index.insert_edge(u, v)
        assert index.scores() == original


class TestMixedStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_mixed_stream_stays_exact(self, seed):
        g = erdos_renyi_graph(45, 0.12, seed=seed)
        index = EgoBetweennessIndex(g)
        stream = generate_update_stream(g, 50, seed=seed)
        for event in stream:
            if event.operation == "insert":
                index.insert_edge(event.u, event.v)
            else:
                index.delete_edge(event.u, event.v)
        assert_index_consistent(index)

    def test_top_k_view(self):
        g = barabasi_albert_graph(80, 3, seed=5)
        index = EgoBetweennessIndex(g)
        top = index.top_k(5)
        truth = sorted(all_ego_betweenness(g).values(), reverse=True)[:5]
        assert [score for _, score in top] == truth

    def test_update_timing_recorded(self):
        index = EgoBetweennessIndex(Graph(edges=[(0, 1), (1, 2)]))
        index.insert_edge(0, 2)
        assert index.last_update_seconds >= 0.0
