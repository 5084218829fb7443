"""Tests for BaseBSearch, OptBSearch and the top-k dispatch API."""

from __future__ import annotations

import itertools

import pytest

from repro._ordering import sort_key
from repro.core.base_search import base_b_search
from repro.core.bounds import static_upper_bound
from repro.core.ego_betweenness import all_ego_betweenness
from repro.core.opt_search import opt_b_search
from repro.core.topk import TopKAccumulator, top_k_ego_betweenness
from repro.errors import InvalidParameterError
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    overlapping_cliques_graph,
    star_graph,
)
from repro.graph.graph import Graph

from tests.conftest import graph_families


def true_top_scores(graph, k):
    scores = sorted(all_ego_betweenness(graph).values(), reverse=True)
    return scores[: min(k, len(scores))]


class TestAccumulator:
    def test_keeps_k_best(self):
        acc = TopKAccumulator(3)
        for i, score in enumerate([5.0, 1.0, 7.0, 3.0, 6.0]):
            acc.offer(i, score)
        assert [s for _, s in acc.ranked_entries()] == [7.0, 6.0, 5.0]
        assert acc.threshold == 5.0

    def test_threshold_before_full(self):
        acc = TopKAccumulator(2)
        acc.offer("a", 4.0)
        assert acc.threshold == float("-inf")
        assert not acc.is_full

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            TopKAccumulator(0)

    def test_deterministic_tie_ordering(self):
        acc = TopKAccumulator(3)
        for v in ["b", "a", "c"]:
            acc.offer(v, 1.0)
        assert [v for v, _ in acc.ranked_entries()] == ["a", "b", "c"]

    def test_offer_order_does_not_change_the_result(self):
        offers = [("d", 2.0), ("a", 1.0), ("c", 2.0), ("b", 2.0), ("e", 3.0), ("f", 1.0)]
        for permutation in itertools.permutations(offers):
            acc = TopKAccumulator(3)
            for vertex, score in permutation:
                acc.offer(vertex, score)
            assert acc.ranked_entries() == [("e", 3.0), ("b", 2.0), ("c", 2.0)]

    def test_admits_breaks_threshold_ties_by_sort_key(self):
        acc = TopKAccumulator(2)
        assert acc.admits(0.0, sort_key("z"))  # not full yet
        acc.offer("a", 3.0)
        acc.offer("c", 1.0)
        assert acc.admits(1.0, sort_key("b"))  # ties the k-th score, precedes "c"
        assert not acc.admits(1.0, sort_key("d"))
        assert acc.admits(1.5, sort_key("z"))
        assert not acc.admits(0.5, sort_key("a"))


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(graph_families()))
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_both_algorithms_match_truth(self, name, k):
        graph = graph_families()[name]
        expected = true_top_scores(graph, k)
        for search in (base_b_search, opt_b_search):
            result = search(graph, k)
            got = [score for _, score in result.entries]
            assert got == pytest.approx(expected), f"{search.__name__} on {name}, k={k}"

    def test_large_k_returns_everything(self, small_random_graph):
        n = small_random_graph.num_vertices
        result = opt_b_search(small_random_graph, n + 50)
        assert len(result.entries) == n

    def test_k_one_finds_global_maximum(self, social_graph):
        truth = max(all_ego_betweenness(social_graph).values())
        assert base_b_search(social_graph, 1).entries[0][1] == pytest.approx(truth)
        assert opt_b_search(social_graph, 1).entries[0][1] == pytest.approx(truth)

    def test_star_graph_top1_is_center(self):
        g = star_graph(8)
        result = opt_b_search(g, 1)
        assert result.entries[0][0] == 0
        assert result.entries[0][1] == pytest.approx(static_upper_bound(8))

    def test_complete_graph_all_zero(self):
        result = base_b_search(complete_graph(6), 3)
        assert all(score == 0.0 for _, score in result.entries)

    def test_theta_variants_agree(self, collaboration_graph):
        expected = true_top_scores(collaboration_graph, 8)
        for theta in (1.0, 1.05, 1.2, 1.5, 3.0):
            result = opt_b_search(collaboration_graph, 8, theta=theta)
            assert [s for _, s in result.entries] == pytest.approx(expected)

    def test_base_lean_variant_matches(self, social_graph):
        faithful = base_b_search(social_graph, 12, maintain_shared_maps=True)
        lean = base_b_search(social_graph, 12, maintain_shared_maps=False)
        assert [s for _, s in faithful.entries] == pytest.approx(
            [s for _, s in lean.entries]
        )

    def test_random_graph_sweep(self):
        for seed in range(3):
            g = erdos_renyi_graph(45, 0.15, seed=seed)
            expected = true_top_scores(g, 6)
            assert [s for _, s in base_b_search(g, 6).entries] == pytest.approx(expected)
            assert [s for _, s in opt_b_search(g, 6).entries] == pytest.approx(expected)


class TestPruningBehaviour:
    def test_searches_prune_compared_to_naive(self):
        g = barabasi_albert_graph(200, 3, seed=4)
        base = base_b_search(g, 10)
        opt = opt_b_search(g, 10)
        assert base.stats.exact_computations < g.num_vertices
        assert opt.stats.exact_computations < g.num_vertices

    def test_opt_never_computes_more_than_base(self):
        for seed in range(3):
            g = overlapping_cliques_graph(40, (3, 6), overlap=2, seed=seed)
            base = base_b_search(g, 8)
            opt = opt_b_search(g, 8)
            assert opt.stats.exact_computations <= base.stats.exact_computations

    def test_exact_computations_at_least_k(self, social_graph):
        result = opt_b_search(social_graph, 7)
        assert result.stats.exact_computations >= 7

    def test_stats_populated(self, social_graph):
        result = opt_b_search(social_graph, 5)
        assert result.stats.algorithm == "OptBSearch"
        assert result.stats.elapsed_seconds >= 0.0
        assert result.stats.bound_updates >= result.stats.exact_computations
        base = base_b_search(social_graph, 5)
        assert base.stats.algorithm == "BaseBSearch"
        assert base.stats.pruned_vertices == social_graph.num_vertices - base.stats.exact_computations


class TestDispatcher:
    def test_methods_agree(self, collaboration_graph):
        expected = true_top_scores(collaboration_graph, 5)
        for method in ("base", "opt", "naive"):
            result = top_k_ego_betweenness(collaboration_graph, 5, method=method)
            assert [s for _, s in result.entries] == pytest.approx(expected)

    def test_unknown_method_rejected(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            top_k_ego_betweenness(triangle_graph, 1, method="magic")

    def test_invalid_k_rejected(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            top_k_ego_betweenness(triangle_graph, 0)
        with pytest.raises(InvalidParameterError):
            base_b_search(triangle_graph, -1)
        with pytest.raises(InvalidParameterError):
            opt_b_search(triangle_graph, 0)

    def test_invalid_theta_rejected(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            opt_b_search(triangle_graph, 1, theta=0.5)

    def test_empty_graph(self):
        result = opt_b_search(Graph(), 3)
        assert result.entries == []
        result = base_b_search(Graph(), 3)
        assert result.entries == []

    def test_result_container_api(self, social_graph):
        result = opt_b_search(social_graph, 4)
        assert len(result) == 4
        assert result.vertices[0] in result
        assert result.threshold == result.entries[-1][1]
        assert set(result.scores) == set(result.vertices)
        assert list(iter(result)) == result.entries
