"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

from typing import Dict

import pytest

from repro.datasets.paper_example import paper_example_graph, paper_figure1_like_graph
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    overlapping_cliques_graph,
    path_graph,
    star_graph,
)
from repro.graph.graph import Graph


@pytest.fixture
def triangle_graph() -> Graph:
    """The 3-cycle."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def example_graph() -> Graph:
    """The exact Example-1 ego network of vertex ``d`` from the paper."""
    return paper_example_graph()


@pytest.fixture
def figure1_graph() -> Graph:
    """The 16-vertex Fig. 1(a)-like demonstration graph."""
    return paper_figure1_like_graph()


@pytest.fixture
def small_random_graph() -> Graph:
    """A fixed small Erdős–Rényi graph used by several integration tests."""
    return erdos_renyi_graph(60, 0.12, seed=42)


@pytest.fixture
def social_graph() -> Graph:
    """A fixed Barabási–Albert graph (heavy-tailed degrees, some triangles)."""
    return barabasi_albert_graph(150, 3, seed=7)


@pytest.fixture
def collaboration_graph() -> Graph:
    """A fixed clique-overlap collaboration graph (triangle heavy)."""
    return overlapping_cliques_graph(60, clique_size_range=(3, 6), overlap=2, seed=9)


def graph_families():
    """A spread of small deterministic graphs used by parametrised tests."""
    return {
        "triangle": Graph(edges=[(0, 1), (1, 2), (0, 2)]),
        "path": path_graph(8),
        "cycle": cycle_graph(9),
        "star": star_graph(7),
        "complete": complete_graph(6),
        "example1": paper_example_graph(),
        "figure1": paper_figure1_like_graph(),
        "er": erdos_renyi_graph(35, 0.15, seed=3),
        "ba": barabasi_albert_graph(40, 2, seed=5),
        "cliques": overlapping_cliques_graph(15, clique_size_range=(3, 5), overlap=1, seed=2),
    }


def ego_histogram(graph: Graph, p) -> Dict[int, int]:
    """The connector-count histogram of ``p``'s ego network, by definition.

    For every non-adjacent pair of ``p``'s neighbours, the number of other
    neighbours of ``p`` adjacent to both (0 for a lonely pair), counted
    into ``{count: pairs}``.  The oracle that the kernels' and the
    dynamic overlay's histograms are compared with.
    """
    nbrs = graph.neighbors(p)
    ordered = list(nbrs)
    histogram: Dict[int, int] = {}
    for i, x in enumerate(ordered):
        nx = graph.neighbors(x)
        for y in ordered[i + 1 :]:
            if y not in nx:
                count = len(nx & graph.neighbors(y) & nbrs)
                histogram[count] = histogram.get(count, 0) + 1
    return histogram
