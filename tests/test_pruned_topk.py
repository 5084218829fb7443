"""Bound-pruned top-k: the cold ranking's waves and the searches' lazy order.

A cold ``top_k(k, "naive")`` or ``top_k(k, parallel=N)`` scores only the
vertices that still precede the k-th entry found in the ``(static bound
d(d-1)/2 descending, sort key)`` order, in waves; it must still return the
full ranking's first k, ties included.  BaseBSearch and OptBSearch
visit vertices in an order built one bound group at a time; it must equal
the eager ``(-bound, sort_key)`` sort.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._ordering import sort_key
from repro.core.csr_kernels import all_ego_betweenness_csr, static_bound_order
from repro.core.topk import top_entries
from repro.graph.csr import CompactGraph
from repro.graph.graph import Graph
from repro.parallel.runtime import PayloadStore, WorkerPool
from repro.session import EgoSession

FAMILIES = ("star", "clique", "cycle", "bipartite", "random")


def _family_edges(kind, size, random_edges):
    if kind == "star":
        return [(0, leaf) for leaf in range(1, size + 1)]
    if kind == "clique":
        return list(combinations(range(size + 1), 2))
    if kind == "cycle":
        return [(i, (i + 1) % (size + 1)) for i in range(size + 1)]
    if kind == "bipartite":
        half = (size + 1) // 2
        return [(a, b) for a in range(half) for b in range(half, size + 1)]
    return [(u, v) for u, v in random_edges if u != v]


@st.composite
def tie_heavy_graphs(draw):
    """Stars, cliques, cycles, complete bipartite or random graphs, copied.

    Disjoint copies tie every score with another copy's, and their int
    labels cross digit boundaries, so ``sort_key`` (``"10"`` before
    ``"9"``) decides which tied vertices rank.
    """
    kind = draw(st.sampled_from(FAMILIES))
    size = draw(st.integers(2, 7))
    random_edges = draw(
        st.lists(st.tuples(st.integers(0, size), st.integers(0, size)), max_size=14)
    )
    copies = draw(st.integers(1, 3))
    stride = size + 1
    edges = [
        (u + c * stride, v + c * stride)
        for c in range(copies)
        for u, v in _family_edges(kind, size, random_edges)
    ]
    return Graph(edges=edges, vertices=range(copies * stride))


def _check_pruned(graph, k, executor, pool=None, store=None, parallel=2):
    expected = top_entries(all_ego_betweenness_csr(graph), k)
    with EgoSession(graph) as session:
        if pool is not None:
            session.runtime(executor, pool=pool, store=store)
        result = session.top_k(k, "naive", parallel=parallel, executor=executor)
    assert result.entries == expected
    stats = result.stats
    assert min(k, graph.num_vertices) <= stats.exact_computations
    assert stats.exact_computations + stats.pruned_vertices == graph.num_vertices


class TestPrunedTopK:
    @settings(max_examples=80, deadline=None)
    @given(graph=tie_heavy_graphs(), data=st.data())
    def test_serial_waves_equal_the_full_ranking(self, graph, data):
        k = data.draw(st.integers(1, graph.num_vertices + 2), label="k")
        parallel = data.draw(st.sampled_from([None, 2]), label="parallel")
        _check_pruned(graph, k, "serial", parallel=parallel)

    @pytest.mark.parallel
    def test_process_waves_equal_the_full_ranking(self):
        pool = WorkerPool(2).acquire()
        store = PayloadStore()

        @settings(max_examples=20, deadline=None)
        @given(graph=tie_heavy_graphs(), data=st.data())
        def check(graph, data):
            k = data.draw(st.integers(1, graph.num_vertices + 2), label="k")
            _check_pruned(graph, k, "process", pool, store)

        try:
            check()
            assert store.resident_payloads == 0
        finally:
            pool.release()
            store.close()

    def test_vertex_at_the_threshold_wins_its_tie(self):
        # Hub 9 (degree 4, one triangle among its neighbours) scores 3.0 and
        # alone makes wave 1 for k=1.  Star centre 10 has degree 3: its
        # bound 3.0 equals that threshold, it scores 3.0 too, and "10"
        # sorts before "9" — so only a wave that admits bound == τ with an
        # earlier key finds the right answer.
        edges = [(9, 1), (9, 2), (9, 3), (9, 4), (1, 2), (1, 3), (2, 3)]
        edges += [(10, 11), (10, 12), (10, 13)]
        graph = Graph(edges=edges)
        assert top_entries(all_ego_betweenness_csr(graph), 1) == [(10, 3.0)]
        with EgoSession(graph) as session:
            result = session.top_k(1, parallel=2)
        assert result.entries == [(10, 3.0)]
        # Wave 1 is the hub; then the degree-3 vertices in key order, at
        # most double the last wave: 1, then 10 and 2.  Once 10 leads, 3
        # (bound 3.0, key after "10") can no longer enter.
        assert result.stats.exact_computations == 4
        assert result.stats.pruned_vertices == graph.num_vertices - 4

    def test_naive_reports_only_what_the_call_computed(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
        with EgoSession(graph) as session:
            first = session.top_k(2, algorithm="naive")
            second = session.top_k(2, algorithm="naive")
        assert first.entries == second.entries
        # 2 and 0, then 1 and 3 (3 scores 1.0); 4 and 5 cannot enter.
        assert first.stats.exact_computations == 4
        assert second.stats.exact_computations == 0

    def test_cached_parallel_answer_computes_nothing(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
        with EgoSession(graph) as session:
            first = session.top_k(2, parallel=2)
            again = session.top_k(2, parallel=2)
        assert again.entries == first.entries
        assert again.stats.exact_computations == 0


#: Labels of several types; ``1``/``True`` and ``0``/``False`` compare equal,
#: so ``unique=True`` keeps one of each pair, as a graph would.
LABELS = st.one_of(
    st.integers(-20, 120),
    st.booleans(),
    st.text("abc9", max_size=3),
    st.tuples(st.integers(0, 3), st.text("xy", max_size=2)),
)


class TestLazyOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.lists(LABELS, min_size=1, max_size=16, unique=True),
        data=st.data(),
    )
    def test_equals_the_eager_sort(self, labels, data):
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(labels) - 1), st.integers(0, len(labels) - 1)
                ),
                max_size=30,
            ),
            label="pairs",
        )
        edges = [(labels[a], labels[b]) for a, b in pairs if a != b]
        compact = CompactGraph.from_graph(Graph(edges=edges, vertices=labels))
        degrees = compact.degrees
        eager = sorted(
            (-(d * (d - 1) / 2.0), sort_key(label), v)
            for v, (d, label) in enumerate(zip(degrees, compact.labels))
        )
        assert list(static_bound_order(compact)) == eager

    def test_degrees_zero_and_one_share_one_group(self):
        # "a" is isolated, "b" and "c" are leaves: all three have bound 0 and
        # are visited by sort key alone, after the centre.
        graph = Graph(edges=[("z", "c"), ("z", "b")], vertices=["a"])
        compact = CompactGraph.from_graph(graph)
        order = [compact.labels[v] for _, _, v in static_bound_order(compact)]
        assert order == ["z", "a", "b", "c"]

    def test_empty_graph(self):
        assert list(static_bound_order(CompactGraph([], [0], []))) == []
