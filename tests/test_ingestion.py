"""Edge lists go straight to CSR: the labels and arrays of the hash detour.

``CompactGraph.from_edges`` builds plain-``int`` edge lists without a hash
:class:`Graph`, yet it must produce exactly what
``CompactGraph.from_graph(Graph(edges=...))`` does — labels in first-seen
order (dict identity, so ``True`` and ``1`` are one vertex named by the
first seen), sorted deduplicated rows, and the same errors — for any
hashable labels, on the numpy lane and on the stdlib lane (numpy hidden),
where every edge list takes the detour.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csr_kernels import build_dense_adjacency
from repro.core.vec_kernels import numpy_available
from repro.datasets.registry import dataset_names, load_dataset
from repro.errors import SelfLoopError
from repro.graph.csr import CompactGraph, _int_edges_to_csr
from repro.graph.graph import Graph
from repro.session import EgoSession

LANES = [
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy not importable"),
    ),
    "stdlib",
]

SETTINGS = settings(max_examples=150, deadline=None)

small_ints = st.integers(min_value=-3, max_value=25)
int_labels = small_ints | st.integers(min_value=-(2**63), max_value=2**63 - 1)
labels = st.one_of(
    small_ints,
    st.booleans(),
    st.text(alphabet="ab1", max_size=2),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2),
    st.integers(min_value=-(2**63) - 2, max_value=-(2**63) + 2),
)


@contextmanager
def lane(name: str):
    """Run the body with numpy importable (``numpy``) or hidden (``stdlib``)."""
    if name == "numpy":
        yield
        return
    saved = sys.modules.get("numpy")
    sys.modules["numpy"] = None
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["numpy"]
        else:
            sys.modules["numpy"] = saved


def _arrays(compact: CompactGraph):
    return compact.labels, compact.indptr, compact.indices


def _assert_matches_detour(edges, vertices=None) -> None:
    try:
        expected = CompactGraph.from_graph(Graph(edges=edges, vertices=vertices))
    except SelfLoopError as error:
        with pytest.raises(SelfLoopError) as raised:
            CompactGraph.from_edges(edges, vertices)
        assert type(raised.value.vertex) is type(error.vertex)
        assert raised.value.vertex == error.vertex
        return
    except ValueError as error:  # an edge that is not a pair
        with pytest.raises(type(error)):
            CompactGraph.from_edges(edges, vertices)
        return
    got = CompactGraph.from_edges(edges, vertices)
    assert _arrays(got) == _arrays(expected)
    assert [type(label) for label in got.labels] == [type(label) for label in expected.labels]
    assert got.degrees == expected.degrees


@pytest.mark.parametrize("name", LANES)
@SETTINGS
@given(
    edges=st.lists(st.tuples(int_labels, int_labels), max_size=60),
    vertices=st.none() | st.lists(int_labels, max_size=5),
)
def test_int_edges_match_detour(name, edges, vertices):
    with lane(name):
        _assert_matches_detour(edges, vertices)
        if all(u != v for u, v in edges):
            fast = _int_edges_to_csr(list(edges), list(vertices or []))
            # Plain ints in int64 range: the numpy lane really ran.
            assert (fast is None) == (name == "stdlib")


@pytest.mark.parametrize("name", LANES)
@SETTINGS
@given(edges=st.lists(st.tuples(labels, labels), max_size=40))
def test_mixed_labels_match_detour(name, edges):
    with lane(name):
        _assert_matches_detour(edges)


@pytest.mark.parametrize("name", LANES)
@pytest.mark.parametrize(
    "edges",
    [
        [],
        [(1, 2), (2, 1), (1, 2)],
        [(True, 2), (1, 3)],
        [(1, 2), (True, 3)],
        [("a", 1), (1, "a"), (1, 2)],
        [(2**64, 1), (1, 2)],
        [(10**15, 3), (3, -(10**15)), (-(10**15), 10**15)],
        [(5, 7), (7, 7)],
        [(1, True)],
        [(1, 2, 3), (4,)],
        [(1, 2), (3, 4, 5)],
    ],
    ids=["empty", "dup-reversed", "bool-first", "int-first", "str-int", "beyond-int64",
         "sparse-ints", "self-loop", "bool-self-loop", "triple-single", "pair-triple"],
)
def test_edge_cases_match_detour(name, edges):
    with lane(name):
        _assert_matches_detour(edges)


@pytest.mark.parametrize("name", LANES)
def test_generator_input_and_vertices(name):
    with lane(name):
        got = CompactGraph.from_edges(((u, u + 1) for u in range(4)), vertices=[9, 2])
    assert got.labels == [9, 2, 0, 1, 3, 4]
    assert got.degrees == [0, 2, 1, 2, 2, 1]


@pytest.mark.parametrize("name", LANES)
@pytest.mark.parametrize("dataset", dataset_names())
def test_registry_datasets_match_detour(name, dataset):
    graph = load_dataset(dataset, scale=0.1)
    edges = list(graph.edges())
    rng = random.Random(dataset)
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    edges += edges[: len(edges) // 10]  # duplicates, in both directions
    with lane(name):
        _assert_matches_detour(edges)
        # With the vertex order given, the snapshot is the graph's own.
        got = CompactGraph.from_edges(edges, graph.vertices())
    assert _arrays(got) == _arrays(CompactGraph.from_graph(graph))


def test_session_opens_edge_lists_without_a_hash_graph():
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
    session = EgoSession(edges)
    assert session._hash is None
    assert _arrays(session._compact) == _arrays(CompactGraph.from_graph(Graph(edges=edges)))
    assert EgoSession.from_edges(edges).top_k(2).entries == session.top_k(2).entries
    hashed = EgoSession(edges, backend="hash")
    assert isinstance(hashed._hash, Graph) and hashed._compact is None
    assert hashed.scores() == session.scores()


def test_session_from_edge_list_drops_self_loops(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\n0 1\n1 2\n2 2\n0 2\n2 3\n")
    session = EgoSession.from_edge_list(path)
    assert session._compact.labels == [0, 1, 2, 3]
    assert session.scores() == EgoSession(Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])).scores()


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
@pytest.mark.parametrize("dataset", dataset_names())
def test_dense_bitmap_numpy_scatter_equals_the_loop(dataset):
    compact = load_dataset(dataset, scale=0.1).to_compact()
    scattered = build_dense_adjacency(compact.indptr, compact.indices)
    with lane("stdlib"):
        looped = build_dense_adjacency(compact.indptr, compact.indices)
    assert scattered is not None and isinstance(scattered, bytearray)
    assert scattered == looped
