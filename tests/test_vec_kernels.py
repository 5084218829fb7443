"""Parity suite for the vectorized kernel tier (ISSUE 9).

Every test here enforces the same contract from a different angle: the
``numpy`` tier must be **bit-identical** to the pure-Python wedge kernels
(and therefore to the hash-graph oracle) on every graph shape, every
internal routing path (dense vs sorted membership, batched vs hub, sparse
wedge expansion vs row-blocked matmul), and every ``k`` — and when numpy
is *not* importable, negotiation must degrade to ``python`` cleanly with
the PR-6 counted-fallback idiom, never a crash.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import vec_kernels
from repro.core.csr_kernels import CSRChunkKernel, _neighbor_sets_cached
from repro.core.ego_betweenness import all_ego_betweenness
from repro.core.vec_kernels import (
    KERNEL_TIERS,
    describe_kernels,
    normalize_kernel,
    numpy_available,
)
from repro.errors import InvalidParameterError
from repro.graph.csr import CompactGraph
from repro.graph.generators import star_graph
from repro.graph.graph import Graph
from repro.session import EgoSession

from tests.conftest import graph_families

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable"
)

COMMON_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_vertices: int = 14):
    """Small random simple graphs, possibly disconnected (isolated vertices)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(
            st.lists(
                st.sampled_from(possible_edges),
                unique=True,
                max_size=len(possible_edges),
            )
        )
        if possible_edges
        else []
    )
    graph = Graph(vertices=range(n))
    for u, v in edges:
        graph.add_edge(u, v, exist_ok=True)
    return graph


def _tier_pair(compact: CompactGraph, build_dense: bool = True):
    """A (python, numpy) kernel pair over the same CSR buffers."""
    python = CSRChunkKernel(
        compact.indptr, compact.indices, build_dense=build_dense, kernel="python"
    )
    numpy_ = CSRChunkKernel(
        compact.indptr, compact.indices, build_dense=build_dense, kernel="numpy"
    )
    return python, numpy_


def _assert_parity(graph: Graph, build_dense: bool = True, ks=(1, 5)) -> None:
    compact = CompactGraph.from_graph(graph)
    n = compact.num_vertices
    python, numpy_ = _tier_pair(compact, build_dense=build_dense)
    py_scores = python.score_chunk(range(n))
    np_scores = numpy_.score_chunk(range(n))
    assert np_scores == py_scores  # dict equality is bit-exact on the floats
    assert numpy_.kernel_fallbacks == 0
    assert numpy_.chunks_by_tier["numpy"] >= 1
    # The python tier itself agrees with the hash-graph oracle, so the
    # numpy tier is transitively oracle-identical.
    labels = compact.labels
    assert {labels[i]: s for i, s in py_scores.items()} == all_ego_betweenness(graph)
    for k in ks:
        assert sorted(numpy_.top_chunk(range(n), k)) == sorted(
            python.top_chunk(range(n), k)
        )


# ----------------------------------------------------------------------
# Negotiation
# ----------------------------------------------------------------------
def test_normalize_kernel_validates_and_resolves():
    assert normalize_kernel("PYTHON") == "python"
    assert normalize_kernel("auto") in ("python", "numpy")
    assert normalize_kernel("numpy") == "numpy"  # explicit stays explicit
    with pytest.raises(InvalidParameterError) as err:
        normalize_kernel("cuda")
    # The error names every accepted tier with its description.
    for tier in KERNEL_TIERS:
        assert tier in str(err.value)


def test_describe_kernels_covers_every_tier():
    rendered = describe_kernels(KERNEL_TIERS)
    for tier in KERNEL_TIERS:
        assert f"'{tier}'" in rendered


@requires_numpy
def test_auto_resolves_to_numpy_when_available():
    assert normalize_kernel("auto") == "numpy"
    assert numpy_available() is True


# ----------------------------------------------------------------------
# Bit-identity: deterministic families, both membership paths
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("name", sorted(graph_families()))
@pytest.mark.parametrize("build_dense", [True, False])
def test_family_parity(name, build_dense):
    _assert_parity(graph_families()[name], build_dense=build_dense)


@requires_numpy
@pytest.mark.parametrize("name", ["youtube", "wikitalk", "dblp", "pokec", "livejournal"])
def test_registry_dataset_parity(name):
    from repro.datasets.registry import load_dataset

    _assert_parity(load_dataset(name, scale=0.05), ks=(1, 16))


@requires_numpy
@pytest.mark.parametrize("k", [1, 5, 16, 10000])
def test_topk_parity_across_k(social_graph, k):
    compact = social_graph.to_compact()
    n = compact.num_vertices
    python, numpy_ = _tier_pair(compact)
    py_entries = sorted(python.top_chunk(range(n), k))
    np_entries = sorted(numpy_.top_chunk(range(n), k))
    assert np_entries == py_entries
    if k >= n:
        assert len(np_entries) == n  # k past the graph returns everything


@requires_numpy
def test_top_chunk_rejects_nonpositive_k(triangle_graph):
    compact = triangle_graph.to_compact()
    _, numpy_ = _tier_pair(compact)
    with pytest.raises(InvalidParameterError):
        numpy_.top_chunk(range(compact.num_vertices), 0)


@requires_numpy
def test_empty_chunk_scores_nothing(triangle_graph):
    compact = triangle_graph.to_compact()
    _, numpy_ = _tier_pair(compact)
    assert numpy_.score_chunk([]) == {}


@requires_numpy
@given(graph=random_graphs())
@COMMON_SETTINGS
def test_random_graph_parity(graph):
    _assert_parity(graph, ks=(1, 3))


@requires_numpy
@given(graph=random_graphs(max_vertices=10), dense=st.booleans())
@COMMON_SETTINGS
def test_random_graph_parity_sorted_membership(graph, dense):
    _assert_parity(graph, build_dense=dense, ks=(2,))


# ----------------------------------------------------------------------
# Internal routing paths, forced via the tuning constants
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize(
    "budget, singleton, block",
    [
        (64, 4, 2),  # tiny batches, every non-leaf a "hub", 2-row blocks
        (1 << 30, 4, 2048),  # hubs everywhere but sparse wedge route wins
        (64, 1 << 30, 2048),  # hubs disabled: pure batched path, tiny budget
    ],
)
def test_forced_routing_paths_stay_bit_identical(
    monkeypatch, social_graph, budget, singleton, block
):
    monkeypatch.setattr(vec_kernels, "_BATCH_CELL_BUDGET", budget)
    monkeypatch.setattr(vec_kernels, "_SINGLETON_CELLS", singleton)
    monkeypatch.setattr(vec_kernels, "_HUB_ROW_BLOCK", block)
    _assert_parity(social_graph, ks=(5,))
    _assert_parity(star_graph(64), ks=(1,))


@requires_numpy
def test_hub_row_blocked_matmul_path(monkeypatch):
    # A dense-ish hub with the sparse wedge route priced out exercises the
    # row-blocked matmul branch of _score_hub.
    from repro.graph.generators import overlapping_cliques_graph

    monkeypatch.setattr(vec_kernels, "_SINGLETON_CELLS", 4)
    monkeypatch.setattr(vec_kernels, "_BATCH_CELL_BUDGET", 1)
    monkeypatch.setattr(vec_kernels, "_HUB_ROW_BLOCK", 3)
    graph = overlapping_cliques_graph(
        30, clique_size_range=(4, 7), overlap=2, seed=11
    )
    _assert_parity(graph, ks=(4,))


# ----------------------------------------------------------------------
# Labels: the tier works on dense ids; sessions map labels of any type
# ----------------------------------------------------------------------
@requires_numpy
def test_string_and_tuple_labels_parity():
    graph = Graph(vertices=["solo", ("t", 9)])
    for u, v in [
        ("a", "b"), ("b", "c"), ("a", "c"), ("c", ("t", 1)),
        (("t", 1), ("t", 2)), (("t", 2), "a"), ("d", "a"),
    ]:
        graph.add_edge(u, v, exist_ok=True)
    python = EgoSession(graph, kernel="python").scores()
    numpy_ = EgoSession(graph, kernel="numpy").scores()
    assert numpy_ == python
    assert numpy_["solo"] == 0.0  # isolated vertices score zero in both


# ----------------------------------------------------------------------
# Degradation: no numpy, and mid-flight vectorized failure
# ----------------------------------------------------------------------
def _block_numpy(monkeypatch):
    """Make ``import numpy`` raise ImportError for live imports."""
    monkeypatch.setitem(sys.modules, "numpy", None)


def test_negotiation_without_numpy(monkeypatch):
    _block_numpy(monkeypatch)
    assert numpy_available() is False
    assert normalize_kernel("auto") == "python"
    # Explicit "numpy" is still returned as-is: policy is the caller's.
    assert normalize_kernel("numpy") == "numpy"


def test_session_degrades_without_numpy(monkeypatch, social_graph):
    _block_numpy(monkeypatch)
    session = EgoSession(social_graph, kernel="numpy")
    assert session.kernel == "python"
    scores = session.scores()
    assert scores == EgoSession(social_graph, kernel="python").scores()
    stats = session.stats()
    assert stats.kernel == "python"
    assert stats.kernel_fallbacks == 1
    assert stats.kernel_chunks["numpy"] == 0


def test_session_auto_without_numpy_is_not_a_fallback(monkeypatch, triangle_graph):
    _block_numpy(monkeypatch)
    session = EgoSession(triangle_graph, kernel="auto")
    assert session.kernel == "python"
    assert session.stats().kernel_fallbacks == 0  # auto resolving is not a failure


def test_session_rejects_unknown_kernel(triangle_graph):
    with pytest.raises(InvalidParameterError) as err:
        EgoSession(triangle_graph, kernel="cuda")
    assert "numpy" in str(err.value)


@requires_numpy
def test_kernel_demotes_on_vectorized_failure(social_graph):
    compact = social_graph.to_compact()
    n = compact.num_vertices
    python, numpy_ = _tier_pair(compact)
    expected = python.score_chunk(range(n))

    class _Boom:
        def score_ids(self, ids):
            raise RuntimeError("injected vectorized failure")

    numpy_._vec = _Boom()
    scores = numpy_.score_chunk(range(n))
    assert scores == expected  # recomputed on the python tier, never lost
    assert numpy_.kernel == "python"
    assert numpy_.kernel_fallbacks == 1
    assert numpy_.chunks_by_tier == {"python": 1, "numpy": 0}
    # The demotion is permanent: the next chunk goes straight to python.
    assert numpy_.score_chunk(range(n)) == expected
    assert numpy_.kernel_fallbacks == 1


@requires_numpy
def test_top_chunk_demotes_on_vectorized_failure(social_graph):
    compact = social_graph.to_compact()
    n = compact.num_vertices
    python, numpy_ = _tier_pair(compact)

    class _Boom:
        def score_ids(self, ids):
            raise RuntimeError("injected vectorized failure")

    numpy_._vec = _Boom()
    assert sorted(numpy_.top_chunk(range(n), 5)) == sorted(
        python.top_chunk(range(n), 5)
    )
    assert numpy_.kernel == "python"
    assert numpy_.kernel_fallbacks == 1


# ----------------------------------------------------------------------
# Shared-buffer memoisation (satellite: _build_neighbor_sets once per pair)
# ----------------------------------------------------------------------
def test_neighbor_sets_memoised_by_buffer_identity(social_graph):
    compact = social_graph.to_compact()
    first = _neighbor_sets_cached(compact.indptr, compact.indices)
    second = _neighbor_sets_cached(compact.indptr, compact.indices)
    assert first is second
    # Kernels built over the same buffers share the derived sets too.
    python, numpy_ = _tier_pair(compact)
    assert python.nbr_sets is numpy_.nbr_sets
    # Different buffers (a copy) miss the identity cache.
    other = CompactGraph.from_graph(social_graph)
    assert _neighbor_sets_cached(other.indptr, other.indices) is not first


# ----------------------------------------------------------------------
# Stats and metrics reporting (satellite: tier observability)
# ----------------------------------------------------------------------
@requires_numpy
def test_session_stats_report_numpy_tier(social_graph):
    session = EgoSession(social_graph, kernel="numpy")
    session.scores()
    session.top_k(5)
    stats = session.stats()
    assert stats.kernel == "numpy"
    assert stats.kernel_chunks["numpy"] >= 1
    assert stats.kernel_chunks["python"] == 0
    assert stats.kernel_fallbacks == 0
    payload = json.loads(json.dumps(stats.as_dict()))
    assert payload["kernel"] == "numpy"
    assert payload["kernel_chunks"]["numpy"] >= 1


def test_session_stats_report_python_tier(social_graph):
    session = EgoSession(social_graph, kernel="python")
    session.scores()  # serial python path: the canonical sweep, no chunking
    stats = session.stats()
    assert stats.kernel == "python"
    assert stats.kernel_chunks == {"python": 0, "numpy": 0}
    # The chunked runtime path does account python-tier chunks.
    session.parallel_scores(2, executor="serial")
    stats = session.stats()
    assert stats.kernel_chunks["python"] >= 1
    assert stats.kernel_chunks["numpy"] == 0
    assert stats.kernel_fallbacks == 0


def test_gateway_metrics_carry_kernel_fields(social_graph):
    import asyncio

    from repro.serving.gateway import ServingGateway

    async def drive():
        async with ServingGateway(executor="serial") as gateway:
            gateway.add_tenant("t", social_graph.to_compact(), kernel="auto")
            await gateway.scores("t")
            return gateway.stats()

    stats = asyncio.run(drive())
    tenant = stats["tenants"]["t"]
    assert tenant["kernel"] == normalize_kernel("auto")
    assert set(tenant["kernel_chunks"]) == {"python", "numpy"}
    assert tenant["kernel_fallbacks"] == 0
    if tenant["kernel"] == "numpy":
        # The numpy tier serves serial sweeps through the chunk kernel;
        # the python tier's serial path is the unchunked canonical sweep.
        assert tenant["kernel_chunks"]["numpy"] >= 1
        assert tenant["kernel_chunks"]["python"] == 0


# ----------------------------------------------------------------------
# Runtime transport: the numpy tier ships nothing extra
# ----------------------------------------------------------------------
@requires_numpy
def test_runtime_numpy_tier_parity_and_zero_extra_ships(social_graph):
    from repro.parallel.runtime import ExecutionRuntime

    compact = social_graph.to_compact()
    shipped = {}
    scores = {}
    for tier in ("python", "numpy"):
        with ExecutionRuntime(max_workers=2, kernel=tier) as runtime:
            scores[tier], _ = runtime.execute(compact)
            stats = runtime.stats()
            shipped[tier] = (stats.payload_ships, stats.payload_bytes_shipped)
            assert stats.kernel == tier
            assert stats.kernel_chunks[tier] >= 1
            assert stats.kernel_fallbacks == 0
    assert scores["numpy"] == scores["python"]
    # np.frombuffer views attach to the already-shipped CSR segments:
    # identical ship counts and bytes across tiers.
    assert shipped["numpy"] == shipped["python"]


@requires_numpy
def test_serial_runtime_numpy_parity(social_graph):
    from repro.parallel.runtime import ExecutionRuntime

    compact = social_graph.to_compact()
    results = {}
    for tier in ("python", "numpy"):
        with ExecutionRuntime(executor="serial", kernel=tier) as runtime:
            results[tier], _ = runtime.execute(compact)
            top, _ = runtime.execute_top_k(compact, 5)
            results[tier, "top"] = top
            assert runtime.stats().kernel_chunks[tier] >= 1
    assert results["numpy"] == results["python"]
    assert results["numpy", "top"] == results["python", "top"]


# ----------------------------------------------------------------------
# Session-level cross-tier parity, serial and parallel
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("kernel", ["python", "numpy", "auto"])
def test_session_scores_and_topk_parity(social_graph, kernel):
    oracle = EgoSession(social_graph, kernel="python")
    session = EgoSession(social_graph, kernel=kernel)
    assert session.scores() == oracle.scores()
    # TopKResult.__eq__ compares embedded timing stats; compare entries.
    assert list(session.top_k(5)) == list(oracle.top_k(5))


@requires_numpy
def test_session_parallel_numpy_parity(social_graph):
    serial = EgoSession(social_graph, kernel="numpy")
    parallel = EgoSession(social_graph, kernel="numpy")
    try:
        assert (
            parallel.scores(parallel=2, executor="process")
            == serial.scores()
        )
        assert list(
            parallel.top_k(8, parallel=2, executor="process")
        ) == list(serial.top_k(8))
        stats = parallel.stats()
        assert stats.kernel == "numpy"
        assert stats.kernel_chunks["numpy"] >= 1
    finally:
        parallel.close()
