"""Parity suite for the vectorized kernel tier (ISSUE 9).

Every test here enforces the same contract from a different angle: the
``numpy`` tier must be **bit-identical** to the pure-Python wedge kernels
(and therefore to the hash-graph oracle) on every graph shape, every
internal routing path (dense vs sorted membership, batched vs hub, sparse
wedge expansion vs row-blocked matmul), and every ``k`` — and when numpy
is *not* importable, sessions and runtimes must run the ``python`` tier
cleanly, never crash.  ``CSRChunkKernel(kernel=)`` is the one place a tier
is named; everywhere else numpy is blocked to reach the python tier.
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
from repro.core.topk import rank_entries
from repro.core.vec_kernels import numpy_available, platform_tier
from repro.errors import InvalidParameterError
from repro.graph.csr import CompactGraph
from repro.graph.generators import star_graph
from repro.graph.graph import Graph
from repro.session import EgoSession

from tests.conftest import ego_histogram, graph_families

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


def _assert_parity(graph: Graph, build_dense: bool = True, ks=(1, 5)) -> CSRChunkKernel:
    """Assert numpy == python == hash oracle; return the numpy-tier kernel."""
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
    # Both tiers produce the same exact state: the histograms, key for
    # key, equal to the by-definition enumeration.
    py_hists = python.histogram_chunk(range(n))
    assert numpy_.histogram_chunk(range(n)) == py_hists
    assert {labels[i]: h for i, h in py_hists.items()} == {
        v: ego_histogram(graph, v) for v in graph.vertices()
    }
    for k in ks:
        assert sorted(numpy_.top_chunk(range(n), k)) == sorted(
            python.top_chunk(range(n), k)
        )
    return numpy_


# ----------------------------------------------------------------------
# The tier follows the platform
# ----------------------------------------------------------------------
def _block_numpy(monkeypatch):
    """Make ``import numpy`` raise ImportError for live imports."""
    monkeypatch.setitem(sys.modules, "numpy", None)


def test_chunk_kernel_tier_validates_and_defaults_to_platform(triangle_graph):
    compact = triangle_graph.to_compact()
    assert CSRChunkKernel(compact.indptr, compact.indices).kernel == platform_tier()
    for tier in ("python", "numpy"):
        assert CSRChunkKernel(compact.indptr, compact.indices, kernel=tier).kernel == tier
    with pytest.raises(InvalidParameterError) as err:
        CSRChunkKernel(compact.indptr, compact.indices, kernel="auto")
    # The error names both tiers.
    assert "python" in str(err.value) and "numpy" in str(err.value)


@requires_numpy
def test_auto_resolves_to_numpy_when_available(triangle_graph):
    from repro.parallel.runtime import ExecutionRuntime

    assert platform_tier() == "numpy"
    compact = triangle_graph.to_compact()
    assert CSRChunkKernel(compact.indptr, compact.indices).kernel == "numpy"
    assert EgoSession(triangle_graph).kernel == "numpy"
    with ExecutionRuntime(executor="serial") as runtime:
        assert runtime.kernel == "numpy"


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
@pytest.mark.parametrize(
    "name, scale", [("dblp", 2.4), ("livejournal", 2.0), ("wikitalk", 2.0)]
)
def test_packed_bitmap_exact_past_the_byte_bitmap_limit(name, scale):
    """Graphs past the python tier's 4096-vertex byte bitmap keep the
    numpy tier's packed bitmap, and stay bit-identical to the oracle."""
    from repro.datasets.registry import load_dataset
    from repro.graph.csr import DENSE_ADJACENCY_VERTEX_LIMIT

    graph = load_dataset(name, scale=scale)
    assert graph.num_vertices > DENSE_ADJACENCY_VERTEX_LIMIT
    numpy_ = _assert_parity(graph, ks=(16,))
    assert numpy_._vec.adjacency is not None


@requires_numpy
@pytest.mark.parametrize("extra, packed", [(0, True), (1, False)])
def test_packed_bitmap_budget_boundary(extra, packed):
    """A path at the budget's vertex count takes the bitmap; one more
    vertex takes the sorted-intersection path.  Both equal the oracle."""
    import math

    limit = math.isqrt(8 * vec_kernels.BITMAP_BYTE_BUDGET)
    while not vec_kernels._fits_bitmap(limit):
        limit -= 1
    n = limit + extra
    graph = Graph(edges=[(i, i + 1) for i in range(n - 1)])
    # A triangle keeps some scores non-zero and the histograms non-trivial.
    graph.add_edge(0, 2)
    assert graph.num_vertices == n
    numpy_ = _assert_parity(graph, ks=(3,))
    assert (numpy_._vec.adjacency is not None) is packed
    if packed:
        assert numpy_._vec.adjacency.nbytes <= vec_kernels.BITMAP_BYTE_BUDGET


@requires_numpy
@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17])
def test_packed_bitmap_rows_pad_to_whole_bytes(n):
    """Rows of ``n+1`` bits either side of a byte boundary: the unpacked
    bitmap is exactly the sentinel-padded adjacency matrix, and every
    score equals the oracle."""
    import numpy as np

    # Every second pair of a complete graph, plus a chord to the last
    # vertex: edges land in every byte of every row, the last bit included.
    graph = Graph(vertices=range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs[::2] + [(0, n - 1)]:
        graph.add_edge(u, v, exist_ok=True)
    numpy_ = _assert_parity(graph, ks=(1, n))
    bits = numpy_._vec.adjacency
    assert bits.shape == (n + 1, (n + 8) // 8)
    compact = CompactGraph.from_graph(graph)
    expected = np.zeros((n + 1, n + 1), dtype=np.uint8)
    for u in range(n):
        row = compact.indices[compact.indptr[u] : compact.indptr[u + 1]]
        expected[u, list(row)] = 1
    unpacked = np.unpackbits(bits, axis=1, bitorder="little")
    assert (unpacked[:, : n + 1] == expected).all()
    assert not unpacked[:, n + 1 :].any()  # the padding bits stay clear


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
        (64, 4, 2),  # tiny batches, every non-leaf a "hub", 2-cell key blocks
        (1 << 30, 4, 2048),  # hubs everywhere but sparse wedge route wins
        (64, 1 << 30, 2048),  # hubs disabled: pure batched path, tiny budget
    ],
)
def test_forced_routing_paths_stay_bit_identical(
    monkeypatch, social_graph, budget, singleton, block
):
    monkeypatch.setattr(vec_kernels, "_BATCH_CELL_BUDGET", budget)
    monkeypatch.setattr(vec_kernels, "_SINGLETON_CELLS", singleton)
    monkeypatch.setattr(vec_kernels, "_KEY_BLOCK_CELLS", block)
    for build_dense in (True, False):
        _assert_parity(social_graph, build_dense=build_dense, ks=(5,))
        _assert_parity(star_graph(64), build_dense=build_dense, ks=(1,))


@requires_numpy
def test_hub_row_blocked_matmul_path(monkeypatch):
    # A dense-ish hub with the sparse wedge route priced out exercises the
    # row-blocked matmul branch of _score_hub.
    from repro.graph.generators import overlapping_cliques_graph

    monkeypatch.setattr(vec_kernels, "_SINGLETON_CELLS", 4)
    monkeypatch.setattr(vec_kernels, "_BATCH_CELL_BUDGET", 1)
    monkeypatch.setattr(vec_kernels, "_KEY_BLOCK_CELLS", 3)
    graph = overlapping_cliques_graph(
        30, clique_size_range=(4, 7), overlap=2, seed=11
    )
    _assert_parity(graph, ks=(4,))
    _assert_parity(graph, build_dense=False, ks=(4,))


# ----------------------------------------------------------------------
# Past the bitmap budget: the edge-key membership test
# ----------------------------------------------------------------------
def _past_the_bitmap(mp) -> None:
    """Patch the bitmap budget so every graph takes the edge-key test."""
    mp.setattr(vec_kernels, "BITMAP_BYTE_BUDGET", 0)


@requires_numpy
@given(graph=random_graphs())
@COMMON_SETTINGS
def test_random_graph_parity_past_the_bitmap_budget(graph):
    with pytest.MonkeyPatch.context() as mp:
        _past_the_bitmap(mp)
        numpy_ = _assert_parity(graph, ks=(1, 3))
        assert numpy_._vec is None or numpy_._vec.adjacency is None


def _hub_graph(leaves: int, leaf_edge_p: float, seed: int) -> Graph:
    """Vertex 0 adjacent to every leaf, plus random leaf–leaf edges."""
    import random

    rng = random.Random(seed)
    graph = Graph(edges=[(0, leaf) for leaf in range(1, leaves + 1)])
    for u in range(1, leaves + 1):
        for v in range(u + 1, leaves + 1):
            if rng.random() < leaf_edge_p:
                graph.add_edge(u, v)
    return graph


@requires_numpy
@pytest.mark.parametrize(
    "leaf_edge_p",
    [
        0.005,  # a star: few wedges, the sparse route
        0.15,  # a dense hub: the row-blocked matmul route
    ],
)
def test_hub_routes_past_the_bitmap_budget(monkeypatch, leaf_edge_p):
    leaves = 190
    assert leaves * leaves > vec_kernels._SINGLETON_CELLS  # the hub path
    graph = _hub_graph(leaves, leaf_edge_p, seed=7)
    _past_the_bitmap(monkeypatch)
    numpy_ = _assert_parity(graph, ks=(1, 8))
    assert numpy_._vec.adjacency is None and numpy_._vec.edge_keys is not None
    # Small key and row blocks split the hub across many blocks.
    monkeypatch.setattr(vec_kernels, "_KEY_BLOCK_CELLS", 64)
    monkeypatch.setattr(vec_kernels, "_BATCH_CELL_BUDGET", 4 * leaves)
    compact = CompactGraph.from_graph(graph)
    python, blocked = _tier_pair(compact)
    ids = range(compact.num_vertices)
    assert blocked.score_chunk(ids) == python.score_chunk(ids)
    assert blocked.kernel_fallbacks == 0


@requires_numpy
def test_histograms_run_one_blas_thread_and_restore_the_callers(
    monkeypatch, social_graph
):
    calls = vec_kernels._openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS mapped into this process")
    get_threads, set_threads = calls[0]
    saved = get_threads()
    inside = []
    score_batch = vec_kernels.VectorizedChunkScorer._score_batch

    def spy(self, batch, hists):
        inside.append(get_threads())
        return score_batch(self, batch, hists)

    monkeypatch.setattr(vec_kernels.VectorizedChunkScorer, "_score_batch", spy)
    compact = social_graph.to_compact()
    scorer = vec_kernels.VectorizedChunkScorer(compact.indptr, compact.indices)
    try:
        set_threads(2)  # OpenBLAS clamps this to the threads it has
        caller = get_threads()
        scorer.histograms(range(compact.num_vertices))
        after = get_threads()
        with vec_kernels.one_blas_thread():  # scopes nest
            with vec_kernels.one_blas_thread():
                nested = get_threads()
            still = get_threads()
        outer = get_threads()
    finally:
        set_threads(saved)
    assert inside and set(inside) == {1}
    assert after == caller and outer == caller
    assert nested == still == 1


# ----------------------------------------------------------------------
# Labels: the tier works on dense ids; sessions map labels of any type
# ----------------------------------------------------------------------
@requires_numpy
def test_string_and_tuple_labels_parity(monkeypatch):
    graph = Graph(vertices=["solo", ("t", 9)])
    for u, v in [
        ("a", "b"), ("b", "c"), ("a", "c"), ("c", ("t", 1)),
        (("t", 1), ("t", 2)), (("t", 2), "a"), ("d", "a"),
    ]:
        graph.add_edge(u, v, exist_ok=True)
    numpy_ = EgoSession(graph).scores()
    _block_numpy(monkeypatch)
    python = EgoSession(graph).scores()
    assert numpy_ == python
    assert numpy_["solo"] == 0.0  # isolated vertices score zero in both


# ----------------------------------------------------------------------
# Degradation: no numpy, and mid-flight vectorized failure
# ----------------------------------------------------------------------
def test_negotiation_without_numpy(monkeypatch, triangle_graph):
    from repro.parallel.runtime import ExecutionRuntime

    _block_numpy(monkeypatch)
    assert numpy_available() is False
    assert platform_tier() == "python"
    compact = triangle_graph.to_compact()
    assert CSRChunkKernel(compact.indptr, compact.indices).kernel == "python"
    assert EgoSession(triangle_graph).kernel == "python"
    with ExecutionRuntime(executor="serial") as runtime:
        assert runtime.kernel == "python"
        assert runtime.stats().kernel == "python"


def test_session_degrades_without_numpy(monkeypatch, social_graph):
    expected = all_ego_betweenness(social_graph)
    _block_numpy(monkeypatch)
    session = EgoSession(social_graph)
    assert session.kernel == "python"
    assert session.scores() == expected
    session.parallel_scores(2, executor="serial")
    stats = session.stats()
    assert stats.kernel == "python"
    assert stats.kernel_chunks["numpy"] == 0
    assert stats.kernel_chunks["python"] >= 1


def test_session_auto_without_numpy_is_not_a_fallback(monkeypatch, triangle_graph):
    _block_numpy(monkeypatch)
    session = EgoSession(triangle_graph)
    session.scores()
    assert session.kernel == "python"
    # Running the platform's tier is not a failure; only demotions count.
    assert session.stats().kernel_fallbacks == 0


def test_session_rejects_unknown_kernel(triangle_graph):
    with pytest.raises(TypeError, match="kernel"):
        EgoSession(triangle_graph, kernel="cuda")


@requires_numpy
def test_kernel_demotes_on_vectorized_failure(social_graph):
    compact = social_graph.to_compact()
    n = compact.num_vertices
    python, numpy_ = _tier_pair(compact)
    expected = python.score_chunk(range(n))

    class _Boom:
        def histograms(self, ids):
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
        def histograms(self, ids):
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
    session = EgoSession(social_graph)
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


def test_session_stats_report_python_tier(monkeypatch, social_graph):
    _block_numpy(monkeypatch)
    session = EgoSession(social_graph)
    session.scores()  # one serial-runtime chunk on the python tier
    stats = session.stats()
    assert stats.kernel == "python"
    assert stats.kernel_chunks == {"python": 1, "numpy": 0}
    session.parallel_scores(2, executor="serial")
    stats = session.stats()
    assert stats.kernel_chunks["python"] >= 2
    assert stats.kernel_chunks["numpy"] == 0
    assert stats.kernel_fallbacks == 0


@pytest.mark.parametrize("tier", [pytest.param("numpy", marks=requires_numpy), "python"])
def test_one_kernel_serves_every_cold_read(monkeypatch, social_graph, tier):
    """Every cold read of a CSR session is a chunk of its serial runtime's
    one held kernel, so each shows in ``kernel_chunks`` at the platform
    tier, and the numpy tier builds one scorer for the whole sequence."""
    oracle = all_ego_betweenness(social_graph)
    if tier == "python":
        _block_numpy(monkeypatch)
    built = []
    if tier == "numpy":
        scorer_init = vec_kernels.VectorizedChunkScorer.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            scorer_init(self, *args, **kwargs)

        monkeypatch.setattr(vec_kernels.VectorizedChunkScorer, "__init__", counting_init)
    session = EgoSession(social_graph.to_compact())
    assert session.kernel == tier
    some = list(oracle)[:5]
    reads = [
        lambda: session.score(some[0]) == oracle[some[0]],
        lambda: session.scores(some) == {v: oracle[v] for v in some},
        lambda: list(session.top_k(10, parallel=1, executor="serial"))
        == rank_entries(oracle.items())[:10],
        lambda: session.scores() == oracle,
        lambda: session.promote() is None and session.scores() == oracle,
    ]
    chunks = 0
    for read in reads:
        assert read()
        served = session.stats().kernel_chunks
        assert served[tier] > chunks  # this read ran at least one chunk
        assert sum(served.values()) == served[tier]
        chunks = served[tier]
    assert len(built) == (1 if tier == "numpy" else 0)
    assert set(session.runtime_stats()) == {"serial"}


def test_gateway_metrics_carry_kernel_fields(social_graph):
    import asyncio

    from repro.serving.gateway import ServingGateway

    async def drive():
        async with ServingGateway(executor="serial") as gateway:
            gateway.add_tenant("t", social_graph.to_compact())
            await gateway.scores("t")
            return gateway.stats()

    stats = asyncio.run(drive())
    tenant = stats["tenants"]["t"]
    assert tenant["kernel"] == platform_tier()
    assert set(tenant["kernel_chunks"]) == {"python", "numpy"}
    assert tenant["kernel_fallbacks"] == 0
    # The tenant's cold sweep is a serial-runtime chunk on the platform tier.
    other = "python" if tenant["kernel"] == "numpy" else "numpy"
    assert tenant["kernel_chunks"][tenant["kernel"]] >= 1
    assert tenant["kernel_chunks"][other] == 0


# ----------------------------------------------------------------------
# Runtime transport: the numpy tier ships nothing extra
# ----------------------------------------------------------------------
@requires_numpy
def test_runtime_numpy_tier_parity_and_zero_extra_ships(monkeypatch, social_graph):
    from repro.parallel.runtime import ExecutionRuntime

    compact = social_graph.to_compact()
    with ExecutionRuntime(max_workers=2) as runtime:
        scores, _ = runtime.execute(compact)
        runtime.execute_top_k(compact, 5)
        stats = runtime.stats()
    assert stats.kernel == "numpy"
    assert stats.kernel_chunks["numpy"] >= 1
    assert stats.kernel_chunks["python"] == 0
    assert stats.kernel_fallbacks == 0
    # np.frombuffer views attach to the shipped CSR segment: one ship of
    # exactly the two int64 arrays, nothing built parent-side rides along.
    assert stats.payload_ships == 1
    assert stats.payload_bytes_shipped == 8 * (len(compact.indptr) + len(compact.indices))
    _block_numpy(monkeypatch)
    with ExecutionRuntime(max_workers=2) as runtime:
        python_scores, _ = runtime.execute(compact)
        assert runtime.stats().kernel_chunks == {
            "python": runtime.stats().tasks, "numpy": 0
        }
    assert scores == python_scores


@requires_numpy
def test_serial_runtime_numpy_parity(monkeypatch, social_graph):
    from repro.parallel.runtime import ExecutionRuntime

    compact = social_graph.to_compact()
    results = {}
    for tier in ("numpy", "python"):
        if tier == "python":
            _block_numpy(monkeypatch)
        with ExecutionRuntime(executor="serial") as runtime:
            results[tier], _ = runtime.execute(compact)
            top, _ = runtime.execute_top_k(compact, 5)
            results[tier, "top"] = top
            assert runtime.stats().kernel_chunks[tier] >= 1
    assert results["numpy"] == results["python"]
    assert results["numpy", "top"] == results["python", "top"]


# ----------------------------------------------------------------------
# Session-level cross-tier parity, serial and parallel
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kernel", ["python", pytest.param("numpy", marks=requires_numpy), "auto"]
)
def test_session_scores_and_topk_parity(monkeypatch, social_graph, kernel):
    """python: numpy blocked; numpy: numpy present; auto: this platform."""
    oracle = all_ego_betweenness(social_graph)
    expected = EgoSession(social_graph, backend="hash").top_k(5)
    if kernel == "python":
        _block_numpy(monkeypatch)
    session = EgoSession(social_graph)
    assert session.kernel == (platform_tier() if kernel == "auto" else kernel)
    assert session.scores() == oracle
    # TopKResult.__eq__ compares embedded timing stats; compare entries.
    assert list(session.top_k(5)) == list(expected)


@requires_numpy
def test_session_parallel_numpy_parity(social_graph):
    serial = EgoSession(social_graph)
    parallel = EgoSession(social_graph)
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
