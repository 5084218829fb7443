"""One payload per graph: every batch runs on the whole graph's CSR payload.

A runtime holds exactly one payload at a time — the snapshot of its last
batch — and ships it once per graph version, whatever subsets, label types
or executors the batches use.  Every parallel answer equals the hash-graph
oracle exactly (``==`` on floats), on graphs with isolated vertices and
under non-integer labels; after updates it equals a hash session fed the
same events.  No stats payload carries a sharding block.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ego_betweenness import all_ego_betweenness
from repro.core.topk import rank_entries
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.graph.graph import Graph
from repro.parallel.runtime import ExecutionRuntime
from repro.serving import ServingGateway
from repro.session import EgoSession

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EXECUTORS = ["serial", pytest.param("process", marks=pytest.mark.parallel)]


@st.composite
def random_graphs(draw, max_vertices: int = 16):
    """Small random simple graphs — disconnected and isolated vertices included."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
        if possible
        else []
    )
    graph = Graph(vertices=range(n))
    for u, v in edges:
        graph.add_edge(u, v, exist_ok=True)
    return graph


def _relabel(graph: Graph, kind: str) -> Graph:
    """The same topology under non-integer labels (strings or tuples)."""
    if kind == "str":
        mapping = {v: f"vertex-{v}" for v in graph.vertices()}
    else:
        mapping = {v: ("node", v) for v in graph.vertices()}
    out = Graph(vertices=[mapping[v] for v in graph.vertices()])
    for u, v in graph.edges():
        out.add_edge(mapping[u], mapping[v])
    return out


def _disjoint_stars() -> Graph:
    """Stars of 2–4 leaves: masses of exact score ties at every threshold."""
    edges, base = [], 0
    for leaves in (3, 2, 3, 4, 2, 3, 4, 3, 2):
        edges.extend((base, base + 1 + leaf) for leaf in range(leaves))
        base += leaves + 1
    return Graph(edges=edges)


# ----------------------------------------------------------------------
# Residency: one held payload, shipped once per version
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", EXECUTORS)
def test_runtime_holds_one_payload_at_a_time(executor):
    first = barabasi_albert_graph(40, 3, seed=3).to_compact()
    second = erdos_renyi_graph(30, 0.2, seed=4).to_compact()
    with ExecutionRuntime(max_workers=2, executor=executor) as runtime:
        runtime.execute(first, num_workers=2)
        assert runtime._held.compact is first
        assert runtime.stats().resident_payloads == 1
        scores, batch = runtime.execute(second, num_workers=2)
        assert batch.shipped
        labels = second.labels
        assert {labels[i]: s for i, s in scores.items()} == all_ego_betweenness(
            second.to_graph()
        )
        # The first payload was released when the second one shipped.
        assert runtime._held.compact is second
        stats = runtime.stats()
        assert (stats.resident_payloads, stats.payload_evictions) == (1, 1)
        assert stats.payload_ships == 2
    assert runtime._held is None


@pytest.mark.parametrize("executor", EXECUTORS)
def test_subset_batches_ship_the_payload_once(executor):
    """Subset batches on one snapshot, whichever vertices they pick,
    run on the one resident payload: nothing re-ships, nothing evicts."""
    graph = barabasi_albert_graph(60, 3, seed=7)
    oracle = all_ego_betweenness(graph)
    with EgoSession(graph) as session:
        picks = sorted(oracle)[::13]
        for vertex in picks * 2:
            answer = session.scores_batch([[vertex]], parallel=2, executor=executor)[0]
            assert answer == {vertex: oracle[vertex]}
        stats = session.runtime_stats()[executor]
        assert stats.payload_ships == 1
        assert stats.payload_evictions == 0
        assert stats.resident_payloads == 1


@pytest.mark.parametrize("executor", EXECUTORS)
def test_apply_reships_once_and_evicts_the_old_version(executor):
    graph = barabasi_albert_graph(60, 3, seed=7)
    with EgoSession(graph) as session, EgoSession(graph, backend="hash") as oracle:
        subset = sorted(graph.vertices())[::5]
        assert session.scores_batch([subset], parallel=2, executor=executor)[0] == (
            oracle.scores(vertices=subset)
        )
        u, v = next(iter(graph.edges()))
        session.apply(("delete", u, v))
        oracle.apply(("delete", u, v))
        for _ in range(2):
            answer = session.scores_batch([subset], parallel=2, executor=executor)[0]
            assert answer == oracle.scores(vertices=subset)
            # The dynamic index answers reads from the overlay's histograms;
            # an engine run is the batch that ships the new version.
            run = session.parallel_scores(2, executor=executor)
            assert run.scores == oracle.scores()
        stats = session.runtime_stats()[executor]
        assert stats.payload_ships == 2
        assert stats.payload_evictions == 1
        assert stats.resident_payloads == 1


# ----------------------------------------------------------------------
# Answers: every route equals the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", EXECUTORS)
def test_one_execution_path_matches_the_oracle(executor):
    """Top-k, subset and full batches on the single payload answer like
    the oracle, ties at the threshold included."""
    for graph in (_disjoint_stars(), barabasi_albert_graph(50, 3, seed=5)):
        oracle = EgoSession(graph, backend="hash")
        truth = oracle.scores()
        for k in (1, 4, 7):
            expected = rank_entries(truth.items())[:k]
            with EgoSession(graph) as session:
                ranked = session.top_k(k, parallel=2, executor=executor)
                assert ranked.entries == expected
                for algorithm in ("opt", "base"):
                    assert session.top_k(k, algorithm=algorithm).entries == expected
        with EgoSession(graph) as session:
            subset = sorted(truth)[::3]
            answers = session.scores_batch([subset], parallel=2, executor=executor)
            assert answers[0] == {v: truth[v] for v in subset}
            full = session.scores_batch([None], parallel=2, executor=executor)
            assert full == [truth]
        oracle.close()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("kind", ["str", "tuple"])
def test_non_integer_labels(kind, executor):
    graph = _relabel(barabasi_albert_graph(40, 3, seed=4), kind)
    oracle = all_ego_betweenness(graph)
    with EgoSession(graph) as session:
        assert session.scores(parallel=2, executor=executor) == oracle
        subset = sorted(oracle)[::7]
        batch = session.scores_batch([subset, None], parallel=2, executor=executor)
        assert batch == [{v: oracle[v] for v in subset}, oracle]
        expected = rank_entries(oracle.items())[:5]
        assert session.top_k(5, parallel=2, executor=executor).entries == expected


def test_isolated_vertices_are_scored():
    graph = Graph(vertices=range(8))
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    oracle = all_ego_betweenness(graph)
    with EgoSession(graph) as session:
        scores = session.scores(parallel=2)
        assert sorted(scores) == list(range(8))
        assert scores == oracle
        assert all(scores[v] == 0.0 for v in range(3, 8))
        assert session.top_k(8, parallel=2).entries == rank_entries(oracle.items())


@COMMON_SETTINGS
@given(random_graphs(), st.integers(min_value=1, max_value=18))
def test_random_graph_parallel_answers_bit_identical(graph, k):
    oracle = all_ego_betweenness(graph)
    with EgoSession(graph) as session:
        assert session.scores(parallel=2) == oracle
        assert session.top_k(k, parallel=2).entries == rank_entries(oracle.items())[:k]


@COMMON_SETTINGS
@given(random_graphs(max_vertices=10), st.data())
def test_updates_then_parallel_answers_track_the_oracle(graph, data):
    """After each update the parallel batch equals a hash session fed the
    same events (bit-identical) and a fresh recomputation (to the 1e-9
    contract of maintained values)."""
    n = graph.num_vertices
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    steps = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)) if pairs else []
    working = graph.copy()
    with EgoSession(graph) as session, EgoSession(graph, backend="hash") as oracle:
        assert session.scores(parallel=2) == oracle.scores()
        for u, v in steps:
            event = ("delete" if working.has_edge(u, v) else "insert", u, v)
            if event[0] == "delete":
                working.remove_edge(u, v)
            else:
                working.add_edge(u, v)
            session.apply(event)
            oracle.apply(event)
            answer = session.scores_batch([None], parallel=2)[0]
            assert answer == oracle.scores()
            truth = all_ego_betweenness(working)
            assert set(answer) == set(truth)
            for vertex, value in truth.items():
                assert answer[vertex] == pytest.approx(value, abs=1e-9)


# ----------------------------------------------------------------------
# Stats: no sharding block anywhere
# ----------------------------------------------------------------------
def test_stats_carry_no_sharding_block():
    graph = barabasi_albert_graph(60, 3, seed=7)
    with EgoSession(graph) as session:
        session.scores_batch([None], parallel=2)
        session.top_k(5, parallel=2)
        stats = session.stats()
        assert not hasattr(stats, "sharding")
        payload = stats.as_dict()
        assert "sharding" not in payload
        runtime = payload["runtimes"]["serial"]
        assert "sharded_batches" not in runtime
        assert "shard_chunks" not in runtime
        assert "shards" not in runtime["last_batch"]


@pytest.mark.serving
def test_gateway_tenant_stats_carry_no_sharding_block():
    graph = barabasi_albert_graph(50, 3, seed=17)
    oracle = all_ego_betweenness(graph)

    async def run():
        async with ServingGateway(window_seconds=0.01, parallel=2) as gateway:
            gateway.add_tenant("alpha", graph)
            with pytest.raises(TypeError, match="shards"):
                gateway.add_tenant("beta", graph, shards=2)
            answer = await gateway.scores("alpha")
            return answer, gateway.stats()["tenants"]

    answer, tenants = asyncio.run(run())
    assert answer == oracle
    assert "beta" not in tenants
    assert "sharding" not in tenants["alpha"]
