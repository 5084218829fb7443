"""Sharding-plane tests: partition invariants, halo closure, bit-identity.

The load-bearing claim of the sharding plane is that it is *invisible* in
the answers: every score, subset and top-k ranking computed across
halo-augmented shard payloads equals the unsharded serial oracle exactly
(``==`` on floats, not approx) — for every partitioner, label type
(ints, strings, tuples), executor, and after incremental plan refreshes.
The structural tests pin the invariants that make that true: shard maps
are total and disjoint, every owned vertex's complete ego network is
local to its shard, and refresh rebuilds exactly the touched shards.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import csr_kernels
from repro.core.csr_kernels import (
    all_ego_betweenness_csr,
    ego_betweenness_from_arrays,
    set_neighbor_sets_cache_limit,
)
from repro.core.ego_betweenness import all_ego_betweenness
from repro.core.topk import rank_entries
from repro.errors import InvalidParameterError, VertexNotFoundError
from repro.graph.generators import barabasi_albert_graph
from repro.graph.graph import Graph
from repro.graph.partition import (
    PARTITIONERS,
    normalize_partitioner,
    partition_graph,
)
from repro.parallel import runtime as runtime_module
from repro.parallel.runtime import set_worker_cache_limit
from repro.serving import ServingGateway
from repro.session import EgoSession

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


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


@st.composite
def graphs_with_shards(draw):
    graph = draw(random_graphs())
    shards = draw(st.integers(min_value=1, max_value=5))
    partitioner = draw(st.sampled_from(("range", "community")))
    return graph, shards, partitioner


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


def _sharded_serial_scores(graph: Graph, shards: int, partitioner: str):
    """Owned scores from per-shard serial kernels, merged across shards."""
    compact = graph.to_compact()
    plan = partition_graph(compact, shards, partitioner)
    merged = {}
    for shard in plan.shards:
        local = all_ego_betweenness_csr(shard.graph)
        for label in shard.owned_labels:
            merged[label] = local[label]
    return plan, merged


class TestPartitionInvariants:
    @COMMON_SETTINGS
    @given(graphs_with_shards())
    def test_shard_map_total_and_disjoint(self, case):
        graph, shards, partitioner = case
        compact = graph.to_compact()
        plan = partition_graph(compact, shards, partitioner)
        seen = []
        for shard in plan.shards:
            seen.extend(shard.owned_labels)
            for label in shard.owned_labels:
                assert plan.shard_of(label) == shard.index
        assert sorted(seen) == sorted(compact.labels)
        assert len(seen) == len(set(seen)) == plan.num_vertices
        assert 1 <= plan.num_shards <= min(shards, compact.num_vertices)

    @COMMON_SETTINGS
    @given(graphs_with_shards())
    def test_halo_closure_keeps_every_owned_ego_local(self, case):
        graph, shards, partitioner = case
        plan = partition_graph(graph.to_compact(), shards, partitioner)
        for shard in plan.shards:
            members = set(shard.graph.labels)
            for label in shard.owned_labels:
                parent_neighbors = set(graph.neighbors(label))
                assert parent_neighbors <= members
                local = shard.graph.id_of(label)
                row = shard.graph.indices[
                    shard.graph.indptr[local] : shard.graph.indptr[local + 1]
                ]
                assert {shard.graph.labels[i] for i in row} == parent_neighbors

    @COMMON_SETTINGS
    @given(graphs_with_shards())
    def test_sharded_scores_bit_identical_to_oracle(self, case):
        graph, shards, partitioner = case
        _, merged = _sharded_serial_scores(graph, shards, partitioner)
        assert merged == all_ego_betweenness(graph)

    @COMMON_SETTINGS
    @given(random_graphs(max_vertices=10), st.data())
    def test_refresh_rebuilds_only_touched_shards(self, graph, data):
        n = graph.num_vertices
        plan = partition_graph(graph.to_compact(), 3, "community")
        working = graph.copy()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        steps = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)) if pairs else []
        for u, v in steps:
            if working.has_edge(u, v):
                working.remove_edge(u, v)
            else:
                working.add_edge(u, v)
            before = [s.version for s in plan.shards]
            members = [set(s.member_labels) for s in plan.shards]
            rebuilt = plan.refresh(working.to_compact(), [(u, v)])
            for shard, old_version, old_members in zip(plan.shards, before, members):
                touched = (
                    shard.index in (plan.shard_of(u), plan.shard_of(v))
                    or {u, v} <= old_members
                )
                assert (shard.index in rebuilt) == touched
                assert shard.version == old_version + (1 if touched else 0)
            merged = {}
            for shard in plan.shards:
                local = all_ego_betweenness_csr(shard.graph)
                merged.update({lab: local[lab] for lab in shard.owned_labels})
            assert merged == all_ego_betweenness(working)

    def test_refresh_adopts_new_vertices(self):
        graph = barabasi_albert_graph(30, 2, seed=9)
        plan = partition_graph(graph.to_compact(), 3, "community")
        working = graph.copy()
        working.add_edge(0, 99)
        rebuilt = plan.refresh(working.to_compact(), [(0, 99)])
        assert plan.shard_of(99) == plan.shard_of(0)
        assert plan.shard_of(0) in rebuilt
        merged = {}
        for shard in plan.shards:
            local = all_ego_betweenness_csr(shard.graph)
            merged.update({lab: local[lab] for lab in shard.owned_labels})
        assert merged == all_ego_betweenness(working)

    @pytest.mark.parametrize("kind", ["str", "tuple"])
    @pytest.mark.parametrize("partitioner", ["range", "community"])
    def test_non_integer_labels(self, kind, partitioner):
        graph = _relabel(barabasi_albert_graph(40, 3, seed=4), kind)
        _, merged = _sharded_serial_scores(graph, 3, partitioner)
        assert merged == all_ego_betweenness(graph)

    def test_isolated_vertices_are_owned_and_scored(self):
        graph = Graph(vertices=range(8))
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        plan, merged = _sharded_serial_scores(graph, 3, "community")
        assert sorted(merged) == list(range(8))
        assert merged == all_ego_betweenness(graph)
        assert plan.shard_of(7) in range(3)

    def test_partition_rejects_bad_inputs(self):
        compact = barabasi_albert_graph(10, 2, seed=1).to_compact()
        with pytest.raises(InvalidParameterError):
            partition_graph(compact, 0)
        with pytest.raises(InvalidParameterError):
            partition_graph(compact, 2, "bogus")
        plan = partition_graph(compact, 2)
        assert plan.partitioner == normalize_partitioner("auto") == "community"
        assert "community" in PARTITIONERS and "range" in PARTITIONERS
        with pytest.raises(VertexNotFoundError):
            plan.shard_of("missing")


class TestSessionSharding:
    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(60, 3, seed=7)

    @pytest.fixture(scope="class")
    def oracle(self, graph):
        return all_ego_betweenness(graph)

    @pytest.mark.parametrize("partitioner", ["range", "community"])
    def test_sharded_queries_bit_identical(self, graph, oracle, partitioner):
        session = EgoSession(graph, shards=3, partitioner=partitioner)
        try:
            assert session.scores(parallel=2) == oracle
            subset = sorted(oracle)[::7]
            batch = session.scores_batch([subset, None], parallel=2)
            assert batch[0] == {v: oracle[v] for v in subset}
            assert batch[1] == oracle
            expected = EgoSession(graph).top_k(5, parallel=2)
            assert session.top_k(5, parallel=2).entries == expected.entries
        finally:
            session.close()

    def test_negotiation_rejects_bad_shards(self, graph):
        for bad in (True, -1, 1.5, "two"):
            with pytest.raises(InvalidParameterError):
                EgoSession(graph, shards=bad)
        with pytest.raises(InvalidParameterError):
            EgoSession(graph, shards=2, partitioner="bogus")
        with pytest.raises(InvalidParameterError, match="hash"):
            EgoSession(graph, backend="hash", shards=2)
        session = EgoSession(graph, shards=2)
        assert (session.shards, session.partitioner) == (2, "community")
        session.close()

    def test_unsharded_session_reports_no_sharding_block(self, graph):
        session = EgoSession(graph)
        assert session.stats().sharding is None
        assert "sharding" not in session.stats().as_dict()
        session.close()

    def test_sharded_stats_shape(self, graph, oracle):
        session = EgoSession(graph, shards=3, partitioner="community")
        try:
            assert session.scores_batch([None], parallel=2)[0] == oracle
            sharding = session.stats().sharding
            assert sharding["shards"] == 3
            assert sharding["partitioner"] == "community"
            assert sharding["num_vertices"] == graph.num_vertices
            assert 0.0 <= sharding["cut_edge_fraction"] <= 1.0
            assert sharding["sharded_batches"] >= 1
            assert sum(sharding["shard_chunks"].values()) >= 1
            assert len(sharding["shard_sizes"]) == 3
            payload = session.stats().as_dict()["sharding"]
            assert json.loads(json.dumps(payload)) == payload
        finally:
            session.close()

    def test_apply_refreshes_only_touched_shards(self, graph):
        session = EgoSession(graph, shards=3, partitioner="community")
        oracle = EgoSession(graph)
        try:
            subset = sorted(graph.vertices())[::5]
            assert session.scores_batch([subset], parallel=2)[0] == {
                v: all_ego_betweenness(graph)[v] for v in subset
            }
            plan = session._shard_plan
            assert plan is not None
            u, v = next(iter(graph.edges()))
            before = [s.version for s in plan.shards]
            session.apply(("delete", u, v))
            oracle.apply(("delete", u, v))
            answer = session.scores_batch([subset], parallel=2)[0]
            assert answer == oracle.scores(vertices=subset)
            bumped = sum(
                1 for s, old in zip(plan.shards, before) if s.version != old
            )
            assert 1 <= bumped <= 3
        finally:
            session.close()
            oracle.close()

    def test_alternating_shard_subsets_ship_each_shard_once(self):
        """Subset batches alternating between shards re-ship nothing.

        Each batch touches one shard; the other shard's payload stays
        resident because nothing superseded it (both versions stay 0).
        """
        session = EgoSession.from_dataset("dblp", scale=0.3, shards=2)
        reference = EgoSession.from_dataset("dblp", scale=0.3)
        try:
            plan = session._current_shard_plan()
            picks = [shard.owned_labels[0] for shard in plan.shards]
            for vertex in picks * 2:
                answer = session.scores_batch([[vertex]], parallel=2)[0]
                assert answer == {vertex: reference.score(vertex)}
            assert [shard.version for shard in plan.shards] == [0, 0]
            stats = session.runtime_stats()["serial"]
            assert stats.payload_ships - len(plan.shards) == 0
            assert stats.payload_evictions == 0
        finally:
            session.close()
            reference.close()


def _disjoint_stars() -> Graph:
    """Stars of 2–4 leaves: masses of exact score ties at every threshold."""
    edges, base = [], 0
    for leaves in (3, 2, 3, 4, 2, 3, 4, 3, 2):
        edges.extend((base, base + 1 + leaf) for leaf in range(leaves))
        base += leaves + 1
    return Graph(edges=edges)


@pytest.mark.parametrize(
    "executor", ["serial", pytest.param("process", marks=pytest.mark.parallel)]
)
@pytest.mark.parametrize("shards", [0, 2, 3])
def test_one_execution_path_matches_the_oracle(executor, shards):
    """Unsharded is a one-unit plan: every plan answers like the oracle."""
    for graph in (_disjoint_stars(), barabasi_albert_graph(50, 3, seed=5)):
        oracle = EgoSession(graph, backend="hash")
        truth = oracle.scores()
        for k in (1, 4, 7):
            expected = rank_entries(truth.items())[:k]
            with EgoSession(graph, shards=shards) as session:
                ranked = session.top_k(k, parallel=2, executor=executor)
                assert ranked.entries == expected
                for algorithm in ("opt", "base"):
                    assert session.top_k(k, algorithm=algorithm).entries == expected
        with EgoSession(graph, shards=shards) as session:
            subset = sorted(truth)[::3]
            answers = session.scores_batch([subset], parallel=2, executor=executor)
            assert answers[0] == {v: truth[v] for v in subset}
            full = session.scores_batch([None], parallel=2, executor=executor)
            assert full == [truth]
            payload = session.runtime_stats()[executor].as_dict()
            assert ("sharded_batches" in payload) == bool(shards)
            assert ("shards" in payload["last_batch"]) == bool(shards)
        oracle.close()


@pytest.mark.parallel
class TestProcessSharding:
    def test_process_sharded_ships_once_per_shard(self):
        graph = barabasi_albert_graph(80, 3, seed=11)
        oracle = all_ego_betweenness(graph)
        session = EgoSession(graph, shards=3, partitioner="community")
        try:
            subset = sorted(graph.vertices())[::9]
            answer = session.scores_batch(
                [subset], parallel=2, executor="process"
            )[0]
            assert answer == {v: oracle[v] for v in subset}
            runtime = session._runtimes["process"]
            initial = runtime.stats().payload_ships
            assert initial == 3
            again = session.scores_batch(
                [subset], parallel=2, executor="process"
            )[0]
            assert again == answer
            assert runtime.stats().payload_ships == initial
            assert runtime.stats().sharded_batches == 2
        finally:
            session.close()

    def test_process_sharded_top_k_matches_serial(self):
        graph = barabasi_albert_graph(70, 3, seed=13)
        expected = EgoSession(graph).top_k(8)
        session = EgoSession(graph, shards=4, partitioner="range")
        try:
            sharded = session.top_k(8, parallel=2, executor="process")
            assert sharded.entries == expected.entries
        finally:
            session.close()


class TestCacheLimits:
    def test_worker_cache_limit_validation_and_env(self, monkeypatch):
        with pytest.raises(InvalidParameterError):
            set_worker_cache_limit(0)
        monkeypatch.setenv("REPRO_WORKER_CACHE_LIMIT", "5")
        assert set_worker_cache_limit() == 5
        monkeypatch.setenv("REPRO_WORKER_CACHE_LIMIT", "not-a-number")
        assert set_worker_cache_limit() == 8  # malformed env -> default
        monkeypatch.delenv("REPRO_WORKER_CACHE_LIMIT")
        assert set_worker_cache_limit() == 8

    def test_worker_cache_shrink_evicts_oldest(self):
        class Attachment:
            def __init__(self):
                self.closed = False

            def close(self):
                self.closed = True

        set_worker_cache_limit(8)
        entries = {f"payload-{i}": Attachment() for i in range(4)}
        runtime_module._WORKER_CACHE.update(entries)
        try:
            assert set_worker_cache_limit(2) == 2
            assert len(runtime_module._WORKER_CACHE) <= 2
            assert sum(1 for a in entries.values() if a.closed) >= 2
        finally:
            runtime_module._WORKER_CACHE.clear()
            set_worker_cache_limit()

    def test_neighbor_sets_limit_validation_env_and_shrink(self, monkeypatch):
        with pytest.raises(InvalidParameterError):
            set_neighbor_sets_cache_limit(0)
        monkeypatch.setenv("REPRO_NBR_SETS_CACHE_LIMIT", "3")
        assert set_neighbor_sets_cache_limit() == 3
        monkeypatch.delenv("REPRO_NBR_SETS_CACHE_LIMIT")
        assert set_neighbor_sets_cache_limit() == 8
        try:
            # Keep every compact alive: the memo is keyed by buffer identity,
            # so freed arrays could alias a recycled id.
            compacts = [
                barabasi_albert_graph(12, 2, seed=seed).to_compact()
                for seed in range(4)
            ]
            for compact in compacts:
                ego_betweenness_from_arrays(
                    compact.indptr, compact.indices, range(compact.num_vertices)
                )
            assert len(csr_kernels._NBR_SETS_CACHE) >= 2
            set_neighbor_sets_cache_limit(1)
            assert len(csr_kernels._NBR_SETS_CACHE) <= 1
        finally:
            csr_kernels._NBR_SETS_CACHE.clear()
            set_neighbor_sets_cache_limit()

    def test_pool_forwards_cache_limits(self):
        pool = runtime_module.WorkerPool(
            2, worker_cache_limit=16, neighbor_cache_limit=16
        )
        assert pool.worker_cache_limit == 16
        assert pool.neighbor_cache_limit == 16
        with pytest.raises(InvalidParameterError):
            runtime_module.WorkerPool(2, worker_cache_limit=0)
        with pytest.raises(InvalidParameterError):
            runtime_module.WorkerPool(2, neighbor_cache_limit=0)


class TestPartitionCLI:
    def test_partition_json_payload(self, capsys):
        assert (
            main(
                [
                    "partition",
                    "--dataset",
                    "dblp",
                    "--scale",
                    "0.08",
                    "--shards",
                    "3",
                    "--partitioner",
                    "community",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "partition"
        assert payload["shards"] == 3
        assert payload["partitioner"] == "community"
        assert payload["cut_edges"] <= payload["total_edges"]
        assert 0.0 <= payload["cut_edge_fraction"] <= 1.0
        assert len(payload["shard_sizes"]) == 3
        assert sum(payload["shard_sizes"]) == payload["num_vertices"]

    def test_partition_table_output(self, capsys):
        assert (
            main(["partition", "--dataset", "dblp", "--scale", "0.08", "--shards", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Shard plan: 2 shards" in out
        assert "cut edges:" in out
        assert "halo overhead:" in out


@pytest.mark.serving
class TestGatewaySharding:
    def test_tenant_sharding_flows_to_gateway_stats(self):
        graph = barabasi_albert_graph(50, 3, seed=17)
        oracle = all_ego_betweenness(graph)

        async def run():
            async with ServingGateway(window_seconds=0.01, parallel=2) as gateway:
                gateway.add_tenant("alpha", graph, shards=2, partitioner="range")
                answer = await gateway.scores("alpha")
                return answer, gateway.stats()["tenants"]["alpha"]

        answer, tenant = asyncio.run(run())
        assert answer == oracle
        assert tenant["sharding"]["shards"] == 2
        assert tenant["sharding"]["partitioner"] == "range"
