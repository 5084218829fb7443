"""Multi-tenant shared-infrastructure tests: one pool, many graphs.

The contract: N sessions (tenants) sharing one :class:`WorkerPool` and one
:class:`PayloadStore` interleave freely — every answer stays bit-identical
to the serial kernels, the store ships exactly one payload per distinct
``(graph_id, version)`` pair however the tenants' batches interleave, and
refcounted eviction releases a version only when its last holder leaves.
"""

from __future__ import annotations

import pytest

from repro.core.ego_betweenness import all_ego_betweenness
from repro.errors import InvalidParameterError
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.parallel.runtime import (
    ExecutionRuntime,
    PayloadStore,
    WorkerPool,
    shared_payload_store,
    shared_worker_pool,
)
from repro.session import EgoSession


@pytest.fixture()
def tenant_graphs():
    return {
        "alpha": barabasi_albert_graph(90, 3, seed=7),
        "beta": erdos_renyi_graph(70, 0.08, seed=11),
    }


def _shared_sessions(tenant_graphs, pool, store, executor="serial"):
    sessions = {}
    for name, graph in tenant_graphs.items():
        session = EgoSession(graph, graph_id=name)
        session.runtime(executor, pool=pool, store=store)
        sessions[name] = session
    return sessions


class TestSharedPayloadStore:
    def test_interleaved_tenants_bit_identical_and_ship_once(self, tenant_graphs):
        oracles = {name: all_ego_betweenness(g) for name, g in tenant_graphs.items()}
        pool, store = WorkerPool(max_workers=2), PayloadStore()
        sessions = _shared_sessions(tenant_graphs, pool, store)
        # Interleave batched queries across the tenants on one store.
        for _ in range(3):
            for name, session in sessions.items():
                full, subset = session.scores_batch([None, [0, 1, 2]], parallel=2)
                assert full == oracles[name]
                assert subset == {v: oracles[name][v] for v in (0, 1, 2)}
        # Ships == number of distinct (graph_id, version) pairs, and no
        # tenant re-shipped the other's graph away.
        assert store.ships == len(tenant_graphs)
        assert store.resident_payloads == len(tenant_graphs)
        assert store.evictions == 0
        assert sorted(store.keys()) == [("alpha", 0), ("beta", 0)]
        for name, session in sessions.items():
            stats = session.runtime_stats()["serial"]
            assert stats.payload_ships == 1
            assert stats.resident_payloads == len(tenant_graphs)
            assert f"{name}@v0" in stats.payloads
        # Every tenant leaving releases its entry: the store drains.
        for session in sessions.values():
            session.close()
        assert store.resident_payloads == 0
        assert store.evictions == len(tenant_graphs)

    def test_refcounted_eviction_follows_versions(self, tenant_graphs):
        pool, store = WorkerPool(), PayloadStore()
        sessions = _shared_sessions(tenant_graphs, pool, store)
        for session in sessions.values():
            session.scores_batch([None], parallel=1)
        alpha = sessions["alpha"]
        alpha.apply(("insert", 0, 89))
        # Reads on a dynamic session serve the maintained index; the
        # engine always executes on the runtime, shipping the new version
        # under ("alpha", 1) and releasing ("alpha", 0).
        alpha.parallel_scores(1)
        assert store.ships == 3
        assert store.evictions == 1
        keys = sorted(store.keys())
        assert ("beta", 0) in keys and ("alpha", 0) not in keys
        assert any(graph_id == "alpha" and version >= 1 for graph_id, version in keys)
        # The maintained answer still matches a from-scratch oracle.
        assert alpha.scores() == all_ego_betweenness(alpha.to_graph())
        for session in sessions.values():
            session.close()

    def test_same_graph_id_and_version_dedupes_across_sessions(self, tenant_graphs):
        store = PayloadStore()
        compact = tenant_graphs["alpha"].to_compact()
        oracle = all_ego_betweenness(tenant_graphs["alpha"])
        sessions = []
        for _ in range(3):
            session = EgoSession(compact, graph_id="shared-graph")
            session.runtime("serial", store=store)
            assert session.scores_batch([None], parallel=1)[0] == oracle
            sessions.append(session)
        # Three tenants, one (graph_id, version) pair -> one ship.
        assert store.ships == 1
        assert store.resident_payloads == 1
        total_ships = sum(
            s.runtime_stats()["serial"].payload_ships for s in sessions
        )
        assert total_ships == 1
        for session in sessions:
            session.close()
        assert store.resident_payloads == 0

    def test_key_hits_do_not_pin_later_snapshots(self, tenant_graphs):
        from repro.graph.csr import CompactGraph

        store = PayloadStore()
        keeper = tenant_graphs["alpha"].to_compact()
        store.ship(keeper, key=("g", 0), materialize=False)
        # Churn: short-lived snapshots of the same graph key-hit the entry
        # and leave; the store must retain only the original shipper's
        # snapshot (one graph copy per entry, not one per session), and
        # its identity map must not grow with the churn.
        for _ in range(5):
            transient = CompactGraph.from_graph(tenant_graphs["alpha"])
            entry, shipped = store.ship(transient, key=("g", 0), materialize=False)
            assert not shipped and entry.compact is keeper
            store.release(("g", 0))
        assert len(store._by_identity) == 1  # the keeper alone
        assert store.resident_payloads == 1 and store.ships == 1
        store.release(("g", 0))
        assert store.resident_payloads == 0

    def test_store_rejects_use_after_close(self, tenant_graphs):
        store = PayloadStore()
        compact = tenant_graphs["beta"].to_compact()
        store.ship(compact, key=("beta", 0), materialize=False)
        store.close()
        assert store.closed
        with pytest.raises(InvalidParameterError):
            store.ship(compact, key=("beta", 1), materialize=False)
        store.close()  # idempotent


class TestWorkerPoolLifecycle:
    def test_refcounted_private_pool_shuts_down_with_last_runtime(self):
        pool = WorkerPool(max_workers=1)
        first = ExecutionRuntime(executor="serial", pool=pool)
        second = ExecutionRuntime(executor="serial", pool=pool)
        assert pool.references == 2
        first.close()
        assert not pool.closed
        second.close()
        assert pool.closed

    def test_keep_alive_pool_survives_tenants(self):
        pool = WorkerPool(max_workers=1, keep_alive=True)
        runtime = ExecutionRuntime(executor="serial", pool=pool)
        runtime.close()
        assert pool.references == 0 and not pool.closed
        pool.close()
        assert pool.closed
        with pytest.raises(InvalidParameterError):
            pool.acquire()

    def test_shared_singletons_revive_after_close(self):
        pool = shared_worker_pool(max_workers=1)
        assert shared_worker_pool() is pool
        pool.close()
        revived = shared_worker_pool(max_workers=1)
        assert revived is not pool and not revived.closed
        revived.close()
        store = shared_payload_store()
        assert shared_payload_store() is store
        store.close()
        assert shared_payload_store() is not store


@pytest.mark.parallel
class TestSharedProcessPool:
    """Real fork-pool sharing: tenants ride one set of worker processes."""

    def test_two_tenants_one_pool_bit_identical(self, tenant_graphs):
        oracles = {name: all_ego_betweenness(g) for name, g in tenant_graphs.items()}
        pool = WorkerPool(max_workers=2, keep_alive=True)
        store = PayloadStore()
        try:
            sessions = _shared_sessions(tenant_graphs, pool, store, executor="process")
            for _ in range(2):
                for name, session in sessions.items():
                    assert (
                        session.scores_batch([None], parallel=2, executor="process")[0]
                        == oracles[name]
                    )
            # One fork for both tenants; one ship per tenant graph.
            assert pool.launches == 1
            assert store.ships == len(tenant_graphs)
            launches = [
                s.runtime_stats()["process"].pool_launches for s in sessions.values()
            ]
            assert sorted(launches) == [0, 1]  # exactly one tenant paid the fork
            for session in sessions.values():
                session.close()
            assert not pool.closed  # keep_alive: survives its tenants
        finally:
            pool.close()
            store.close()

    def test_parallel_top_k_on_shared_pool_matches_serial(self, tenant_graphs):
        pool = WorkerPool(max_workers=2, keep_alive=True)
        store = PayloadStore()
        try:
            for name, graph in tenant_graphs.items():
                expected = EgoSession(graph).top_k(8, algorithm="naive").entries
                session = EgoSession(graph, graph_id=name)
                session.runtime("process", pool=pool, store=store)
                result = session.top_k(8, parallel=2, executor="process")
                assert result.entries == expected
                session.close()
        finally:
            pool.close()
            store.close()


class TestTeardownSafety:
    def test_runtime_gc_releases_segments_without_close(self, tenant_graphs):
        import gc

        from repro.parallel import runtime as runtime_module

        compact = tenant_graphs["alpha"].to_compact()
        runtime = ExecutionRuntime(executor="serial", max_workers=1)
        runtime.execute(compact)
        del runtime
        gc.collect()
        # The serial runtime held no segment, but the finalizer must have
        # released the store entry (no leaked references).
        assert not runtime_module._LIVE_SEGMENTS

    @pytest.mark.parallel
    def test_payload_finalizer_unlinks_leaked_segment(self, tenant_graphs):
        import gc
        from multiprocessing import shared_memory

        from repro.parallel.runtime import _ShippedPayload

        payload = _ShippedPayload(tenant_graphs["beta"].to_compact())
        name = payload.shm.name
        # Simulate a crash path: the payload is dropped without close().
        del payload
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @pytest.mark.parallel
    def test_store_close_unlinks_all_segments(self, tenant_graphs):
        from multiprocessing import shared_memory

        store = PayloadStore()
        names = []
        for index, graph in enumerate(tenant_graphs.values()):
            entry, shipped = store.ship(
                graph.to_compact(), key=(f"t{index}", 0), materialize=True
            )
            assert shipped
            names.append(entry.payload.shm.name)
        store.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @pytest.mark.parallel
    @pytest.mark.chaos
    def test_segments_swept_when_workers_die_mid_batch(self, tenant_graphs):
        from multiprocessing import shared_memory

        from repro import faults
        from repro.parallel import runtime as runtime_module

        compact = tenant_graphs["alpha"].to_compact()
        runtime = ExecutionRuntime(executor="process", max_workers=2)
        with faults.inject(faults.FaultPlan(kill_every=2)):
            runtime.execute(compact, num_workers=2)
        name = runtime._held.entry.payload.shm.name
        runtime.close()
        # The batch lost a worker mid-flight, yet close() left no segment
        # behind — neither tracked nor reachable by name.
        assert name not in runtime_module._LIVE_SEGMENTS
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @pytest.mark.parallel
    def test_double_close_runtime_is_idempotent(self, tenant_graphs):
        compact = tenant_graphs["alpha"].to_compact()
        runtime = ExecutionRuntime(executor="process", max_workers=2)
        runtime.execute(compact, num_workers=2)
        runtime.close()
        runtime.close()
        with pytest.raises(InvalidParameterError):
            runtime.execute(compact, num_workers=2)

    @pytest.mark.parallel
    def test_shared_pool_revives_after_broken_pool_retired(self, tenant_graphs):
        from repro.parallel.runtime import shared_worker_pool

        first = shared_worker_pool(2)
        first.ensure_started()
        # Break the shared pool's processes out-of-band, then retire it.
        first._state["pool"].terminate()
        first.close()
        second = shared_worker_pool(2)
        try:
            assert second is not first
            # The revived shared pool actually serves work.
            compact = tenant_graphs["beta"].to_compact()
            with ExecutionRuntime(
                executor="process", max_workers=2, pool=second
            ) as runtime:
                scores, _ = runtime.execute(compact, num_workers=2)
            from repro.core.csr_kernels import all_ego_betweenness_csr

            labels = compact.labels
            assert {
                labels[i]: s for i, s in scores.items()
            } == all_ego_betweenness_csr(compact)
        finally:
            second.close()
