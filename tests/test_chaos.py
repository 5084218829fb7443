"""Chaos suite: fault injection against the supervised serving plane.

Every test drives real faults — worker kills (``os._exit``), stragglers,
kernel raises, torn payload headers, broken pools — through the public
execution paths and asserts the two recovery invariants:

* **Bit-identity**: every answer equals the serial CSR kernel oracle,
  whatever failed along the way.
* **No leaks**: no shared-memory segment survives a chaotic batch, by
  the runtime's own bookkeeping and in ``/dev/shm``.

Process-pool tests are marked ``parallel`` as well as ``chaos``; the
dedicated CI chaos job re-runs the ``chaos`` marker under pytest-timeout
so a recovery hang fails fast instead of wedging the suite.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro import faults
from repro.core.csr_kernels import all_ego_betweenness_csr
from repro.errors import (
    GatewayClosedError,
    PayloadEvictedError,
    PoolBrokenError,
    PoolStateError,
    RequestTimeoutError,
)
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import runtime as runtime_module
from repro.parallel.runtime import ExecutionRuntime, PayloadStore, WorkerPool
from repro.serving import ServingGateway
from repro.session import EgoSession

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def compact():
    return erdos_renyi_graph(90, 0.12, seed=11).to_compact()


@pytest.fixture(scope="module")
def oracle(compact):
    return all_ego_betweenness_csr(compact)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.clear()


def _chunks(compact, n=6):
    ids = list(range(compact.num_vertices))
    size = max(1, len(ids) // n)
    return [ids[i : i + size] for i in range(0, len(ids), size)]


def _os_segments():
    """The POSIX shared-memory segments the OS holds (``psm_*`` in /dev/shm).

    ``multiprocessing.shared_memory`` names its segments ``psm_<hex>``; a
    leak check against this set sees what the OS still holds, not what the
    runtime's own bookkeeping believes.  Empty where /dev/shm does not
    exist.
    """
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _break_pool(session, workers=2):
    """Make the session's process pool fail every submit AND respawn.

    Simulates the terminal infrastructure failure (e.g. fork refused
    under memory pressure) where supervision cannot self-heal and the
    session's serial fallback is the last line of defence.
    """
    runtime = session.runtime("process", max_workers=workers)
    runtime.pool.ensure_started()

    def broken_submit(task, args):
        raise PoolBrokenError("worker pool torn down by test")

    def broken_respawn():
        raise PoolBrokenError("respawn failed: fork refused")

    runtime.pool.submit = broken_submit
    runtime.pool.respawn = broken_respawn


@pytest.mark.parallel
class TestSupervisedRuntimeRecovery:
    def test_worker_kill_recovers_bit_identical(self, compact, oracle):
        plan = faults.FaultPlan(kill_every=4)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            with faults.inject(plan):
                scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            labels = compact.labels
            assert {labels[i]: s for i, s in scores.items()} == oracle
            stats = runtime.stats()
            assert stats.worker_deaths >= 1
            assert stats.task_retries >= 1
        assert plan.stats()["kills"] >= 1

    def test_straggler_misses_deadline_and_recovers(self, compact, oracle):
        plan = faults.FaultPlan(delay_every=3, delay_seconds=0.6)
        with ExecutionRuntime(
            max_workers=2, executor="process", task_deadline=0.15
        ) as runtime:
            with faults.inject(plan):
                scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            labels = compact.labels
            assert {labels[i]: s for i, s in scores.items()} == oracle
            assert runtime.stats().deadline_misses >= 1

    def test_injected_raise_is_retried(self, compact, oracle):
        plan = faults.FaultPlan(raise_every=3)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            with faults.inject(plan):
                scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            labels = compact.labels
            assert {labels[i]: s for i, s in scores.items()} == oracle
            assert runtime.stats().task_retries >= 1

    def test_corrupt_ship_is_detected_and_reshipped(self, compact, oracle):
        plan = faults.FaultPlan(corrupt_ships=1)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            with faults.inject(plan):
                scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            labels = compact.labels
            assert {labels[i]: s for i, s in scores.items()} == oracle
            stats = runtime.stats()
            assert stats.integrity_failures >= 1
            # The torn segment was unlinked and the graph shipped again.
            assert stats.payload_ships >= 2

    def test_poison_chunk_is_quarantined_and_computed_serially(self, compact, oracle):
        # Every submission faults, so every chunk exhausts the default
        # retry budget and lands in quarantine — and the answers still match.
        plan = faults.FaultPlan(raise_every=1)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            with faults.inject(plan):
                scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            labels = compact.labels
            assert {labels[i]: s for i, s in scores.items()} == oracle
            assert runtime.stats().quarantined_tasks >= 1

    def test_top_k_recovers_from_kills(self, compact):
        with ExecutionRuntime(max_workers=2, executor="serial") as serial_runtime:
            expected, _ = serial_runtime.execute_top_k(compact, 5, num_workers=4)
        plan = faults.FaultPlan(kill_every=5)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            with faults.inject(plan):
                result, _ = runtime.execute_top_k(compact, 5, num_workers=4)
        assert result == expected

    def test_respawn_revives_a_terminated_pool(self, compact, oracle):
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            # Tear the mp.Pool down out-of-band: every submit now fails and
            # the supervisor must respawn before resubmitting.
            runtime.pool._state["pool"].terminate()
            scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            labels = compact.labels
            assert {labels[i]: s for i, s in scores.items()} == oracle
            assert runtime.stats().respawns >= 1
            assert runtime.pool.respawns >= 1

    def test_no_segment_leaks_after_chaos(self, compact, oracle):
        before = _os_segments()
        plan = faults.FaultPlan(kill_every=3, corrupt_ships=1)
        with ExecutionRuntime(max_workers=2, executor="process") as runtime:
            with faults.inject(plan):
                scores, _ = runtime.execute(compact, chunks=_chunks(compact))
            labels = compact.labels
            assert {labels[i]: s for i, s in scores.items()} == oracle
        assert runtime_module._LIVE_SEGMENTS == {}
        assert _os_segments() - before == set()


@pytest.mark.parallel
class TestFailFastStates:
    def test_submit_on_never_started_pool_names_the_state(self):
        pool = WorkerPool(2)
        with pytest.raises(PoolStateError, match="'new'"):
            pool.submit(min, (1, 2))

    def test_submit_on_closed_pool_names_the_state(self):
        pool = WorkerPool(2)
        pool.ensure_started()
        pool.close()
        with pytest.raises(PoolStateError, match="'closed'"):
            pool.submit(min, (1, 2))

    def test_acquire_on_evicted_key_names_key_and_residents(self, compact):
        store = PayloadStore()
        try:
            store.ship(compact, key=("tenant-a", 1))
            with pytest.raises(PayloadEvictedError, match="tenant-b"):
                store.acquire(("tenant-b", 1))
            # A KeyError subclass, so mapping-style handlers keep working.
            with pytest.raises(KeyError):
                store.acquire(("tenant-b", 1))
        finally:
            store.close()


@pytest.mark.parallel
class TestSessionDegradedMode:
    def test_broken_parallel_plane_falls_back_to_serial(self, compact, oracle):
        with EgoSession(compact) as session:
            _break_pool(session)
            scores = session.scores(parallel=2, executor="process")
            assert scores == oracle
            stats = session.stats()
            assert stats.fallbacks >= 1

    def test_top_k_falls_back_bit_identical(self, compact):
        # The oracle runs in its own session — a shared one would memoise
        # the ranking and the parallel path would never execute.
        with EgoSession(compact) as reference:
            expected = reference.top_k(5, algorithm="naive")
        with EgoSession(compact) as session:
            _break_pool(session)
            result = session.top_k(5, parallel=2, executor="process")
            assert result.entries == expected.entries
            assert session.stats().fallbacks >= 1

    def test_scores_batch_falls_back_bit_identical(self, compact, oracle):
        labels = compact.labels
        subset = list(labels[:7])
        with EgoSession(compact) as session:
            _break_pool(session)
            answers = session.scores_batch(
                [subset, None], parallel=2, executor="process"
            )
            assert answers[0] == {v: oracle[v] for v in subset}
            assert answers[1] == oracle

    def test_session_stats_aggregate_runtime_failures(self, compact):
        # parallel=2 submits exactly two chunk tasks: the second draws the
        # kill, its resubmission (ordinal 3) runs clean.
        plan = faults.FaultPlan(kill_every=2)
        with EgoSession(compact) as session:
            with faults.inject(plan):
                session.scores(parallel=2, executor="process")
            stats = session.stats()
            assert stats.worker_deaths >= 1
            assert stats.task_retries >= 1
            payload = stats.as_dict()
            for field in (
                "fallbacks",
                "worker_deaths",
                "respawns",
                "task_retries",
                "deadline_misses",
            ):
                assert field in payload


@pytest.mark.serving
class TestGatewayResilience:
    def test_request_deadline_times_out_the_caller(self, compact):
        async def scenario():
            async with ServingGateway(
                window_seconds=0.001, request_deadline=0.05
            ) as gateway:
                session = gateway.add_tenant("t", compact)
                original = session.scores_batch

                def slow(*args, **kwargs):
                    time.sleep(0.4)
                    return original(*args, **kwargs)

                session.scores_batch = slow
                with pytest.raises(RequestTimeoutError, match="deadline"):
                    await gateway.scores("t")
                return gateway.stats()["gateway"]

        stats = asyncio.run(scenario())
        assert stats["deadline_misses"] == 1

    @pytest.mark.parallel
    @pytest.mark.parametrize("op", ["scores", "score", "top_k"])
    def test_broken_pool_is_served_by_the_session_fallback(self, compact, oracle, op):
        # The gateway has no fault layer of its own: a tenant whose shared
        # pool can neither run a task nor respawn is answered by its
        # session's serial fallback, bit-identically, and no request fails.
        with EgoSession(compact) as reference:
            expected_top = reference.top_k(5, algorithm="naive")
        vertex = compact.labels[3]

        async def scenario():
            async with ServingGateway(
                window_seconds=0.001, parallel=2, executor="process"
            ) as gateway:
                session = gateway.add_tenant("t", compact)
                _break_pool(session)
                if op == "scores":
                    answer = await gateway.scores("t")
                elif op == "score":
                    answer = await gateway.score("t", vertex)
                else:
                    answer = await gateway.top_k("t", 5)
                return answer, gateway.stats()

        answer, stats = asyncio.run(scenario())
        if op == "scores":
            assert answer == oracle
        elif op == "score":
            assert answer == oracle[vertex]
        else:
            assert answer.entries == expected_top.entries
        assert stats["tenants"]["t"]["fallbacks"] >= 1
        assert stats["gateway"]["failed"] == 0

    def test_close_drain_is_bounded_and_fails_residuals(self, compact):
        async def scenario():
            gateway = ServingGateway(
                window_seconds=0.001, drain_seconds=0.1
            )
            session = gateway.add_tenant("t", compact)

            def wedged(*args, **kwargs):
                time.sleep(1.0)
                raise RuntimeError("wedged pool")

            session.scores_batch = wedged
            request = asyncio.ensure_future(gateway.scores("t"))
            await asyncio.sleep(0.05)  # let the batch claim the request
            begin = time.perf_counter()
            await gateway.close()
            close_seconds = time.perf_counter() - begin
            with pytest.raises(GatewayClosedError, match="drain bound"):
                await request
            return close_seconds

        close_seconds = asyncio.run(scenario())
        assert close_seconds < 0.8  # bounded by drain_seconds, not the wedge

    def test_double_close_is_idempotent(self, compact):
        async def scenario():
            gateway = ServingGateway(window_seconds=0.001)
            gateway.add_tenant("t", compact)
            await gateway.scores("t")
            await gateway.close()
            await gateway.close()
            return gateway.closed

        assert asyncio.run(scenario()) is True


@pytest.mark.parallel
@pytest.mark.serving
@pytest.mark.slow
class TestChaosEndToEnd:
    def test_chaotic_serving_benchmark_stays_bit_identical(self):
        """Concurrent gateway clients under every fault kind at once."""
        tenants = {
            "alpha": erdos_renyi_graph(70, 0.12, seed=5).to_compact(),
            "beta": erdos_renyi_graph(60, 0.15, seed=6).to_compact(),
        }
        oracles = {name: all_ego_betweenness_csr(cg) for name, cg in tenants.items()}
        plan = faults.FaultPlan(
            kill_every=7,
            delay_every=5,
            delay_seconds=0.5,
            raise_every=11,
            corrupt_ships=1,
        )
        # Six clients, two requests each, every one a vertex slice, so
        # every batch hits the pool.
        requests = [
            [(name, list(tenants[name].labels)[offset::6]) for offset in (c, c + 3)]
            for c, name in enumerate(["alpha", "beta"] * 3)
        ]

        before = _os_segments()

        async def drive():
            async with ServingGateway(parallel=2, executor="process") as gateway:
                for name, compact in tenants.items():
                    gateway.add_tenant(name, compact, task_deadline=0.25)
                # Full-map priming: the first ship per tenant is the one
                # the plan corrupts.
                primed = {name: await gateway.scores(name) for name in tenants}

                async def client(schedule):
                    return [await gateway.scores(name, ids) for name, ids in schedule]

                answers = await asyncio.gather(*(client(s) for s in requests))
                return primed, answers, gateway.stats()["tenants"]

        with faults.inject(plan):
            primed, answers, recovered = asyncio.run(drive())
        # Bit-identity held through kills, stragglers, raises and the torn ship.
        assert primed == oracles
        for schedule, got in zip(requests, answers):
            assert got == [{v: oracles[name][v] for v in ids} for name, ids in schedule]
        assert plan.stats()["kills"] >= 1
        assert plan.stats()["corruptions"] == 1
        assert sum(t["worker_deaths"] for t in recovered.values()) >= 1
        assert runtime_module._LIVE_SEGMENTS == {}
        assert _os_segments() - before == set()
