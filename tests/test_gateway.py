"""Asyncio gateway tests: coalescing, cancellation, back-pressure, ordering.

Written against plain ``asyncio.run`` (no pytest-asyncio required locally);
the dedicated CI serving job re-runs them under ``pytest-asyncio`` /
``pytest-timeout`` so an event-loop hang fails fast.  Windows are kept
generous (hundreds of milliseconds) so the coalescing assertions are
deterministic under scheduler noise: every enqueue in a burst happens
before the first timer can possibly fire.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.ego_betweenness import all_ego_betweenness
from repro.errors import (
    GatewayClosedError,
    GatewayOverloadedError,
    InvalidParameterError,
    UnknownTenantError,
    VertexNotFoundError,
)
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.serving import ServingGateway
from repro.session import EgoSession

pytestmark = pytest.mark.serving

WINDOW = 0.25  # generous: bursts always beat the timer


@pytest.fixture(scope="module")
def alpha_graph():
    return barabasi_albert_graph(80, 3, seed=3)


@pytest.fixture(scope="module")
def beta_graph():
    return erdos_renyi_graph(60, 0.1, seed=5)


@pytest.fixture(scope="module")
def alpha_scores(alpha_graph):
    return all_ego_betweenness(alpha_graph)


@pytest.fixture(scope="module")
def beta_scores(beta_graph):
    return all_ego_betweenness(beta_graph)


class TestCoalescing:
    def test_burst_coalesces_into_one_batch(self, alpha_graph, alpha_scores):
        async def run():
            async with ServingGateway(window_seconds=WINDOW) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                answers = await asyncio.gather(
                    *(gateway.scores("alpha") for _ in range(10))
                )
                return answers, gateway.stats()["gateway"]

        answers, stats = asyncio.run(run())
        for answer in answers:
            assert answer == alpha_scores
        assert stats["requests"] == 10
        assert stats["answered"] == 10
        assert stats["batches"] == 1
        assert stats["coalesced_requests"] == 10
        assert stats["window_flushes"] == 1

    def test_max_batch_flushes_before_window(self, alpha_graph, alpha_scores):
        async def run():
            # A window long enough to fail the test by timeout if the size
            # trigger did not flush.
            async with ServingGateway(window_seconds=30.0, max_batch=4) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                answers = await asyncio.wait_for(
                    asyncio.gather(*(gateway.score("alpha", v) for v in range(4))),
                    timeout=10.0,
                )
                return answers, gateway.stats()["gateway"]

        answers, stats = asyncio.run(run())
        assert answers == [alpha_scores[v] for v in range(4)]
        assert stats["size_flushes"] == 1
        assert stats["window_flushes"] == 0

    def test_mixed_full_and_subset_requests_one_pass(self, alpha_graph, alpha_scores):
        async def run():
            async with ServingGateway(window_seconds=WINDOW) as gateway:
                session = gateway.add_tenant("alpha", alpha_graph)
                full, subset, single = await asyncio.gather(
                    gateway.scores("alpha"),
                    gateway.scores("alpha", [0, 4, 7]),
                    gateway.score("alpha", 9),
                )
                return full, subset, single, session.stats().queries

        full, subset, single, queries = asyncio.run(run())
        assert full == alpha_scores
        assert subset == {v: alpha_scores[v] for v in (0, 4, 7)}
        assert single == alpha_scores[9]
        # one session pass answered the whole burst
        assert queries["scores_batch"] == 1

    def test_stream_preserves_request_order(self, alpha_graph, alpha_scores):
        async def run():
            async with ServingGateway(window_seconds=0.01) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                collected = []
                async for answer in gateway.stream(
                    "alpha", [[0], [1], None, [2, 3]]
                ):
                    collected.append(answer)
                return collected

        collected = asyncio.run(run())
        assert collected == [
            {0: alpha_scores[0]},
            {1: alpha_scores[1]},
            alpha_scores,
            {v: alpha_scores[v] for v in (2, 3)},
        ]


class TestMultiTenantGateway:
    def test_tenants_answer_interleaved_bit_identical(
        self, alpha_graph, beta_graph, alpha_scores, beta_scores
    ):
        async def run():
            async with ServingGateway(window_seconds=WINDOW) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                gateway.add_tenant("beta", beta_graph)
                answers = await asyncio.gather(
                    *(
                        gateway.scores("alpha" if i % 2 == 0 else "beta")
                        for i in range(8)
                    )
                )
                return answers, gateway.stats()

        answers, stats = asyncio.run(run())
        for i, answer in enumerate(answers):
            assert answer == (alpha_scores if i % 2 == 0 else beta_scores)
        # one batch per tenant; the shared store holds one entry per tenant
        assert stats["gateway"]["batches"] == 2
        assert stats["gateway"]["per_tenant"] == {"alpha": 4, "beta": 4}
        assert stats["tenants"]["alpha"]["graph_id"] == "alpha"

    def test_unknown_tenant_and_duplicate_registration(self, alpha_graph):
        async def run():
            async with ServingGateway() as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                with pytest.raises(InvalidParameterError):
                    gateway.add_tenant("alpha", alpha_graph)
                with pytest.raises(UnknownTenantError):
                    await gateway.scores("nope")

        asyncio.run(run())

    def test_adopted_session_runtime_moves_onto_the_shared_pool(
        self, alpha_graph, alpha_scores
    ):
        async def run():
            session = EgoSession(alpha_graph)
            session.score(0)  # a cold read: the session's own serial runtime
            private = session.runtime("serial")
            async with ServingGateway(parallel=1, executor="serial") as gateway:
                gateway.add_tenant("alpha", session)
                runtime = session.runtime("serial")
                assert private.closed and runtime is not private
                assert runtime.pool is gateway._pool
                assert runtime.store is gateway._store
                answer = await gateway.scores("alpha")
                assert runtime.stats().batches == 1
            session.close()
            return answer

        assert asyncio.run(run()) == alpha_scores

    def test_top_k_after_mutation_serves_the_new_version(self, alpha_graph):
        async def run():
            async with ServingGateway(window_seconds=0.01) as gateway:
                session = gateway.add_tenant("alpha", alpha_graph)
                before_version = session.version
                before = await gateway.top_k("alpha", 5)
                session.apply(("insert", 0, 79))
                assert session.version == before_version + 1
                after = await gateway.top_k("alpha", 5)
                oracle = EgoSession(session.snapshot()).top_k(5, algorithm="naive")
                return before.entries, after.entries, oracle.entries

        # The in-flight map is keyed by (version, k): the post-mutation
        # request ran fresh against the new state instead of riding a
        # version-0 result.
        _, after, oracle = asyncio.run(run())
        assert after == oracle

    def test_adopting_an_existing_session(self, alpha_graph, alpha_scores):
        async def run():
            session = EgoSession(alpha_graph, graph_id="pre-built")
            async with ServingGateway(window_seconds=0.01) as gateway:
                assert gateway.add_tenant("alpha", session) is session
                assert gateway.tenant("alpha") is session
                return await gateway.scores("alpha")

        assert asyncio.run(run()) == alpha_scores


class TestTopK:
    def test_identical_requests_coalesce_onto_one_run(self, alpha_graph):
        expected = EgoSession(alpha_graph).top_k(6, algorithm="naive").entries

        async def run():
            async with ServingGateway(window_seconds=0.01) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                results = await asyncio.gather(
                    *(gateway.top_k("alpha", 6) for _ in range(5))
                )
                return results, gateway.stats()["gateway"]

        results, stats = asyncio.run(run())
        for result in results:
            assert result.entries == expected
        assert stats["topk_requests"] == 5
        assert stats["topk_runs"] == 1
        assert stats["topk_coalesced"] == 4

    def test_distinct_k_run_separately(self, alpha_graph):
        async def run():
            async with ServingGateway(window_seconds=0.01) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                small, large = await asyncio.gather(
                    gateway.top_k("alpha", 3), gateway.top_k("alpha", 7)
                )
                return small, large, gateway.stats()["gateway"]

        small, large, stats = asyncio.run(run())
        assert len(small.entries) == 3 and len(large.entries) == 7
        assert stats["topk_runs"] == 2


class TestCancellationAndBackPressure:
    def test_cancelled_request_drops_from_batch(self, alpha_graph, alpha_scores):
        async def run():
            async with ServingGateway(window_seconds=WINDOW) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                doomed = asyncio.ensure_future(gateway.scores("alpha", [0]))
                survivor = asyncio.ensure_future(gateway.scores("alpha"))
                await asyncio.sleep(0)  # let both enqueue
                doomed.cancel()
                answer = await survivor
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                return answer, gateway.stats()["gateway"]

        answer, stats = asyncio.run(run())
        assert answer == alpha_scores
        assert stats["cancelled"] == 1
        assert stats["answered"] == 1
        assert stats["coalesced_requests"] == 1  # the batch ran without it

    def test_back_pressure_sheds_load_beyond_max_pending(
        self, alpha_graph, alpha_scores
    ):
        async def run():
            async with ServingGateway(
                window_seconds=WINDOW, max_pending=2
            ) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                first = asyncio.ensure_future(gateway.scores("alpha"))
                second = asyncio.ensure_future(gateway.scores("alpha", [1]))
                await asyncio.sleep(0)  # both now pending in the window
                with pytest.raises(GatewayOverloadedError):
                    await gateway.scores("alpha", [2])
                answers = await asyncio.gather(first, second)
                return answers, gateway.stats()["gateway"]

        (full, subset), stats = asyncio.run(run())
        assert full == alpha_scores and subset == {1: alpha_scores[1]}
        assert stats["rejected"] == 1
        assert stats["answered"] == 2

    def test_top_k_obeys_back_pressure(self, alpha_graph):
        async def run():
            async with ServingGateway(
                window_seconds=WINDOW, max_pending=2
            ) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                first = asyncio.ensure_future(gateway.scores("alpha"))
                second = asyncio.ensure_future(gateway.scores("alpha", [0]))
                await asyncio.sleep(0)  # both occupy the backlog
                with pytest.raises(GatewayOverloadedError):
                    await gateway.top_k("alpha", 5)
                await asyncio.gather(first, second)
                # the backlog drained: top-k is welcome again
                result = await gateway.top_k("alpha", 5)
                return result, gateway.stats()["gateway"]

        result, stats = asyncio.run(run())
        assert len(result.entries) == 5
        assert stats["rejected"] == 1

    def test_stream_abandoned_early_cancels_remaining(self, alpha_graph, alpha_scores):
        async def run():
            async with ServingGateway(window_seconds=0.01) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                first = None
                async for answer in gateway.stream("alpha", [[0], [1], [2], [3]]):
                    first = answer
                    break  # abandon the rest mid-stream
                # the abandoned requests were cancelled and retrieved; the
                # gateway keeps serving normally
                follow_up = await gateway.scores("alpha", [5])
                return first, follow_up

        first, follow_up = asyncio.run(run())
        assert first == {0: alpha_scores[0]}
        assert follow_up == {5: alpha_scores[5]}

    def test_failed_batch_propagates_to_every_caller(self, alpha_graph):
        async def run():
            async with ServingGateway(window_seconds=0.01) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                results = await asyncio.gather(
                    gateway.scores("alpha", ["missing"]),
                    gateway.score("alpha", "also-missing"),
                    return_exceptions=True,
                )
                return results, gateway.stats()["gateway"]

        results, stats = asyncio.run(run())
        assert all(isinstance(r, VertexNotFoundError) for r in results)
        assert stats["failed"] == 2

    def test_bad_request_does_not_poison_the_batch(self, alpha_graph, alpha_scores):
        async def run():
            async with ServingGateway(window_seconds=WINDOW) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                results = await asyncio.gather(
                    gateway.scores("alpha"),           # innocent full map
                    gateway.scores("alpha", ["nope"]), # unknown vertex
                    gateway.score("alpha", 3),         # innocent single
                    return_exceptions=True,
                )
                return results, gateway.stats()["gateway"]

        (full, bad, single), stats = asyncio.run(run())
        # only the offending request fails; its batch-mates are answered
        assert full == alpha_scores
        assert isinstance(bad, VertexNotFoundError)
        assert single == alpha_scores[3]
        assert stats["answered"] == 2 and stats["failed"] == 1


class TestLifecycle:
    def test_close_drains_pending_and_rejects_new(self, alpha_graph, alpha_scores):
        async def run():
            gateway = ServingGateway(window_seconds=30.0)
            gateway.add_tenant("alpha", alpha_graph)
            pending = asyncio.ensure_future(gateway.scores("alpha"))
            await asyncio.sleep(0)
            await gateway.close()  # drains: the pending request is ANSWERED
            answer = await pending
            with pytest.raises(GatewayClosedError):
                await gateway.scores("alpha")
            with pytest.raises(GatewayClosedError):
                gateway.add_tenant("late", alpha_graph)
            await gateway.close()  # idempotent
            return answer, gateway.stats()["gateway"]

        answer, stats = asyncio.run(run())
        assert answer == alpha_scores
        assert stats["drain_flushes"] == 1

    def test_shared_pool_and_store_survive_gateway(self, alpha_graph):
        from repro.parallel.runtime import PayloadStore, WorkerPool

        pool = WorkerPool(max_workers=1, keep_alive=True)
        store = PayloadStore()

        async def run():
            async with ServingGateway(
                window_seconds=0.01, parallel=1, executor="serial",
                pool=pool, store=store,
            ) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                await gateway.scores("alpha")
                return gateway.stats()["store"]["ships"]

        ships = asyncio.run(run())
        assert ships == 1
        # caller-owned infrastructure outlives the gateway
        assert not pool.closed and not store.closed
        pool.close()
        store.close()

    def test_caller_shared_store_keeps_unique_graph_ids(self, alpha_graph, beta_graph):
        # Two gateways sharing one store, each with a tenant named "main"
        # over DIFFERENT graphs: the sessions must NOT collide on a
        # ("main", 0) payload key (that would serve the wrong graph).
        from repro.core.ego_betweenness import all_ego_betweenness
        from repro.parallel.runtime import PayloadStore

        store = PayloadStore()

        async def run(graph):
            async with ServingGateway(
                window_seconds=0.01, parallel=1, executor="serial", store=store
            ) as gateway:
                session = gateway.add_tenant("main", graph)
                answer = await gateway.scores("main")
                return session.graph_id, answer

        alpha_id, alpha_answer = asyncio.run(run(alpha_graph))
        beta_id, beta_answer = asyncio.run(run(beta_graph))
        assert alpha_id != "main" and beta_id != "main" and alpha_id != beta_id
        assert alpha_answer == all_ego_betweenness(alpha_graph)
        assert beta_answer == all_ego_betweenness(beta_graph)
        store.close()

    def test_invalid_configuration(self):
        with pytest.raises(InvalidParameterError):
            ServingGateway(window_seconds=-1)
        with pytest.raises(InvalidParameterError):
            ServingGateway(max_batch=0)
        with pytest.raises(InvalidParameterError):
            ServingGateway(max_pending=0)


@pytest.mark.parallel
class TestGatewayOnProcessPool:
    """End-to-end: tenants' batches ride one shared process pool."""

    def test_two_tenants_share_one_fork(
        self, alpha_graph, beta_graph, alpha_scores, beta_scores
    ):
        async def run():
            async with ServingGateway(
                window_seconds=0.05, parallel=1, executor="process"
            ) as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                gateway.add_tenant("beta", beta_graph)
                answers = await asyncio.gather(
                    gateway.scores("alpha"), gateway.scores("beta")
                )
                return answers, gateway.stats()

        (alpha_answer, beta_answer), stats = asyncio.run(run())
        assert alpha_answer == alpha_scores
        assert beta_answer == beta_scores
        assert stats["store"]["ships"] == 2  # one per (graph_id, version)
        assert stats["pool"]["launches"] == 1  # one fork for both tenants

    def test_pool_forks_eagerly_on_the_loop_thread(self, alpha_graph):
        # The fork must happen at add_tenant (event-loop thread), not from
        # inside a ThreadPoolExecutor worker mid-batch.
        async def run():
            async with ServingGateway(parallel=1, executor="process") as gateway:
                gateway.add_tenant("alpha", alpha_graph)
                return gateway.stats()["pool"]

        pool_stats = asyncio.run(run())
        assert pool_stats["launches"] == 1
