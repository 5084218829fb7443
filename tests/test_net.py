"""Network front-door tests: real loopback sockets, all three dialects.

Every test speaks to a live :class:`EgoServer` over TCP — through the
pooled :class:`EgoClient`, raw protocol frames, plain HTTP/1.1 or a
WebSocket upgrade — and checks the answers bit-identical to the serial
kernels.  Written against plain ``asyncio.run`` (no pytest-asyncio
required locally); the dedicated CI net job re-runs them under
``pytest-asyncio`` / ``pytest-timeout`` so an event-loop hang fails fast.

The disconnect tests (mid-batch, mid-stream) pin the PR's isolation
contract: a client that vanishes cancels its own work out of the
micro-batch and is never counted as a failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.ego_betweenness import all_ego_betweenness
from repro.errors import (
    ClientConnectionError,
    GatewayOverloadedError,
    ProtocolError,
    RemoteError,
    RequestTimeoutError,
)
from repro.net import EgoClient, EgoServer
from repro.net.protocol import (
    PROTOCOL_VERSION,
    WS_CLOSE,
    WS_PONG,
    WS_TEXT,
    decode_payload,
    decode_scores,
    hello_message,
    read_frame,
    websocket_accept_key,
    write_frame,
    ws_encode_message,
    ws_read_message,
)
from repro.graph.generators import barabasi_albert_graph
from repro.serving import ServingGateway
from repro.session import EgoSession

pytestmark = [pytest.mark.serving, pytest.mark.net]

WINDOW = 0.2  # generous: bursts always beat the batching timer


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(60, 3, seed=3)


@pytest.fixture(scope="module")
def oracle(graph):
    return all_ego_betweenness(graph)


@contextlib.asynccontextmanager
async def serve(graph, *, gateway=None, tenants=("alpha",), **server_options):
    """One running server over a serial-executor gateway (fast, hermetic)."""
    if gateway is None:
        gateway = ServingGateway(window_seconds=0.01, executor="serial")
    for name in tenants:
        gateway.add_tenant(name, graph)
    server = EgoServer(gateway, **server_options)
    await server.start()
    try:
        yield server
    finally:
        await server.close()


def slow_kernels(session: EgoSession, seconds: float) -> None:
    """Make every batch pass of ``session`` take at least ``seconds``."""
    original = session.scores_batch

    def slow(queries, **kwargs):
        time.sleep(seconds)
        return original(queries, **kwargs)

    session.scores_batch = slow


class TestNativeProtocol:
    def test_all_query_ops_bit_identical(self, graph, oracle):
        async def run():
            async with serve(graph) as server:
                session = server.gateway.tenant("alpha")
                expected_top = EgoSession(session.snapshot()).top_k(5).entries
                async with EgoClient(server.host, server.port) as client:
                    assert await client.ping()
                    full = await client.scores("alpha")
                    subset = await client.scores("alpha", [0, 1, 2])
                    single = await client.score("alpha", 0)
                    ranked = await client.top_k("alpha", 5)
                    return full, subset, single, ranked, expected_top

        full, subset, single, ranked, expected_top = asyncio.run(run())
        assert full == oracle
        assert subset == {v: oracle[v] for v in (0, 1, 2)}
        assert single == oracle[0]
        assert ranked == expected_top

    def test_concurrent_requests_pipeline_and_coalesce(self, graph, oracle):
        async def run():
            gateway = ServingGateway(window_seconds=WINDOW, executor="serial")
            async with serve(graph, gateway=gateway) as server:
                async with EgoClient(server.host, server.port, pool_size=2) as client:
                    answers = await asyncio.gather(
                        *(client.scores("alpha") for _ in range(8))
                    )
                    stats = server.gateway.stats()["gateway"]
            return answers, stats

        answers, stats = asyncio.run(run())
        assert all(answer == oracle for answer in answers)
        # Wire requests coalesced into micro-batches exactly like
        # in-process callers would.
        assert stats["batches"] < 8

    def test_stream_scores_order_and_identity(self, graph, oracle):
        async def run():
            async with serve(graph) as server:
                async with EgoClient(server.host, server.port) as client:
                    queries = [None, [0, 1], [2], None]
                    collected = []
                    async for answer in client.stream_scores("alpha", queries):
                        collected.append(answer)
                    return collected

        collected = asyncio.run(run())
        assert collected[0] == oracle
        assert collected[1] == {0: oracle[0], 1: oracle[1]}
        assert collected[2] == {2: oracle[2]}
        assert collected[3] == oracle

    def test_apply_over_the_wire_serves_the_new_version(self, graph):
        async def run():
            async with serve(graph) as server:
                session = server.gateway.tenant("alpha")
                u, v = next(iter(graph.edges()))
                async with EgoClient(server.host, server.port) as client:
                    before_version = session.version
                    receipt = await client.apply("alpha", [("delete", u, v)])
                    after = await client.scores("alpha")
                    expected = EgoSession(session.snapshot()).scores()
                    return receipt, before_version, after, expected

        receipt, before_version, after, expected = asyncio.run(run())
        assert receipt == {"applied": 1, "version": before_version + 1}
        assert after == expected

    def test_stats_op_exposes_all_layers(self, graph):
        async def run():
            async with serve(graph) as server:
                async with EgoClient(server.host, server.port) as client:
                    await client.scores("alpha")
                    return await client.stats()

        tree = asyncio.run(run())
        assert tree["server"]["answered"] >= 1
        assert "alpha" in tree["tenants"]
        assert "gateway" in tree and "pool" in tree


class TestHandshake:
    def test_version_mismatch_is_answered_then_closed(self, graph):
        async def run():
            async with serve(graph) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, {"op": "hello", "protocol": 99})
                rejection = await read_frame(reader)
                eof = await read_frame(reader)
                writer.close()
                return rejection, eof, server.stats.protocol_errors

        rejection, eof, protocol_errors = asyncio.run(run())
        assert rejection["ok"] is False
        assert rejection["error"]["type"] == "ProtocolError"
        assert "version mismatch" in rejection["error"]["message"]
        assert eof is None
        assert protocol_errors == 1

    def test_first_frame_must_be_hello(self, graph):
        async def run():
            async with serve(graph) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, {"op": "scores", "tenant": "alpha"})
                rejection = await read_frame(reader)
                writer.close()
                return rejection

        rejection = asyncio.run(run())
        assert rejection["error"]["type"] == "ProtocolError"

    def test_client_handshake_happy_path(self, graph):
        async def run():
            async with serve(graph, name="front-door") as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, hello_message())
                greeting = await read_frame(reader)
                writer.close()
                return greeting

        greeting = asyncio.run(run())
        assert greeting == {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "server": "front-door",
        }


class TestTypedErrors:
    def test_unknown_tenant_travels_with_its_type_name(self, graph):
        async def run():
            async with serve(graph) as server:
                async with EgoClient(server.host, server.port) as client:
                    try:
                        await client.scores("ghost")
                    except RemoteError as error:
                        return error
                    raise AssertionError("expected a RemoteError")

        error = asyncio.run(run())
        assert "UnknownTenantError" in str(error) and "ghost" in str(error)

    def test_overload_errors_rebuild_as_the_same_class(self, graph):
        async def run():
            async with serve(
                graph, max_inflight_per_tenant=1
            ) as server:
                slow_kernels(server.gateway.tenant("alpha"), 0.3)
                async with EgoClient(server.host, server.port, retries=0) as client:
                    outcomes = await asyncio.gather(
                        *(client.scores("alpha") for _ in range(3)),
                        return_exceptions=True,
                    )
                    return outcomes, server.stats.shed

        outcomes, shed = asyncio.run(run())
        shed_errors = [o for o in outcomes if isinstance(o, GatewayOverloadedError)]
        answered = [o for o in outcomes if isinstance(o, dict)]
        assert shed_errors and answered
        assert shed >= len(shed_errors)

    def test_malformed_requests_fail_with_protocol_errors(self, graph, oracle):
        async def run():
            async with serve(graph) as server:
                async with EgoClient(server.host, server.port) as client:
                    failures = []
                    for message in (
                        {"op": "warp", "tenant": "alpha"},
                        {"op": "top_k", "tenant": "alpha", "k": 0},
                        {"op": "top_k", "tenant": "alpha"},
                        {"op": "scores", "tenant": 7},
                        {"op": "apply", "tenant": "alpha", "events": [[1]]},
                    ):
                        try:
                            await client._call(message, idempotent=True)
                        except ProtocolError as error:
                            failures.append(error)
                    # The connection survives every typed failure.
                    survivor = await client.scores("alpha")
                    return failures, survivor

        failures, survivor = asyncio.run(run())
        assert len(failures) == 5
        assert survivor == oracle


class TestDeadlines:
    def test_deadline_ms_bounds_the_wait(self, graph, oracle):
        async def run():
            async with serve(graph) as server:
                slow_kernels(server.gateway.tenant("alpha"), 0.5)
                async with EgoClient(server.host, server.port) as client:
                    try:
                        await client.scores("alpha", deadline_ms=50)
                    except RequestTimeoutError as error:
                        misses = server.stats.deadline_misses
                        # The gateway kept computing: the warmed answer
                        # arrives inside a later, bounded retry.
                        answer = await client.scores("alpha", deadline_ms=5000)
                        return error, misses, answer
                    raise AssertionError("expected a RequestTimeoutError")

        error, misses, answer = asyncio.run(run())
        assert isinstance(error, RequestTimeoutError)
        assert misses == 1
        assert answer == oracle

    def test_invalid_deadline_is_a_protocol_error(self, graph):
        async def run():
            async with serve(graph) as server:
                async with EgoClient(server.host, server.port) as client:
                    with pytest.raises(ProtocolError):
                        await client.scores("alpha", deadline_ms=-5)

        asyncio.run(run())


class TestAdmission:
    def test_max_connections_refuses_in_protocol(self, graph):
        async def run():
            async with serve(graph, max_connections=1) as server:
                async with EgoClient(server.host, server.port) as first:
                    assert await first.ping()
                    second = EgoClient(server.host, server.port)
                    try:
                        with pytest.raises(GatewayOverloadedError):
                            await second.ping()
                    finally:
                        await second.close()
                    return server.stats.rejected_connections

        assert asyncio.run(run()) >= 1

    def test_draining_server_refuses_new_connections(self, graph):
        async def run():
            gateway = ServingGateway(window_seconds=0.01, executor="serial")
            gateway.add_tenant("alpha", graph)
            server = EgoServer(gateway)
            await server.start()
            await server.close()
            client = EgoClient(server.host, server.port)
            try:
                with pytest.raises(ClientConnectionError):
                    await client.ping()
            finally:
                await client.close()

        asyncio.run(run())


class TestDisconnects:
    """Satellite 3: client death mid-batch / mid-stream over a real socket."""

    def test_disconnect_mid_batch_cancels_without_failing(
        self, graph, oracle
    ):
        async def run():
            gateway = ServingGateway(window_seconds=WINDOW, executor="serial")
            async with serve(graph, gateway=gateway) as server:
                # A raw peer sends one request and vanishes before the
                # batching window can possibly fire.
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await write_frame(writer, hello_message())
                assert (await read_frame(reader))["ok"]
                await write_frame(
                    writer, {"id": 1, "op": "scores", "tenant": "alpha"}
                )
                writer.close()
                # Let the server observe the EOF and the window fire.
                await asyncio.sleep(WINDOW * 2)
                stats = server.gateway.stats()
                server_cancelled = server.stats.cancelled
                # The tenant is unharmed: a fresh client is answered
                # bit-identically and nothing was counted as failed.
                async with EgoClient(server.host, server.port) as client:
                    answer = await client.scores("alpha")
                return answer, stats, server_cancelled

        answer, stats, server_cancelled = asyncio.run(run())
        assert answer == oracle
        assert server_cancelled >= 1
        assert stats["gateway"]["cancelled"] >= 1
        assert stats["gateway"]["failed"] == 0

    def test_abandoned_stream_cancels_remaining_queries(self, graph, oracle):
        async def run():
            # max_batch=2: the first six queries size-flush in pairs; the
            # seventh sits in the (long) coalescing window when the client
            # walks away, so its cancellation is observable in the batch
            # live-filter.
            gateway = ServingGateway(
                window_seconds=0.3, max_batch=2, executor="serial"
            )
            async with serve(graph, gateway=gateway) as server:
                async with EgoClient(server.host, server.port) as client:
                    queries = [[0], [1], [2], [3], [4], [5], [6]]
                    stream = client.stream_scores("alpha", queries)
                    first = await stream.__anext__()
                    # Abandon: closes the stream's dedicated connection,
                    # which makes the server cancel the rest.
                    await stream.aclose()
                    await asyncio.sleep(0.6)  # let the window fire
                    stats = server.gateway.stats()
                    answer = await client.scores("alpha")
                return first, stats, answer

        first, stats, answer = asyncio.run(run())
        assert first == {0: oracle[0]}
        assert answer == oracle
        # At least one not-yet-answered query was cancelled out of its
        # micro-batch, and none was counted as a failure.
        assert stats["gateway"]["cancelled"] >= 1
        assert stats["gateway"]["failed"] == 0


class TestHotKeyCache:
    def test_repeats_hit_the_gateway_lru_over_the_wire(self, graph, oracle):
        async def run():
            gateway = ServingGateway(
                window_seconds=0.01, executor="serial", result_cache_size=8
            )
            # encoded_cache_size=0: every repeat reaches the gateway LRU.
            async with serve(
                graph, gateway=gateway, encoded_cache_size=0
            ) as server:
                async with EgoClient(server.host, server.port) as client:
                    first = await client.scores("alpha")
                    session = server.gateway.tenant("alpha")
                    kernel_queries = dict(session.stats().queries)
                    repeats = [await client.scores("alpha") for _ in range(4)]
                    return (
                        first,
                        repeats,
                        kernel_queries,
                        dict(session.stats().queries),
                        server.gateway.stats(),
                    )

        first, repeats, before, after, stats = asyncio.run(run())
        assert first == oracle and all(r == oracle for r in repeats)
        # Zero kernel executions after the first answer.
        assert after == before
        assert stats["gateway"]["cache_hits"] == 4
        assert stats["tenants"]["alpha"]["cache_entries"] >= 1

    def test_apply_invalidates_both_cache_layers(self, graph):
        async def run():
            gateway = ServingGateway(
                window_seconds=0.01, executor="serial", result_cache_size=8
            )
            async with serve(graph, gateway=gateway) as server:
                session = server.gateway.tenant("alpha")
                u, v = next(iter(graph.edges()))
                async with EgoClient(server.host, server.port) as client:
                    stale = await client.scores("alpha")
                    await client.scores("alpha")  # seed both cache layers
                    await client.apply("alpha", [("delete", u, v)])
                    fresh = await client.scores("alpha")
                    expected = EgoSession(session.snapshot()).scores()
                    stats = server.gateway.stats()
                return stale, fresh, expected, stats

        stale, fresh, expected, stats = asyncio.run(run())
        assert fresh == expected
        assert fresh != stale
        assert stats["gateway"]["cache_invalidations"] >= 1

    def test_encoded_cache_splices_identical_responses(self, graph, oracle):
        async def run():
            async with serve(graph, encoded_cache_size=8) as server:
                async with EgoClient(server.host, server.port) as client:
                    answers = [await client.scores("alpha") for _ in range(3)]
                    return answers, server.stats

        answers, stats = asyncio.run(run())
        assert all(answer == oracle for answer in answers)
        assert stats.encoded_cache_hits == 2


class TestHTTP:
    @staticmethod
    async def _http(server, raw: bytes):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(raw)
        await writer.drain()
        response = await reader.read(-1)
        writer.close()
        head, _, body = response.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(body) if body else None

    @staticmethod
    def _post(message: dict, headers: str = "") -> bytes:
        body = json.dumps(message).encode("utf-8")
        return (
            f"POST /v1/query HTTP/1.1\r\nHost: t\r\n{headers}"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1") + body

    def test_healthz_and_metrics(self, graph):
        async def run():
            async with serve(graph) as server:
                health = await self._http(
                    server, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                metrics = await self._http(
                    server, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                return health, metrics

        (h_status, health), (m_status, metrics) = asyncio.run(run())
        assert h_status == 200
        assert health["ok"] is True and health["tenants"] == ["alpha"]
        assert m_status == 200
        assert metrics["server"]["http_requests"] >= 1
        assert "gateway" in metrics and "alpha" in metrics["tenants"]

    def test_post_query_answers_bit_identical(self, graph, oracle):
        async def run():
            async with serve(graph) as server:
                return await self._http(
                    server,
                    self._post({"id": 9, "op": "scores", "tenant": "alpha"}),
                )

        status, payload = asyncio.run(run())
        assert status == 200
        assert payload["id"] == 9 and payload["ok"] is True
        assert decode_scores(payload["result"]) == oracle

    def test_error_families_map_to_http_status(self, graph):
        async def run():
            async with serve(graph) as server:
                slow_kernels(server.gateway.tenant("alpha"), 0.4)
                unknown = await self._http(
                    server, self._post({"op": "scores", "tenant": "ghost"})
                )
                bad = await self._http(
                    server, self._post({"op": "stream", "tenant": "alpha"})
                )
                route = await self._http(
                    server, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                late = await self._http(
                    server,
                    self._post(
                        {"op": "scores", "tenant": "alpha"},
                        headers="X-Repro-Deadline-Ms: 40\r\n",
                    ),
                )
                return unknown, bad, route, late

        unknown, bad, route, late = asyncio.run(run())
        assert unknown[0] == 404
        assert unknown[1]["error"]["type"] == "UnknownTenantError"
        assert bad[0] == 400  # streaming needs the native protocol
        assert route[0] == 404
        assert late[0] == 408
        assert late[1]["error"]["type"] == "RequestTimeoutError"


class TestWebSocket:
    def test_upgrade_query_ping_close(self, graph, oracle):
        async def run():
            async with serve(graph) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                key = "dGhlIHNhbXBsZSBub25jZQ=="
                writer.write(
                    (
                        "GET /ws HTTP/1.1\r\nHost: t\r\nUpgrade: websocket\r\n"
                        "Connection: Upgrade\r\n"
                        f"Sec-WebSocket-Key: {key}\r\n\r\n"
                    ).encode("latin-1")
                )
                await writer.drain()
                head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
                assert "101" in head.split("\r\n")[0]
                assert websocket_accept_key(key) in head

                def send(message: dict) -> None:
                    writer.write(
                        ws_encode_message(
                            json.dumps(message).encode("utf-8"),
                            mask=True,
                            mask_key=b"mask",
                        )
                    )

                send(hello_message())
                opcode, payload = await ws_read_message(reader)
                greeting = decode_payload(payload)
                assert opcode == WS_TEXT and greeting["ok"] is True

                send({"id": 1, "op": "scores", "tenant": "alpha"})
                opcode, payload = await ws_read_message(reader)
                answer = decode_payload(payload)

                writer.write(
                    ws_encode_message(
                        b"hb", opcode=0x9, mask=True, mask_key=b"mask"
                    )
                )
                pong = await ws_read_message(reader)

                writer.write(
                    ws_encode_message(
                        b"", opcode=WS_CLOSE, mask=True, mask_key=b"mask"
                    )
                )
                close_echo = await ws_read_message(reader)
                writer.close()
                return answer, pong, close_echo, server.stats.ws_connections

        answer, pong, close_echo, ws_connections = asyncio.run(run())
        assert answer["id"] == 1 and answer["ok"] is True
        assert decode_scores(answer["result"]) == oracle
        assert pong == (WS_PONG, b"hb")
        assert close_echo[0] == WS_CLOSE
        assert ws_connections == 1


class TestClientPool:
    def test_pool_reuses_connections(self, graph):
        async def run():
            async with serve(graph) as server:
                async with EgoClient(server.host, server.port, pool_size=2) as client:
                    for _ in range(6):
                        await client.ping()
                    return server.stats.native_connections

        assert asyncio.run(run()) <= 2

    def test_reads_retry_on_fresh_connections_but_apply_never(self, graph):
        """A stub server that tears the first connection mid-request."""
        state = {"requests": 0, "drop_next": 0}

        async def stub(reader, writer):
            try:
                hello = await read_frame(reader)
                assert hello["op"] == "hello"
                await write_frame(
                    writer,
                    {"ok": True, "protocol": PROTOCOL_VERSION, "server": "stub"},
                )
                while True:
                    message = await read_frame(reader)
                    if message is None:
                        return
                    state["requests"] += 1
                    if state["drop_next"] > 0:
                        state["drop_next"] -= 1
                        writer.close()
                        return
                    await write_frame(
                        writer,
                        {
                            "id": message["id"],
                            "ok": True,
                            "result": {"v": [0], "s": [1.5]},
                        },
                    )
            except (ConnectionError, ProtocolError):
                pass

        async def run():
            server = await asyncio.start_server(stub, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            results = {}
            async with EgoClient("127.0.0.1", port, retries=2) as client:
                # Idempotent read: the torn connection costs one retry.
                state["drop_next"] = 1
                results["scores"] = await client.scores("alpha")
                results["read_attempts"] = state["requests"]
                # Mutation: never retried — the ambiguity surfaces.
                state["requests"] = 0
                state["drop_next"] = 1
                try:
                    await client.apply("alpha", [("insert", 0, 1)])
                except ClientConnectionError as error:
                    results["apply_error"] = error
                results["apply_attempts"] = state["requests"]
            server.close()
            await server.wait_closed()
            return results

        results = asyncio.run(run())
        assert results["scores"] == {0: 1.5}
        assert results["read_attempts"] == 2  # dropped once, retried once
        assert isinstance(results["apply_error"], ClientConnectionError)
        assert results["apply_attempts"] == 1  # exactly one attempt

    def test_closed_client_refuses_new_requests(self, graph):
        async def run():
            async with serve(graph) as server:
                client = EgoClient(server.host, server.port)
                await client.ping()
                await client.close()
                with pytest.raises(ClientConnectionError):
                    await client.ping()

        asyncio.run(run())


class TestDrain:
    """Satellite 2: signal-driven drain leaks nothing."""

    @pytest.mark.parallel
    def test_close_releases_process_pool_segments(self, graph, oracle):
        from repro.parallel import runtime as runtime_module

        async def run():
            gateway = ServingGateway(
                window_seconds=0.01, parallel=1, executor="process"
            )
            gateway.add_tenant("alpha", graph)
            server = EgoServer(gateway)
            await server.start()
            async with EgoClient(server.host, server.port) as client:
                answer = await client.scores("alpha")
            await server.close()
            return answer, gateway.closed

        answer, closed = asyncio.run(run())
        assert answer == oracle
        assert closed
        # The bounded drain released every shared-memory segment.
        assert runtime_module._LIVE_SEGMENTS == {}

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "executor,workers",
        [("serial", "0"), pytest.param("process", "1", marks=pytest.mark.parallel)],
    )
    def test_sigterm_drains_the_serve_process(self, tmp_path, executor, workers):
        """``repro serve --http`` + SIGTERM: banner, drain line, exit 0."""
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--http",
                "127.0.0.1:0",
                "--datasets",
                "dblp",
                "--scale",
                "0.02",
                "--workers",
                workers,
                "--executor",
                executor,
            ],
            cwd=repo,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving 1 tenants on 127.0.0.1:" in banner, banner
            port = int(banner.split("127.0.0.1:")[1].split(" ")[0])

            async def probe():
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                response = await reader.read(-1)
                writer.close()
                return response

            response = asyncio.run(probe())
            assert b"200" in response.split(b"\r\n", 1)[0]
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stdout
        assert "drained:" in stdout
        assert "no segments leaked" in stdout


class TestVersionListeners:
    """The session-side hook the gateway's cache invalidation rides."""

    def test_listener_fires_with_the_new_version(self, graph):
        session = EgoSession(graph)
        u, v = next(iter(graph.edges()))
        seen = []
        session.add_version_listener(seen.append)
        session.apply(("delete", u, v))
        session.apply(("insert", u, v))
        assert seen == [session.version - 1, session.version]

    def test_listener_exceptions_are_suppressed(self, graph):
        session = EgoSession(graph)
        u, v = next(iter(graph.edges()))
        seen = []

        def bad(version):
            raise RuntimeError("listener bug")

        session.add_version_listener(bad)
        session.add_version_listener(seen.append)
        session.apply(("delete", u, v))  # does not raise
        assert len(seen) == 1

    def test_removed_listener_stays_silent(self, graph):
        session = EgoSession(graph)
        u, v = next(iter(graph.edges()))
        seen = []
        session.add_version_listener(seen.append)
        session.remove_version_listener(seen.append)
        session.apply(("delete", u, v))
        assert seen == []

    def test_out_of_band_apply_invalidates_the_gateway_cache(self, graph):
        async def run():
            async with ServingGateway(
                window_seconds=0.01, executor="serial", result_cache_size=8
            ) as gateway:
                session = gateway.add_tenant("alpha", graph)
                stale = await gateway.scores("alpha")
                assert await gateway.scores("alpha") == stale  # cached
                # A direct session.apply — not through the gateway — must
                # still invalidate, via the version listener.
                u, v = next(iter(graph.edges()))
                session.apply(("delete", u, v))
                fresh = await gateway.scores("alpha")
                expected = EgoSession(session.snapshot()).scores()
                stats = gateway.stats()["gateway"]
                return stale, fresh, expected, stats

        stale, fresh, expected, stats = asyncio.run(run())
        assert fresh == expected and fresh != stale
        assert stats["cache_hits"] == 1
        assert stats["cache_invalidations"] >= 1

    def test_result_cache_lru_evicts_beyond_capacity(self, graph):
        async def run():
            async with ServingGateway(
                window_seconds=0.01, executor="serial", result_cache_size=1
            ) as gateway:
                gateway.add_tenant("alpha", graph)
                await gateway.scores("alpha", [0])
                await gateway.scores("alpha", [1])  # evicts the [0] entry
                await gateway.scores("alpha", [0])  # miss again
                return gateway.stats()

        stats = asyncio.run(run())
        assert stats["gateway"]["cache_evictions"] >= 1
        assert stats["gateway"]["cache_hits"] == 0
        assert stats["tenants"]["alpha"]["cache_entries"] == 1
