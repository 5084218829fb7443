"""``EgoServer``: the network front door on a :class:`ServingGateway`.

One asyncio listener, three dialects on the same port (the first bytes of
a connection decide):

* **native** — length-prefixed JSON frames (:mod:`repro.net.protocol`),
  opened by a protocol-version handshake; requests pipeline freely on one
  connection and are answered out of order by correlation ``id``.
* **HTTP/1.1** — ``GET /healthz`` (liveness/drain state), ``GET /metrics``
  (the full JSON stats tree: server counters + gateway + per-tenant
  session/runtime/durability counters) and ``POST /v1/query`` (one native
  message as the request body; one response object back).
* **WebSocket** — ``GET /ws`` upgrades (RFC 6455) and then speaks exactly
  the native JSON messages as text frames, hello first.

Request semantics
-----------------
Every request may carry ``deadline_ms``, a waiting budget measured from
server receipt; a request that cannot be answered inside it fails with
:class:`~repro.errors.RequestTimeoutError` (the gateway keeps computing
and warms the caches for the retry — same contract as its own
``request_deadline``).  Admission control sheds load *before* work
starts: a connection beyond ``max_connections`` is refused at accept, and
a tenant already carrying ``max_inflight_per_tenant`` server-side
requests gets :class:`~repro.errors.GatewayOverloadedError` — the same
back-pressure discipline (and exception types) the in-process gateway
applies, surfaced one layer earlier.

A client that disconnects mid-request does **not** poison anything: its
in-flight requests are cancelled, a cancelled request is dropped from its
micro-batch exactly like an in-process cancellation, and it is not
counted as a failure (disconnects are not infrastructure faults).

The encoded-response cache
--------------------------
On top of the gateway's hot-key result LRU (which skips the *kernels*),
the server keeps a small per-``(tenant, version, query)`` cache of the
already-serialised response body, so a repeated hot query skips JSON
encoding too and costs one ``bytes`` splice.  Entries are keyed by the
tenant's topology version — a mutation makes them unreachable and LRU
pressure retires them.

Shutdown
--------
:meth:`EgoServer.install_signal_handlers` wires SIGTERM/SIGINT to
:meth:`EgoServer.close`: stop accepting, mark ``/healthz`` draining,
bound-drain the open connections, then close the gateway (its own
bounded drain answers pending batches and releases the shared pool and
payload-store segments — nothing leaks).
"""

from __future__ import annotations

import asyncio
import json
import signal
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import (
    GatewayOverloadedError,
    InvalidParameterError,
    ProtocolError,
    RequestTimeoutError,
)
from repro.net import protocol
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    check_hello,
    decode_label,
    encode_entries,
    encode_error,
    encode_frame,
    encode_raw_frame,
    encode_scores,
    websocket_accept_key,
    ws_encode_message,
    ws_read_message,
)
from repro.serving.gateway import ServingGateway

__all__ = ["EgoServer", "ServerStats"]

#: HTTP request methods, as the 4-byte connection-classification prefixes.
_HTTP_PREFIXES = (b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI", b"PATC")

_JSON_SEPARATORS = (",", ":")

#: HTTP status for each library exception family (fallback: 500).
_HTTP_STATUS = {
    "UnknownTenantError": 404,
    "VertexNotFoundError": 404,
    "InvalidParameterError": 400,
    "ProtocolError": 400,
    "GatewayOverloadedError": 429,
    "RequestTimeoutError": 408,
    "GatewayClosedError": 503,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    426: "Upgrade Required",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServerStats:
    """Cumulative counters of one :class:`EgoServer`.

    Attributes
    ----------
    connections / native_connections / http_requests / ws_connections:
        Accepted connections in total and by dialect (each HTTP request
        is one short-lived connection).
    rejected_connections:
        Connections refused at accept because ``max_connections`` active
        connections were already open.
    requests / answered / errors:
        Messages dispatched, answered with a result, answered with an
        error response.
    shed:
        Requests refused by the per-tenant inflight admission cap.
    deadline_misses:
        Requests that missed their ``deadline_ms`` budget at this layer.
    cancelled:
        In-flight requests cancelled because their client disconnected.
    stream_items:
        Individual answers delivered by ``stream`` requests.
    encoded_cache_hits / encoded_cache_misses:
        The serialised-response cache: responses spliced from cached
        bytes vs. freshly encoded.
    protocol_errors:
        Connections torn down for unsyncable wire garbage.
    """

    connections: int = 0
    native_connections: int = 0
    http_requests: int = 0
    ws_connections: int = 0
    rejected_connections: int = 0
    requests: int = 0
    answered: int = 0
    errors: int = 0
    shed: int = 0
    deadline_misses: int = 0
    cancelled: int = 0
    stream_items: int = 0
    encoded_cache_hits: int = 0
    encoded_cache_misses: int = 0
    protocol_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly snapshot (the ``/metrics`` ``server`` section)."""
        return {
            "connections": self.connections,
            "native_connections": self.native_connections,
            "http_requests": self.http_requests,
            "ws_connections": self.ws_connections,
            "rejected_connections": self.rejected_connections,
            "requests": self.requests,
            "answered": self.answered,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "cancelled": self.cancelled,
            "stream_items": self.stream_items,
            "encoded_cache_hits": self.encoded_cache_hits,
            "encoded_cache_misses": self.encoded_cache_misses,
            "protocol_errors": self.protocol_errors,
        }


class _RawResult:
    """An already-serialised response body (the encoded-cache fast path)."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        self.data = data


class _Connection:
    """Per-connection state: writer serialisation + in-flight task registry."""

    __slots__ = ("reader", "writer", "lock", "tasks", "websocket")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        # Responses from concurrently-handled (pipelined) requests must
        # not interleave their bytes on the socket.
        self.lock = asyncio.Lock()
        self.tasks: Set[asyncio.Task] = set()
        self.websocket = False


class EgoServer:
    """Serve a :class:`ServingGateway` over TCP (native / HTTP / WebSocket).

    Parameters
    ----------
    gateway:
        The gateway that answers the queries.  With ``owns_gateway=True``
        (default) :meth:`close` drains and closes it; pass ``False`` when
        the caller keeps using the gateway after the server stops.
    host / port:
        Bind address.  ``port=0`` picks a free port — read
        :attr:`EgoServer.port` after :meth:`start`.
    max_connections:
        Admission bound on concurrently open connections; a connection
        beyond it is answered with one overload error and closed.
    max_inflight_per_tenant:
        Admission bound on server-side in-flight requests per tenant
        (``scores``/``score``/``top_k``/``apply``/``stream`` messages);
        requests beyond it are shed with
        :class:`~repro.errors.GatewayOverloadedError` before any gateway
        work starts.
    encoded_cache_size:
        Entries in the serialised-response cache (0 disables).
    drain_seconds:
        Bound on the connection drain inside :meth:`close`; connections
        still busy after it are cancelled.
    name:
        Server identity string echoed in the handshake and ``/healthz``.
    """

    def __init__(
        self,
        gateway: ServingGateway,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 256,
        max_inflight_per_tenant: int = 256,
        encoded_cache_size: int = 128,
        drain_seconds: float = 5.0,
        name: str = "repro-ego-server",
        owns_gateway: bool = True,
    ) -> None:
        if max_connections < 1:
            raise InvalidParameterError("max_connections must be positive")
        if max_inflight_per_tenant < 1:
            raise InvalidParameterError("max_inflight_per_tenant must be positive")
        if encoded_cache_size < 0:
            raise InvalidParameterError("encoded_cache_size must be >= 0")
        if drain_seconds <= 0:
            raise InvalidParameterError("drain_seconds must be positive")
        self.gateway = gateway
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.encoded_cache_size = encoded_cache_size
        self.drain_seconds = drain_seconds
        self.name = name
        self.owns_gateway = owns_gateway
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._accept_tasks: Set[asyncio.Task] = set()
        self._inflight: Dict[str, int] = {}
        # (tenant, version, query-key) → serialised response body.
        self._encoded_cache: "OrderedDict[Tuple, str]" = OrderedDict()
        self._draining = False
        self._closed = asyncio.Event()
        self._signal_handlers: List[int] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EgoServer":
        """Bind and start accepting; resolves :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        """``True`` once :meth:`close` has begun."""
        return self._draining

    def install_signal_handlers(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        """Wire SIGTERM and SIGINT to a clean bounded drain.

        The first signal starts :meth:`close`; the handlers are removed
        immediately, so a second signal falls back to Python's default
        (KeyboardInterrupt) and can still kill a wedged process.
        """
        loop = loop or asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._on_signal, loop)
            self._signal_handlers.append(signum)

    def _on_signal(self, loop: asyncio.AbstractEventLoop) -> None:
        self._remove_signal_handlers(loop)
        loop.create_task(self.close())

    def _remove_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        for signum in self._signal_handlers:
            try:
                loop.remove_signal_handler(signum)
            except (ValueError, RuntimeError):  # pragma: no cover - teardown
                pass
        self._signal_handlers.clear()

    async def serve_forever(self) -> None:
        """Block until :meth:`close` runs (a signal, or another task)."""
        await self._closed.wait()

    async def close(self) -> None:
        """Stop accepting, drain connections (bounded), close the gateway."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            # Let in-flight requests finish inside the drain bound, then
            # cancel stragglers — a wedged client cannot hang shutdown.
            deadline = time.monotonic() + self.drain_seconds
            while self._busy_tasks() and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            for connection in list(self._connections):
                self._teardown(connection)
            if self._accept_tasks:
                # Let every connection handler observe its EOF/cancel and
                # finish its cleanup before the gateway goes away.
                await asyncio.gather(*self._accept_tasks, return_exceptions=True)
            if self.owns_gateway and not self.gateway.closed:
                await self.gateway.close()
        finally:
            self._closed.set()

    def _busy_tasks(self) -> int:
        return sum(len(c.tasks) for c in self._connections)

    def _teardown(self, connection: _Connection) -> None:
        for task in list(connection.tasks):
            task.cancel()
        try:
            connection.writer.close()
        except Exception:  # noqa: BLE001 - transport may already be gone
            pass

    async def __aenter__(self) -> "EgoServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Accept + dialect dispatch
    # ------------------------------------------------------------------
    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer)
        task = asyncio.current_task()
        if task is not None:
            self._accept_tasks.add(task)
            task.add_done_callback(self._accept_tasks.discard)
        try:
            try:
                prefix = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            overloaded = (
                self._draining or len(self._connections) >= self.max_connections
            )
            if overloaded:
                self.stats.rejected_connections += 1
                await self._refuse(writer, prefix)
                return
            self._connections.add(connection)
            self.stats.connections += 1
            try:
                if prefix in _HTTP_PREFIXES:
                    await self._serve_http(connection, prefix)
                else:
                    self.stats.native_connections += 1
                    await self._serve_native(connection, prefix)
            except ProtocolError as error:
                self.stats.protocol_errors += 1
                await self._try_send_error(connection, None, error)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
        except asyncio.CancelledError:  # drain teardown / loop shutdown
            pass
        finally:
            self._connections.discard(connection)
            try:
                await self._cancel_inflight(connection)
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):  # noqa: BLE001
                pass  # the peer (or the loop) is already gone

    async def _cancel_inflight(self, connection: _Connection) -> None:
        """Cancel a disconnected client's in-flight requests.

        The cancellation propagates into the gateway future, which drops
        the request from its micro-batch; it is counted as *cancelled*,
        never as a failure.
        """
        if not connection.tasks:
            return
        for task in list(connection.tasks):
            if not task.done():
                task.cancel()
                self.stats.cancelled += 1
        await asyncio.gather(*connection.tasks, return_exceptions=True)
        connection.tasks.clear()

    async def _refuse(self, writer: asyncio.StreamWriter, prefix: bytes) -> None:
        """One overload response in the dialect the peer opened with."""
        error = GatewayOverloadedError(
            f"server is {'draining' if self._draining else 'at max_connections='}"
            f"{'' if self._draining else str(self.max_connections)}; retry later"
        )
        try:
            if prefix in _HTTP_PREFIXES:
                body = json.dumps({"ok": False, "error": encode_error(error)})
                writer.write(_http_response(503, body))
            else:
                writer.write(
                    encode_frame({"ok": False, "error": encode_error(error)})
                )
            await writer.drain()
        except Exception:  # noqa: BLE001 - refusal is best-effort
            pass

    async def _try_send_error(
        self, connection: _Connection, request_id, error: BaseException
    ) -> None:
        try:
            await self._send(
                connection,
                {"id": request_id, "ok": False, "error": encode_error(error)},
            )
        except Exception:  # noqa: BLE001 - peer may be gone
            pass

    # ------------------------------------------------------------------
    # Native protocol
    # ------------------------------------------------------------------
    async def _serve_native(self, connection: _Connection, prefix: bytes) -> None:
        hello = await self._read_prefixed_frame(connection.reader, prefix)
        if hello is None:
            return
        try:
            check_hello(hello)
        except ProtocolError as error:
            self.stats.protocol_errors += 1
            await self._try_send_error(connection, hello.get("id"), error)
            return
        await self._send(
            connection,
            {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "server": self.name,
            },
        )
        while True:
            message = await protocol.read_frame(connection.reader)
            if message is None:
                return
            self._dispatch(connection, message)

    async def _read_prefixed_frame(
        self, reader: asyncio.StreamReader, prefix: bytes
    ) -> Optional[Dict[str, Any]]:
        """Finish reading the frame whose 4 length bytes were peeked."""
        (length,) = struct.unpack(">I", prefix)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed inside a frame payload") from None
        return protocol.decode_payload(payload)

    def _dispatch(self, connection: _Connection, message: Dict[str, Any]) -> None:
        """Run one request concurrently; requests pipeline per connection."""
        task = asyncio.ensure_future(self._handle_message(connection, message))
        connection.tasks.add(task)
        task.add_done_callback(connection.tasks.discard)

    # ------------------------------------------------------------------
    # Request handling (dialect-independent)
    # ------------------------------------------------------------------
    async def _send(self, connection: _Connection, message: Dict[str, Any]) -> None:
        data = json.dumps(message, separators=_JSON_SEPARATORS).encode("utf-8")
        await self._send_bytes(connection, data)

    async def _send_raw_result(
        self, connection: _Connection, request_id, raw: str
    ) -> None:
        """Splice a cached serialised result straight into the response."""
        body = '{"id":%s,"ok":true,"result":%s}' % (
            json.dumps(request_id, separators=_JSON_SEPARATORS),
            raw,
        )
        await self._send_bytes(connection, body.encode("utf-8"))

    async def _send_bytes(self, connection: _Connection, payload: bytes) -> None:
        async with connection.lock:
            if connection.websocket:
                connection.writer.write(ws_encode_message(payload))
            else:
                connection.writer.write(encode_raw_frame(payload))
            await connection.writer.drain()

    async def _handle_message(
        self, connection: _Connection, message: Dict[str, Any]
    ) -> None:
        request_id = message.get("id")
        self.stats.requests += 1
        try:
            op = message.get("op")
            if op == "ping":
                await self._send(connection, {"id": request_id, "ok": True, "result": "pong"})
            elif op == "stats":
                await self._send(
                    connection,
                    {"id": request_id, "ok": True, "result": self.metrics()},
                )
            elif op == "stream":
                await self._handle_stream(connection, request_id, message)
            elif op in ("scores", "score", "top_k", "apply"):
                result = await self._execute(message)
                if isinstance(result, _RawResult):
                    await self._send_raw_result(connection, request_id, result.data)
                else:
                    await self._send(
                        connection, {"id": request_id, "ok": True, "result": result}
                    )
            else:
                raise ProtocolError(f"unknown op {op!r}")
            self.stats.answered += 1
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - every failure maps to a frame
            self.stats.errors += 1
            if isinstance(error, RequestTimeoutError):
                self.stats.deadline_misses += 1
            await self._try_send_error(connection, request_id, error)

    def _admit(self, tenant_id: str) -> None:
        inflight = self._inflight.get(tenant_id, 0)
        if inflight >= self.max_inflight_per_tenant:
            self.stats.shed += 1
            raise GatewayOverloadedError(
                f"tenant {tenant_id!r} already has {inflight} in-flight "
                f"requests at the server "
                f"(max_inflight_per_tenant={self.max_inflight_per_tenant}); "
                "shed load and retry"
            )
        self._inflight[tenant_id] = inflight + 1

    def _release(self, tenant_id: str) -> None:
        remaining = self._inflight.get(tenant_id, 1) - 1
        if remaining <= 0:
            self._inflight.pop(tenant_id, None)
        else:
            self._inflight[tenant_id] = remaining

    @staticmethod
    def _require_field(message: Dict[str, Any], name: str):
        if name not in message:
            raise ProtocolError(f"request is missing its {name!r} field")
        return message[name]

    async def _with_deadline(self, message: Dict[str, Any], factory):
        """Bound the request by its ``deadline_ms`` budget (if any).

        ``factory`` is a zero-argument callable producing the awaitable:
        validation must reject a malformed budget *before* the op
        coroutine exists, or the orphaned coroutine is never awaited.
        """
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise ProtocolError(f"deadline_ms must be positive, got {deadline_ms!r}")
        awaitable = factory()
        if deadline_ms is None:
            return await awaitable
        try:
            return await asyncio.wait_for(
                asyncio.ensure_future(awaitable), deadline_ms / 1000.0
            )
        except asyncio.TimeoutError:
            raise RequestTimeoutError(
                f"request missed its {deadline_ms}ms deadline at the server"
            ) from None

    async def _execute(self, message: Dict[str, Any]):
        op = message["op"]
        tenant_id = self._require_field(message, "tenant")
        if not isinstance(tenant_id, str):
            raise ProtocolError(f"tenant must be a string, got {tenant_id!r}")
        self._admit(tenant_id)
        try:
            if op == "scores":
                return await self._with_deadline(
                    message, lambda: self._execute_scores(tenant_id, message)
                )
            if op == "score":
                vertex = decode_label(self._require_field(message, "vertex"))
                return await self._with_deadline(
                    message, lambda: self.gateway.score(tenant_id, vertex)
                )
            if op == "top_k":
                return await self._with_deadline(
                    message, lambda: self._execute_top_k(tenant_id, message)
                )
            # apply: a mutation — never cached, never deadline-aborted
            # mid-flight (the WAL ack discipline makes an abandoned wait
            # ambiguous, so the budget is not applied to mutations).
            events = self._require_field(message, "events")
            return await self._execute_apply(tenant_id, events)
        finally:
            self._release(tenant_id)

    async def _execute_scores(self, tenant_id: str, message: Dict[str, Any]):
        encoded_vertices = message.get("vertices")
        if encoded_vertices is None:
            vertices = None
            cache_key: Optional[Tuple] = (tenant_id, "scores", None)
        else:
            if not isinstance(encoded_vertices, list):
                raise ProtocolError("vertices must be null or a list of labels")
            vertices = [decode_label(item) for item in encoded_vertices]
            try:
                cache_key = (tenant_id, "scores", frozenset(vertices))
            except TypeError:
                cache_key = None
        cached = self._encoded_lookup(tenant_id, cache_key)
        if cached is not None:
            return cached
        version = self._tenant_version(tenant_id)
        answer = await self.gateway.scores(tenant_id, vertices)
        raw = json.dumps(encode_scores(answer), separators=_JSON_SEPARATORS)
        self._encoded_store(tenant_id, version, cache_key, raw)
        return _RawResult(raw)

    async def _execute_top_k(self, tenant_id: str, message: Dict[str, Any]):
        k = self._require_field(message, "k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ProtocolError(f"k must be a positive integer, got {k!r}")
        cache_key = (tenant_id, "top_k", k)
        cached = self._encoded_lookup(tenant_id, cache_key)
        if cached is not None:
            return cached
        version = self._tenant_version(tenant_id)
        result = await self.gateway.top_k(tenant_id, k)
        raw = json.dumps(
            {"k": result.k, "entries": encode_entries(result.entries)},
            separators=_JSON_SEPARATORS,
        )
        self._encoded_store(tenant_id, version, cache_key, raw)
        return _RawResult(raw)

    async def _execute_apply(self, tenant_id: str, events):
        if not isinstance(events, list):
            raise ProtocolError("events must be a list of [kind, u, v] triples")
        decoded = []
        for event in events:
            if not isinstance(event, (list, tuple)) or len(event) != 3:
                raise ProtocolError(f"malformed update event {event!r}")
            kind, u, v = event
            decoded.append((kind, decode_label(u), decode_label(v)))
        applied = await self.gateway.apply(tenant_id, decoded)
        return {"applied": applied, "version": self._tenant_version(tenant_id)}

    def _tenant_version(self, tenant_id: str) -> int:
        return self.gateway.tenant(tenant_id).version

    # ------------------------------------------------------------------
    # Encoded-response cache
    # ------------------------------------------------------------------
    def _encoded_lookup(
        self, tenant_id: str, cache_key: Optional[Tuple]
    ) -> Optional[_RawResult]:
        if not self.encoded_cache_size or cache_key is None:
            return None
        try:
            version = self._tenant_version(tenant_id)
        except Exception:  # noqa: BLE001 - unknown tenant: let the gateway raise
            return None
        entry = self._encoded_cache.get((version, *cache_key))
        if entry is None:
            self.stats.encoded_cache_misses += 1
            return None
        self._encoded_cache.move_to_end((version, *cache_key))
        self.stats.encoded_cache_hits += 1
        return _RawResult(entry)

    def _encoded_store(
        self, tenant_id: str, version: int, cache_key: Optional[Tuple], raw: str
    ) -> None:
        if not self.encoded_cache_size or cache_key is None:
            return
        try:
            if self._tenant_version(tenant_id) != version:
                return  # the topology moved while the answer computed
        except Exception:  # noqa: BLE001 - tenant vanished mid-flight
            return
        cache = self._encoded_cache
        cache[(version, *cache_key)] = raw
        cache.move_to_end((version, *cache_key))
        while len(cache) > self.encoded_cache_size:
            cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    async def _handle_stream(
        self, connection: _Connection, request_id, message: Dict[str, Any]
    ) -> None:
        """Answer a ``stream`` request: one frame per query, then done.

        Rides :meth:`ServingGateway.stream`: if the client disconnects
        (a write fails) the generator's early-exit cancels every
        not-yet-consumed request out of its micro-batch.
        """
        tenant_id = self._require_field(message, "tenant")
        encoded_queries = self._require_field(message, "queries")
        if not isinstance(encoded_queries, list):
            raise ProtocolError("queries must be a list")
        queries = [
            None if query is None else [decode_label(item) for item in query]
            for query in encoded_queries
        ]
        self._admit(tenant_id)
        try:
            sequence = 0
            async for answer in self.gateway.stream(tenant_id, queries):
                await self._send(
                    connection,
                    {
                        "id": request_id,
                        "seq": sequence,
                        "ok": True,
                        "result": encode_scores(answer),
                    },
                )
                self.stats.stream_items += 1
                sequence += 1
            await self._send(connection, {"id": request_id, "done": True})
        finally:
            self._release(tenant_id)

    # ------------------------------------------------------------------
    # HTTP + WebSocket
    # ------------------------------------------------------------------
    async def _serve_http(self, connection: _Connection, prefix: bytes) -> None:
        reader, writer = connection.reader, connection.writer
        try:
            head = prefix + await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ProtocolError("truncated HTTP request head") from None
        request_line, _, header_block = head.partition(b"\r\n")
        try:
            method, target, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            raise ProtocolError(f"malformed HTTP request line {request_line!r}") from None
        headers: Dict[str, str] = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        self.stats.http_requests += 1
        if target == "/ws":
            await self._serve_websocket(connection, headers)
            return
        if method == "GET" and target == "/healthz":
            status = 503 if self._draining else 200
            body = json.dumps(
                {
                    "ok": not self._draining,
                    "draining": self._draining,
                    "server": self.name,
                    "protocol": PROTOCOL_VERSION,
                    "tenants": self.gateway.tenants(),
                }
            )
            writer.write(_http_response(status, body))
            await writer.drain()
            return
        if method == "GET" and target == "/metrics":
            writer.write(_http_response(200, json.dumps(self.metrics(), default=repr)))
            await writer.drain()
            return
        if method == "POST" and target == "/v1/query":
            length = int(headers.get("content-length", "0") or "0")
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"HTTP body of {length} bytes exceeds {MAX_FRAME_BYTES}")
            body_bytes = await reader.readexactly(length) if length else b""
            message = protocol.decode_payload(body_bytes)
            deadline_header = headers.get("x-repro-deadline-ms")
            if deadline_header is not None and "deadline_ms" not in message:
                try:
                    message["deadline_ms"] = float(deadline_header)
                except ValueError:
                    raise ProtocolError(
                        f"malformed X-Repro-Deadline-Ms header {deadline_header!r}"
                    ) from None
            await self._handle_http_query(connection, message)
            return
        writer.write(
            _http_response(
                404,
                json.dumps(
                    {
                        "ok": False,
                        "error": {
                            "type": "ProtocolError",
                            "message": f"no route for {method} {target}",
                        },
                    }
                ),
            )
        )
        await writer.drain()

    async def _handle_http_query(
        self, connection: _Connection, message: Dict[str, Any]
    ) -> None:
        request_id = message.get("id")
        self.stats.requests += 1
        try:
            op = message.get("op")
            if op not in ("scores", "score", "top_k", "apply"):
                raise ProtocolError(
                    f"op {op!r} is not available over POST /v1/query "
                    "(streaming ops need the native protocol or /ws)"
                )
            result = await self._execute(message)
            if isinstance(result, _RawResult):
                body = '{"id":%s,"ok":true,"result":%s}' % (
                    json.dumps(request_id),
                    result.data,
                )
            else:
                body = json.dumps({"id": request_id, "ok": True, "result": result})
            connection.writer.write(_http_response(200, body))
            await connection.writer.drain()
            self.stats.answered += 1
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - mapped to a status code
            self.stats.errors += 1
            if isinstance(error, RequestTimeoutError):
                self.stats.deadline_misses += 1
            status = _HTTP_STATUS.get(type(error).__name__, 500)
            body = json.dumps(
                {"id": request_id, "ok": False, "error": encode_error(error)}
            )
            try:
                connection.writer.write(_http_response(status, body))
                await connection.writer.drain()
            except Exception:  # noqa: BLE001 - peer gone
                pass

    async def _serve_websocket(
        self, connection: _Connection, headers: Dict[str, str]
    ) -> None:
        key = headers.get("sec-websocket-key")
        if not key or headers.get("upgrade", "").lower() != "websocket":
            connection.writer.write(
                _http_response(
                    426,
                    json.dumps(
                        {
                            "ok": False,
                            "error": {
                                "type": "ProtocolError",
                                "message": "/ws requires a WebSocket upgrade",
                            },
                        }
                    ),
                )
            )
            await connection.writer.drain()
            return
        accept = websocket_accept_key(key)
        connection.writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: " + accept.encode("ascii") + b"\r\n\r\n"
        )
        await connection.writer.drain()
        connection.websocket = True
        self.stats.ws_connections += 1
        # Hello first, exactly like the native dialect.
        opening = await ws_read_message(connection.reader)
        if opening is None or opening[0] == WS_CLOSE:
            return
        hello = protocol.decode_payload(opening[1])
        try:
            check_hello(hello)
        except ProtocolError as error:
            self.stats.protocol_errors += 1
            await self._try_send_error(connection, hello.get("id"), error)
            return
        await self._send(
            connection,
            {"ok": True, "protocol": PROTOCOL_VERSION, "server": self.name},
        )
        while True:
            item = await ws_read_message(connection.reader)
            if item is None:
                return
            opcode, payload = item
            if opcode == WS_CLOSE:
                async with connection.lock:
                    connection.writer.write(
                        ws_encode_message(payload, opcode=WS_CLOSE)
                    )
                    await connection.writer.drain()
                return
            if opcode == WS_PING:
                async with connection.lock:
                    connection.writer.write(ws_encode_message(payload, opcode=WS_PONG))
                    await connection.writer.drain()
                continue
            if opcode != WS_TEXT:
                continue
            self._dispatch(connection, protocol.decode_payload(payload))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """The full JSON stats tree (`/metrics`): server + gateway layers."""
        return {
            "server": {
                **self.stats.as_dict(),
                "active_connections": len(self._connections),
                "draining": self._draining,
                "encoded_cache_entries": len(self._encoded_cache),
                "config": {
                    "host": self.host,
                    "port": self.port,
                    "max_connections": self.max_connections,
                    "max_inflight_per_tenant": self.max_inflight_per_tenant,
                    "encoded_cache_size": self.encoded_cache_size,
                    "drain_seconds": self.drain_seconds,
                },
            },
            **self.gateway.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EgoServer({self.host}:{self.port}, "
            f"connections={len(self._connections)}, draining={self._draining})"
        )


def _http_response(status: int, body: str) -> bytes:
    """One complete HTTP/1.1 response (JSON body, connection: close)."""
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + payload
