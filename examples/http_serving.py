"""Scenario: the network front door — one port, three dialects.

An :class:`repro.EgoServer` puts the serving gateway behind a real TCP
socket.  This demo starts one on an ephemeral port, then talks to it
three ways:

* the native framed protocol through the pooled :class:`repro.EgoClient`
  (scores, top-k, a streaming iterator, a live edge mutation, and a
  deliberately-too-tight ``deadline_ms``),
* plain HTTP/1.1 — ``GET /healthz``, ``POST /v1/query``, ``GET /metrics``
  — the way a load balancer or ``curl`` would,
* and it shows the hot-key result cache absorbing repeated queries with
  zero kernel executions after the first.

Everything is standard library; the demo stays on the serial executor so
it runs anywhere instantly.  For a long-lived server use the CLI::

    python -m repro serve --http 127.0.0.1:8750 --datasets dblp --scale 0.2

and measure open-loop wire latency on the same machinery with::

    python3 perfbench/run.py --workload wire-read --seed 1 --seconds 10

Run with::

    python examples/http_serving.py
"""

from __future__ import annotations

import asyncio
import json

from repro import EgoClient, EgoServer, EgoSession, ServingGateway
from repro.errors import RequestTimeoutError


async def http(host: str, port: int, raw: bytes) -> tuple[int, dict]:
    """One raw HTTP/1.1 exchange — what curl does under the hood."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read(-1)
    writer.close()
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body) if body else {}


async def main() -> None:
    gateway = ServingGateway(
        window_seconds=0.002, executor="serial", result_cache_size=64
    )
    gateway.add_tenant("collab", EgoSession.from_dataset("dblp", scale=0.15))
    server = EgoServer(gateway, host="127.0.0.1", port=0)
    await server.start()
    print(f"serving on {server.host}:{server.port}\n")

    # --- the native framed protocol, through the pooled client --------
    async with EgoClient(server.host, server.port) as client:
        scores = await client.scores("collab")
        top = await client.top_k("collab", 5)
        print(f"native: {len(scores)} scores; top-5 {[v for v, _ in top]}")

        print("native: streaming 3 subset queries:")
        async for answer in client.stream_scores(
            "collab", [[v for v, _ in top[:2]], [top[0][0]], None]
        ):
            print(f"  -> {len(answer)} scores")

        # A live mutation over the wire: delete the busiest hub's first edge.
        hub = top[0][0]
        session = gateway.tenant("collab")
        snapshot = session.snapshot()
        neighbor = snapshot.label_of(snapshot.neighbor_ids(snapshot.id_of(hub))[0])
        receipt = await client.apply("collab", [("delete", hub, neighbor)])
        print(f"native: applied delete({hub}, {neighbor}) -> {receipt}")

        try:
            await client.scores("collab", deadline_ms=0.001)
        except RequestTimeoutError as error:
            print(f"native: tight deadline -> {type(error).__name__}: {error}")

        # --- the hot-key caches: repeats cost zero kernel executions ---
        await client.top_k("collab", 5)  # prime the post-mutation entry
        before = dict(session.stats().queries)
        for _ in range(5):
            await client.top_k("collab", 5)
        after = dict(session.stats().queries)
        # Two layers absorb the repeats: the server's encoded-response
        # cache (splices pre-serialized frames) in front of the gateway's
        # result LRU.
        absorbed = server.stats.encoded_cache_hits
        absorbed += gateway.stats()["gateway"]["cache_hits"]
        print(
            f"cache:  5 repeated top-k calls -> {absorbed} cache hits across "
            f"both layers, kernel executions unchanged: {before == after}"
        )

    # --- plain HTTP/1.1 on the same port ------------------------------
    status, health = await http(
        server.host, server.port, b"GET /healthz HTTP/1.1\r\nHost: demo\r\n\r\n"
    )
    print(f"\nhttp:   GET /healthz -> {status} {health}")

    body = json.dumps({"op": "top_k", "tenant": "collab", "k": 3}).encode()
    status, answer = await http(
        server.host,
        server.port,
        b"POST /v1/query HTTP/1.1\r\nHost: demo\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body,
    )
    print(f"http:   POST /v1/query top_k(3) -> {status} {answer['result']}")

    status, metrics = await http(
        server.host, server.port, b"GET /metrics HTTP/1.1\r\nHost: demo\r\n\r\n"
    )
    counters = metrics["server"]
    print(
        f"http:   GET /metrics -> {counters['requests']} requests, "
        f"{counters['answered']} answered, "
        f"{counters['http_requests']} over HTTP"
    )

    await server.close()  # bounded drain; also closes the owned gateway
    print("\ndrained cleanly")


if __name__ == "__main__":
    asyncio.run(main())
