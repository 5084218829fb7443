"""The process under test for the wire workloads: an EgoServer on a gateway.

Run as ``python3 perfbench/server_child.py <config.json>``.  The config
names the tenants (edge lists), the durability settings and whether the
span wrappers are installed.  The child prints one JSON line with its port,
then obeys one command per stdin line, answering each with one JSON line:

* ``trace on`` — snapshot the counters and start recording spans;
* ``stop`` (or end of input) — drain and close the server and gateway,
  write the spans, report peak RSS and the counter deltas, and exit.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys

import common  # noqa: F401  (puts src/ on sys.path)

from repro.net.server import EgoServer
from repro.serving.gateway import ServingGateway
from tracing import Tracer, patch_program, patch_server


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def counters(gateway: ServingGateway, server: EgoServer) -> dict:
    stats = gateway.stats()
    tenants = stats["tenants"].values()
    durability = [t["durability"] for t in tenants if "durability" in t]
    return {
        "serving.rejected": stats["gateway"]["rejected"] + server.stats.shed,
        "durability.fsyncs": sum(d["wal"]["syncs"] for d in durability),
        "durability.appends": sum(d["wal"]["appends"] for d in durability),
        "durability.checkpoints": sum(
            d["checkpoints"]["written_by_session"] for d in durability
        ),
        "core.kernel_fallbacks": sum(t["kernel_fallbacks"] for t in tenants),
        "parallel.task_retries": sum(t["task_retries"] for t in tenants),
        "graph.overlay_rebuilds": sum(t["overlay_rebuilds"] for t in tenants),
        "serving.batches": stats["gateway"]["batches"],
        "serving.coalesced_requests": stats["gateway"]["coalesced_requests"],
    }


async def serve(config: dict) -> None:
    tracer = Tracer()
    if config["trace"]:
        patch_program(tracer)
        patch_server(tracer)
    gateway = ServingGateway(
        result_cache_size=config["result_cache_size"],
        durability_root=config.get("durability_root"),
    )
    for name, edges in config.pop("tenants").items():
        gateway.add_tenant(name, [tuple(edge) for edge in edges], **config["session_options"])
    server = EgoServer(gateway, encoded_cache_size=config["encoded_cache_size"])
    await server.start()
    emit({"port": server.port, "kernel": gateway.tenant(gateway.tenants()[0]).kernel})

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    baseline = counters(gateway, server)
    while True:
        command = (await reader.readline()).decode().strip()
        if command == "trace on":
            baseline = counters(gateway, server)
            tracer.enabled = True
            emit({"ok": True})
            continue
        tracer.enabled = False
        final = counters(gateway, server)
        await server.close()
        if config["trace"]:
            tracer.dump(config["spans_path"])
        emit({
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "counters": {key: final[key] - baseline[key] for key in final},
        })
        return


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        asyncio.run(serve(json.load(handle)))
